"""Each object has one import path, its defining submodule: the package
namespace holds only its version, and every public name and method of the
submodules has a caller."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metric_lab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "metric_lab"
SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# The code whose calls keep a name alive: the package (its namespace module
# aside), the acceptance suite and the benchmark.
CALLER_FILES = ([PACKAGE / f"{module}.py" for module in SUBMODULES]
                + [ROOT / "tests" / "test_acceptance.py"]
                + sorted((ROOT / "perfbench").glob("*.py")))


def _public(name):
    return not name.startswith("_")


def _definitions(module):
    """(module, name) of each public top-level def, class and assignment of a
    submodule, and (module, "Class.method") of each public method of its
    classes.  A decorated top-level function (a click command) is an entry
    point, not a definition that needs a caller."""
    out = []
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, ast.FunctionDef):
            if _public(node.name) and not node.decorator_list:
                out.append((module, node.name))
        elif isinstance(node, ast.ClassDef):
            if _public(node.name):
                out.append((module, node.name))
            out += [(module, f"{node.name}.{sub.name}") for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and _public(sub.name)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(module, t.id) for t in targets
                    if isinstance(t, ast.Name) and _public(t.id)]
    return out


def _loads(path):
    """(name, is_attribute, owners) for each load of a name or attribute in
    the file, where owners holds the (file stem, name) of the enclosing
    top-level def or class and, inside a method, (file stem, "Class.method")."""
    out = []
    for node in ast.parse(path.read_text(), str(path)).body:
        owners = ()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners = ((path.stem, node.name),)
        scopes = [(node, owners)]
        if isinstance(node, ast.ClassDef):
            scopes = [(sub, owners) for sub in node.decorator_list + node.bases + node.keywords]
            for sub in node.body:
                method = ()
                if isinstance(sub, ast.FunctionDef):
                    method = ((path.stem, f"{node.name}.{sub.name}"),)
                scopes.append((sub, owners + method))
        for scope, owners in scopes:
            for sub in ast.walk(scope):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    out.append((sub.id, False, owners))
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    out.append((sub.attr, True, owners))
    return out


def test_every_public_name_and_method_has_a_caller():
    # a module-level name is called by a load of its name, bare or as an
    # attribute, a method by an attribute load; a load inside the definition
    # itself, or inside a definition that has no caller either, does not count
    defined = [d for module in SUBMODULES for d in _definitions(module)]
    loads: dict = {}
    for path in CALLER_FILES:
        for name, is_attribute, owners in _loads(path):
            loads.setdefault(name, []).append((is_attribute, set(owners)))
    uncalled: set = set()
    while True:
        called = {(module, name) for module, name in defined
                  for is_attribute, owners in loads.get(name.rpartition(".")[2], [])
                  if (is_attribute or "." not in name)
                  and (module, name) not in owners and not uncalled & owners}
        now = set(defined) - called
        if now == uncalled:
            break
        uncalled = now
    assert sorted(f"{module}.{name}" for module, name in uncalled) == []


def test_import_loads_no_submodule_and_no_numpy():
    # the package namespace is its docstring and version; an eager import
    # layer would load the submodules, and numpy with them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent),
                                                    env.get("PYTHONPATH")) if p)
    probe = ("import sys, metric_lab; print(sorted(m for m in sys.modules "
             "if m.startswith('metric_lab.') or m.partition('.')[0] == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module,name", [d for module in SUBMODULES
                                         for d in _definitions(module) if "." not in d[1]])
def test_each_name_resolves_to_its_defining_module_object(module, name):
    # the defining submodule is the one import path: the object is defined
    # there, and the package neither binds it nor imports it by name
    obj = getattr(importlib.import_module(f"metric_lab.{module}"), name)
    if inspect.isclass(obj) or inspect.isfunction(obj):
        assert obj.__module__ == f"metric_lab.{module}"
    assert not hasattr(metric_lab, name)
    with pytest.raises(ImportError):
        exec(f"from metric_lab import {name}", {})


def test_dir_lists_the_version():
    assert "__version__" in dir(metric_lab)
    assert metric_lab.__version__ == "0.1.0"


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodules_resolve_as_attributes(module):
    want = importlib.import_module(f"metric_lab.{module}")
    assert getattr(metric_lab, module) is want


@pytest.mark.parametrize("name", ["no_such_name", "cdist", "np", "_EXPORT"])
def test_unknown_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(metric_lab, name)
    assert not hasattr(metric_lab, name)
    with pytest.raises(ImportError):
        exec(f"from metric_lab import {name}", {})
