"""The package namespace exports its frozen list of names, each the very object
its defining module holds and each with a caller, and nothing else."""

import ast
import importlib
from pathlib import Path

import pytest

import metric_lab

# A frozen copy of the names the package exports, by the module that defines
# each.
EXPORTED = {
    "errors": [
        "AlphabetError", "ConstructionError", "DegenerateEnvelopeError",
        "DomainError", "InsufficientDepthError", "MalformedMatrixError",
        "MetricLabError", "ResolutionError", "ScheduleError",
    ],
    "metric_core": [
        "TOL", "AxiomViolation", "FiniteMetricSpace", "PointedWindow",
        "epsilon_net", "rescale", "space_from_json", "space_to_json",
        "validate_metric", "write_space",
    ],
    "gh_solver": [
        "Correspondence", "GhResult", "correspondence_from_map",
        "distortion_of_correspondence", "gh_bounds", "gh_distance",
        "gh_exact_small", "map_distortion", "pointed_gh_bounds",
    ],
    "fractal_gen": [
        "MODEL_KINDS", "FlatSnowflakeGenerator", "SlitCarpetGenerator",
        "SlitPlanePoint", "SlitSchedule", "WuSchedule", "default_wu_schedule",
        "make_generator", "model_tangent_space", "phi_half_disk_sample",
        "pillow_carpet_space", "product_rug_space", "slit_carpet_graph",
        "slit_carpet_space", "slit_plane_distance", "snowflake_polyline",
        "square_map_phi", "unit_square_generator", "wu_L", "wu_line_metric",
    ],
    "boundary_free_group": [
        "BoundaryPoint", "Cylinder", "ExpansionStats", "ReducedWord",
        "boundary_point", "cylinder_ball", "enumerate_words", "expanding_cover",
        "expansion_factor_probe", "gromov_product_prefix", "reduce_word",
        "translate_boundary", "visual_distance",
    ],
    "qs_analysis": [
        "DistortionEnvelope", "SampledMap", "distortion_envelope",
        "envelope_from_samples", "envelope_invert",
    ],
    "tangent_lab": [
        "ScanConfig", "ScanReport", "Verdict",
        "classify_tangent", "extract_window", "nearest_position_seed",
        "tangent_scan",
    ],
}
DEFINED_IN = [(module, name) for module, names in EXPORTED.items() for name in names]
EXPORTED_NAMES = [name for _, name in DEFINED_IN]

# Exports that no searched file calls either, kept until a change decides
# them: boundary_point is imported by the acceptance suite but never called,
# and space_to_json is the reference write_space's bytes are tested against.
NO_CALLER_YET = {"boundary_point", "space_to_json"}

# The code whose calls keep an export alive: the package (its namespace
# module aside), the acceptance suite and the benchmark.
ROOT = Path(__file__).resolve().parents[1]
CALLER_FILES = ([p for p in sorted((ROOT / "src" / "metric_lab").glob("*.py"))
                 if p.name != "__init__.py"]
                + [ROOT / "tests" / "test_acceptance.py"]
                + sorted((ROOT / "perfbench").glob("*.py")))


def test_all_lists_exactly_the_exported_names():
    assert sorted(metric_lab.__all__) == sorted(EXPORTED_NAMES)
    assert len(metric_lab.__all__) == len(set(metric_lab.__all__))


def _loads(path):
    """(name, owner) for each load of a name or attribute in the file, where
    owner is the enclosing top-level function or class, or None."""
    out = []
    for node in ast.parse(path.read_text(), str(path)).body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.append((sub.id, owner))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.append((sub.attr, owner))
    return out


def test_every_export_has_a_caller():
    # a load inside the export's own definition, or inside the definition of
    # an export that itself has no caller, does not count
    loads = [load for path in CALLER_FILES for load in _loads(path)]
    uncalled: set = set()
    while True:
        called = {name for name, owner in loads
                  if owner != name and owner not in uncalled}
        now = set(metric_lab.__all__) - called
        if now == uncalled:
            break
        uncalled = now
    assert sorted(uncalled - NO_CALLER_YET) == []
    assert NO_CALLER_YET <= uncalled  # a name that gains a caller leaves the set


@pytest.mark.parametrize("module,name", DEFINED_IN)
def test_each_name_resolves_to_its_defining_module_object(module, name):
    want = getattr(importlib.import_module(f"metric_lab.{module}"), name)
    assert getattr(metric_lab, name) is want
    namespace: dict = {}
    exec(f"from metric_lab import {name}", namespace)
    assert namespace[name] is want


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from metric_lab import *", namespace)
    assert set(EXPORTED_NAMES) <= set(namespace)


def test_dir_lists_the_exports_and_the_version():
    listing = dir(metric_lab)
    assert set(EXPORTED_NAMES) <= set(listing)
    assert "__version__" in listing
    assert metric_lab.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(EXPORTED) + ["grids"])
def test_submodules_resolve_as_attributes(module):
    assert getattr(metric_lab, module) is importlib.import_module(f"metric_lab.{module}")


@pytest.mark.parametrize("name", ["no_such_name", "cdist", "np", "_EXPORT"])
def test_unknown_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(metric_lab, name)
    assert not hasattr(metric_lab, name)
    with pytest.raises(ImportError):
        exec(f"from metric_lab import {name}", {})

