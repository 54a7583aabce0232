"""Spans around the public functions of metric_lab, recorded from outside.

A span is [name, start, end, parent, op, child_seconds, info].  The wrapper
replaces a function at every metric_lab module that binds it (for example
gh_solver.gh_bounds and cli.gh_bounds are one function), so a call made
inside the library, such as the warm start inside gh_exact_small, shows up as
a child span.  Spans stay in memory until write() at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter

LAYERS = ("cli", "metric_core", "grids", "fractal_gen", "gh_solver",
          "tangent_lab", "qs_analysis", "boundary_free_group")


def _gh_info(res, args, kwargs):
    return (res.lower, res.upper, res.exact)


def _triples(res, args, kwargs):
    f = args[0]
    budget = args[1] if len(args) > 1 else kwargs.get("triple_budget", 10 ** 6)
    n = f.domain.n
    total = n * n * (n - 1)
    return total if budget == "all" or int(budget) >= total else int(budget)


# (module, attribute, span name, post hook computing the span's count/info).
# A post hook runs after the span has closed, inside the caller's span.
FUNCTIONS = (
    ("gh_solver", "gh_bounds", "gh_solver.gh_bounds", _gh_info),
    ("gh_solver", "gh_exact_small", "gh_solver.gh_exact_small", _gh_info),
    ("gh_solver", "pointed_gh_bounds", "gh_solver.pointed_gh_bounds", _gh_info),
    ("tangent_lab", "tangent_scan", "tangent_lab.tangent_scan", None),
    ("tangent_lab", "extract_window", "tangent_lab.extract_window", None),
    ("tangent_lab", "nearest_position_seed", "tangent_lab.nearest_position_seed",
     lambda res, args, kwargs: (res, args[0].space, args[1].space)),
    ("fractal_gen", "model_tangent_space", "fractal_gen.model_tangent_space", None),
    ("fractal_gen", "slit_carpet_graph", "fractal_gen.slit_carpet_graph", None),
    ("fractal_gen", "snowflake_polyline", "fractal_gen.snowflake_polyline", None),
    ("fractal_gen", "product_rug_space", "fractal_gen.product_rug_space", None),
    ("metric_core", "validate_metric", "metric_core.validate_metric",
     lambda res, args, kwargs: args[0].n ** 3),
    ("metric_core", "write_json_atomic", "metric_core.write_json_atomic",
     lambda res, args, kwargs: os.path.getsize(args[1])),
    ("metric_core", "space_from_json", "metric_core.space_from_json", None),
    ("metric_core", "epsilon_net", "metric_core.epsilon_net", None),
    ("qs_analysis", "distortion_envelope", "qs_analysis.distortion_envelope", _triples),
    ("qs_analysis", "envelope_from_samples", "qs_analysis.envelope_from_samples", None),
    ("boundary_free_group", "cylinder_ball", "boundary_free_group.cylinder_ball", None),
    ("boundary_free_group", "expansion_factor_probe",
     "boundary_free_group.expansion_factor_probe",
     lambda res, args, kwargs: res.count),
)
# Methods, patched on every class of the module that defines them.
METHODS = (
    ("fractal_gen", "sample_ball", "fractal_gen.sample_ball", None),
    ("grids", "distances_from", "grids.GridGraph.distances_from",
     lambda res, args, kwargs: res.shape[0]),
)
# Click command bodies: span name cli.<command>.
COMMANDS = ("gen", "gh", "qs", "boundary", "scan")

# The per-call count each span name reports, and the metric it goes into.
COUNTS = {
    "grids.GridGraph.distances_from": "sources",
    "metric_core.validate_metric": "triangle_checks",
    "metric_core.write_json_atomic": "bytes",
    "qs_analysis.distortion_envelope": "triples",
    "boundary_free_group.expansion_factor_probe": "pairs",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name: str, fn, post=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[2] - span[1]
            if post is not None:
                span[6] = post(result, args, kwargs)
            return result
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        lab = [m for name, m in sorted(sys.modules.items())
               if name == "metric_lab" or name.startswith("metric_lab.")]
        for module, attr, name, post in FUNCTIONS:
            original = getattr(importlib.import_module(f"metric_lab.{module}"), attr)
            wrapper = self.wrap(name, original, post)
            for mod in lab:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for module, attr, name, post in METHODS:
            mod = importlib.import_module(f"metric_lab.{module}")
            for cls in vars(mod).values():
                if (isinstance(cls, type) and cls.__module__ == mod.__name__
                        and attr in cls.__dict__):
                    self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], post))
        cli = importlib.import_module("metric_lab.cli")
        for command in COMMANDS:
            cmd = cli.main.commands[command]
            self._patch(cmd, "callback", self.wrap(f"cli.{command}", cmd.callback))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Spans as JSON: name, start, end, parent index, operation id."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump([s[:5] for s in self.spans], fh)


def layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float,
                  distortion) -> dict:
    """Per-layer numbers from the spans of one traced pass.

    `distortion(space_x, space_y, correspondence)` re-evaluates the raw
    position seeds after the pass, for nearest_position_seed.hit_frac.
    """
    spans = tracer.spans
    names = [n for _, _, n, _ in FUNCTIONS] + [n for _, _, n, _ in METHODS]
    names += [f"cli.{c}" for c in COMMANDS]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    roots = 0.0
    for name, start, end, parent, _op, child_s, info in spans:
        calls[name] += 1
        self_s[name] += (end - start) - child_s
        if name in counts and info is not None:
            counts[name] += info
        if parent < 0:
            roots += end - start

    out: dict = {}
    for name in names:
        if not name.startswith("cli."):
            out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name, key in COUNTS.items():
        out[f"{name}.{key}"] = (counts[name], "count")
    for layer in LAYERS:
        total = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (total, "s")

    # Span info is None when the call raised; those calls count as not closed.
    bounds = [s for s in spans if s[0] == "gh_solver.gh_bounds" and s[6] is not None]
    closed = sum(1 for s in bounds if s[6][1] - s[6][0] <= 1e-12)
    out["gh_solver.gh_bounds.closed_frac"] = (_frac(closed, len(bounds)), "ratio")

    exact_spans = [i for i, s in enumerate(spans)
                   if s[0] == "gh_solver.gh_exact_small" and s[6] is not None]
    exhausted = sum(1 for i in exact_spans if spans[i][6][2] is None)
    out["gh_solver.gh_exact_small.exhausted"] = (exhausted, "count")
    exact_set = set(exact_spans)
    warm = {s[3]: s for s in bounds if s[3] in exact_set}
    exact_time = sum(spans[i][2] - spans[i][1] for i in exact_spans)
    warm_time = sum(s[2] - s[1] for s in warm.values())
    out["gh_solver.warm_start_share"] = (_frac(warm_time, exact_time), "ratio")
    solved = [i for i in exact_spans if spans[i][6][2] is not None]
    hits = sum(1 for i in solved
               if i in warm and abs(warm[i][6][1] - spans[i][6][2]) <= 1e-12)
    out["gh_solver.warm_start_hit_frac"] = (_frac(hits, len(solved)), "ratio")

    seeds = [i for i, s in enumerate(spans) if s[0] == "tangent_lab.nearest_position_seed"]
    seed_hits = 0
    for i in seeds:
        corr, space_x, space_y = spans[i][6] or (None, None, None)
        row = next((s for s in spans[i + 1:]
                    if s[0] == "gh_solver.pointed_gh_bounds" and s[3] == spans[i][3]),
                   None)
        if corr is not None and row is not None and row[6] is not None:
            if distortion(space_x, space_y, corr) / 2.0 <= row[6][1] + 1e-12:
                seed_hits += 1
    out["tangent_lab.nearest_position_seed.hit_frac"] = (_frac(seed_hits, len(seeds)),
                                                         "ratio")

    out["trace.wall_s"] = (wall_s, "s")
    out["trace.overhead_s"] = (wall_s - untraced_wall_s, "s")
    out["trace.unattributed_s"] = (wall_s - roots, "s")
    out["trace.spans"] = (len(spans), "count")
    return out


def _frac(num, den) -> float:
    return float(num) / den if den else 0.0
