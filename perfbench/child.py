"""One workload of the benchmark, run inside a fresh interpreter.

run.py starts this file with PYTHONPATH=src and prints what it reports.

  setup  import metric_lab.cli and build the workload's inputs, then exit
  run    build the inputs, run batches until --seconds are measured, check
         the outputs; print one JSON line
  trace  build the inputs, run one untraced and one traced pass, check the
         traced outputs; print one JSON line with the per-layer numbers

The timed region never includes input construction or correctness checks.
"""
from __future__ import annotations

import time

_t = time.perf_counter()
import metric_lab.cli  # noqa: E402  (timed: the user-visible import cost)
IMPORT_S = time.perf_counter() - _t

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import click  # noqa: E402
import numpy as np  # noqa: E402

from metric_lab import fractal_gen as fg  # noqa: E402
from metric_lab import gh_solver as ghs  # noqa: E402
from metric_lab import metric_core as mc  # noqa: E402
from metric_lab import tangent_lab as tl  # noqa: E402

import common  # noqa: E402
from common import AGREE, EXACT_BUDGET, Checks, gh_row  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# Seeded random pairs per ordered size combination (nx, ny) in 3..6 x 3..6.
EXACT_PAIRS_PER_SIZE = {"full": 100, "tiny": 1}
# The reference panel: one fixed pair per size combination, not seeded by the
# run, so that reference.json can hold its exact values.
PANEL_SEED = 20181205
# Pointed eps-net pairs: square-corner window (lambda = 1/8, h = lambda/8)
# against a model window of the same rescaled mesh.
NETS = {"full": (("half", 0.45), ("half", 0.35), ("t", 0.45)),
        "tiny": (("half", 0.45),)}


# ---------------------------------------------------------------------------
# scan: the two acceptance blow-up scans
# ---------------------------------------------------------------------------

def scan_inputs(size: str, seed: int) -> dict:
    full = size == "full"
    snow = tl.ScanConfig(
        generator=fg.FlatSnowflakeGenerator(), center=("vertex", 3, 17),
        scales=tuple(2.0 ** -k for k in range(3 if full else 7, 8)),
        window_radius=1.0, models=("line",), rule="lambda/64", seed=seed)
    corner = tl.ScanConfig(
        generator=fg.unit_square_generator(), center=(0.0, 0.0),
        scales=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5), window_radius=1.0,
        models=("quarter", "half", "t") if full else ("quarter", "half"),
        rule="lambda/16" if full else "lambda/4", seed=seed)
    return {"snowflake": snow, "corner": corner}


def scan_pass(inputs: dict, tracer) -> dict:
    out = {}
    for name, cfg in inputs.items():
        if tracer is not None:
            tracer.op = name
        try:
            out[name] = tl.tangent_scan(cfg)
        except Exception as e:  # noqa: BLE001 - a failed operation is counted
            out[name] = e
    return out


def scan_results(inputs: dict, results: dict, checks: Checks):
    """GH rows, operation seconds and failed operations; checks every row."""
    rows, seconds, failed = [], [], 0
    models: dict = {}
    for name, cfg in inputs.items():
        rep = results[name]
        if isinstance(rep, Exception):
            failed += 1
            checks.add(f"scan:{name}:ran", False, f"{type(rep).__name__}: {rep}")
            continue
        for row in rep.rows:
            h = cfg.h_of(row.lam)
            W = tl.extract_window(cfg.generator, cfg.center, row.lam,
                                  cfg.window_radius, h)
            for kind in cfg.models:
                key = (kind, cfg.window_radius, round(h / row.lam, 12))
                if key not in models:
                    models[key] = fg.model_tangent_space(kind, cfg.window_radius,
                                                         h / row.lam)
                M = models[key]
                res = row.results[kind]
                row_id = f"{name}:{row.lam:g}:{kind}"
                rows.append(gh_row("scan", row_id, W.space.n, M.space.n, res.lower,
                                   res.upper, res.exact, row.seconds[kind]))
                seconds.append(row.seconds[kind])
                half_dis = ghs.distortion_of_correspondence(
                    W.space, M.space, res.witness) / 2.0
                checks.add(f"scan:{row_id}:witness",
                           abs(half_dis - res.upper) <= AGREE
                           and res.lower <= res.upper + AGREE,
                           f"dis/2 {half_dis!r} upper {res.upper!r} lower {res.lower!r}")
        if name == "corner":
            v = rep.verdict
            final = rep.rows[-1].results["quarter"].upper
            limit = 4.0 * cfg.h_of(cfg.scales[-1]) / cfg.scales[-1]
            checks.add("scan:corner:verdict",
                       v is not None and v.best_model == "quarter" and v.conclusive
                       and final <= limit,
                       f"verdict {v}, final quarter upper {final!r} (limit {limit})")
        else:
            ups = [row.results["line"].upper for row in rep.rows]
            steps = sum(1 for u, w in zip(ups, ups[1:]) if w > u + AGREE)
            checks.add("scan:snowflake:trend", steps <= 1 and ups[-1] <= 0.05,
                       f"uppers {ups}, {steps} non-monotone steps")
    return rows, seconds, failed


# ---------------------------------------------------------------------------
# exact: many small exact solves plus three pointed eps-net pairs
# ---------------------------------------------------------------------------

def random_space(rng, n):
    """Uniform points in the unit square, as in the acceptance tests."""
    pts = rng.random((n, 2))
    return mc.FiniteMetricSpace(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))


def reference_panel():
    rng = np.random.default_rng(PANEL_SEED)
    return [(f"panel:{nx}x{ny}", random_space(rng, nx), random_space(rng, ny))
            for nx, ny in itertools.product(range(3, 7), repeat=2)]


def net_pairs(size: str):
    corner = tl.extract_window(fg.unit_square_generator(), (0.0, 0.0),
                               1 / 8, 1.0, 1 / 64)
    models = {}
    out = []
    for kind, eps in NETS[size]:
        if kind not in models:
            models[kind] = fg.model_tangent_space(kind, 1.0, 1 / 8)
        X, Y = (W.space.submatrix(mc.epsilon_net(W.space, eps, start=W.base))
                for W in (corner, models[kind]))
        out.append((f"net:{kind}:{eps}", X, Y))
    return out


def exact_inputs(size: str, seed: int) -> list:
    """(row id, X, Y, base pair) for every solve of the batch."""
    rng = np.random.default_rng(seed)
    sizes = list(itertools.product(range(3, 7), repeat=2)) * EXACT_PAIRS_PER_SIZE[size]
    order = rng.permutation(len(sizes))
    ops = [(f"rand{i}:{sizes[k][0]}x{sizes[k][1]}", random_space(rng, sizes[k][0]),
            random_space(rng, sizes[k][1]), None) for i, k in enumerate(order)]
    ops += [(rid, X, Y, None) for rid, X, Y in reference_panel()]
    ops += [(rid, X, Y, (0, 0)) for rid, X, Y in net_pairs(size)]
    return ops


def exact_pass(inputs: list, tracer, seed: int) -> list:
    out = []
    for rid, X, Y, base in inputs:
        if tracer is not None:
            tracer.op = rid
        t0 = time.perf_counter()
        try:
            res = ghs.gh_exact_small(X, Y, budget=EXACT_BUDGET, base_pair=base,
                                     seed=seed)
        except Exception as e:  # noqa: BLE001 - a failed operation is counted
            res = e
        out.append((res, time.perf_counter() - t0))
    return out


def exact_results(inputs: list, results: list, checks: Checks, reference: dict):
    rows, seconds, failed = [], [], 0
    for (rid, X, Y, _base), (res, secs) in zip(inputs, results):
        if isinstance(res, Exception):
            failed += 1
            checks.add(f"exact:{rid}:ran", False, f"{type(res).__name__}: {res}")
            continue
        rows.append(gh_row("exact", rid, X.n, Y.n, res.lower, res.upper, res.exact, secs))
        seconds.append(secs)
        half_dis = ghs.distortion_of_correspondence(X, Y, res.witness) / 2.0
        ok = abs(half_dis - res.upper) <= AGREE and res.lower <= res.upper + AGREE
        if res.exact is not None:
            ok = ok and res.lower - AGREE <= res.exact <= res.upper + AGREE
        checks.add(f"exact:{rid}:bounds", ok,
                   f"lower {res.lower!r} exact {res.exact!r} upper {res.upper!r} "
                   f"dis/2 {half_dis!r}")
        if rid in reference:
            want = reference[rid]
            checks.add(f"exact:{rid}:reference",
                       res.exact is not None and abs(res.exact - want) <= AGREE,
                       f"exact {res.exact!r} vs reference {want!r}")
    return rows, seconds, failed


# ---------------------------------------------------------------------------
# cli, in-process through the click entry point, the way `reproduce` runs
# experiments (traced runs only; run.py starts untraced cli experiments as
# subprocesses)
# ---------------------------------------------------------------------------

def cli_pass(experiments: list, workdir: str, tracer) -> list:
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    old = os.getcwd()
    os.chdir(workdir)
    out = []
    try:
        with contextlib.redirect_stdout(sys.stderr):
            for exp in experiments:
                if tracer is not None:
                    tracer.op = exp["name"]
                t0 = time.perf_counter()
                code = _invoke(exp["argv"])
                out.append((code, time.perf_counter() - t0))
    finally:
        os.chdir(old)
    return out


def _invoke(argv) -> int:
    """Exit code of one experiment, the way `python -m metric_lab.cli` sets it."""
    try:
        metric_lab.cli.main.main(args=list(argv), standalone_mode=False)
    except click.ClickException as e:
        return e.exit_code
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except Exception:  # noqa: BLE001 - a failed operation is counted
        return 1
    return 0


def cli_results(experiments: list, results: list, checks: Checks,
                reference: dict, workdir: str):
    for exp, (code, _) in zip(experiments, results):
        common.check_cli_outputs(checks, exp, code, reference, workdir)
    return (common.cli_gh_rows(workdir, experiments),
            [secs for code, secs in results if code == 0],
            sum(1 for code, _ in results if code != 0))


# ---------------------------------------------------------------------------

def workload(args, checks: Checks, reference: dict):
    """Build the inputs; return (one pass over them, its summary).

    one_pass(tracer) runs the batch; summarize(results) checks the results
    and returns (GH rows, seconds per operation, failed operations).
    """
    if args.workload == "scan":
        inputs = scan_inputs(args.size, args.seed)
        return (lambda tracer: scan_pass(inputs, tracer),
                lambda res: scan_results(inputs, res, checks))
    if args.workload == "exact":
        inputs = exact_inputs(args.size, args.seed)
        return (lambda tracer: exact_pass(inputs, tracer, args.seed),
                lambda res: exact_results(inputs, res, checks, reference["exact"]))
    experiments = common.cli_experiments(args.size)
    workdir = os.path.join(common.WORK, "cli-inprocess")
    return (lambda tracer: cli_pass(experiments, workdir, tracer),
            lambda res: cli_results(experiments, res, checks, reference["cli"], workdir))


def run_workload(args) -> dict:
    reference = common.load_json(common.REFERENCE)
    checks = Checks()
    checks.add("env:metric_lab_from_src",
               os.path.dirname(os.path.dirname(os.path.abspath(metric_lab.__file__)))
               == common.SRC, metric_lab.__file__)
    one_pass, summarize = workload(args, checks, reference)
    if args.mode == "setup":
        return {}

    def timed(tracer=None):
        t0 = time.perf_counter()
        res = one_pass(tracer)
        return res, time.perf_counter() - t0

    out = {}
    if args.mode == "run":
        walls, seconds, failed, rows = [], [], 0, None
        while not walls or sum(walls) < args.seconds:
            res, wall = timed()
            batch_rows, batch_seconds, batch_failed = summarize(res)
            walls.append(wall)
            seconds += batch_seconds
            failed += batch_failed
            if rows is None:
                rows = batch_rows
            else:
                checks.add(f"repeat{len(walls)}:identical",
                           _bounds_of(rows) == _bounds_of(batch_rows))
        out.update(walls=walls, op_seconds=seconds, ops=len(seconds) + failed,
                   ops_failed=failed, rows=rows)
    else:
        _, untraced = timed()
        tracer = Tracer()
        tracer.install()
        try:
            res, wall = timed(tracer)
        finally:
            tracer.uninstall()
        rows, seconds, failed = summarize(res)
        layers = layer_metrics(tracer, wall, untraced, ghs.distortion_of_correspondence)
        layers["cli.import_s"] = (IMPORT_S, "s")
        tracer.write(os.path.join(common.WORK, "traces",
                                  f"{args.workload}-seed{args.seed}.json"))
        out.update(walls=[wall], op_seconds=seconds, ops=len(seconds) + failed,
                   ops_failed=failed, rows=rows, layers=layers)
    out["checks"] = checks.items
    return out


def _bounds_of(rows):
    return [(r["row"], r["lower"], r["upper"], r["exact"]) for r in rows]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run", "trace"))
    p.add_argument("--workload", required=True, choices=common.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--size", choices=common.SIZES, default="full")
    args = p.parse_args(argv)
    out = run_workload(args)
    if args.mode != "setup":
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
