"""metric-lab benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload scan|exact|cli --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source tree.  The code measured is that tree's src/
(PYTHONPATH=src), never an installed copy.  This process uses only the
standard library and runs one child process at a time:

  --trace 0  set-up is timed in fresh interpreters (import metric_lab.cli and
             build the inputs), then the workload runs whole batches until
             --seconds are measured; prints every end-to-end metric.
  --trace 1  one child runs the batch untraced, then traced with spans around
             every public function of the lab; prints every per-layer metric.

Correctness checks run outside the timed region; a failed check counts as a
failed operation and never stops the run.  Human-readable lines come first;
the last line of stdout is one JSON object.  A results file with the metrics,
the environment and the per-row GH table is written under .perfbench/.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import common
from common import Checks

SETUP_REPEATS = 3  # set-up is timed this many times per run; the median is reported
CHILD = os.path.join(common.BENCH_DIR, "child.py")


def child_env(deterministic: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = common.SRC
    env.pop("METRIC_LAB_THREADS", None)
    env.pop("METRIC_LAB_DETERMINISTIC", None)
    if deterministic:
        env["METRIC_LAB_DETERMINISTIC"] = "1"
    return env


def spawn(argv: list, cwd: str, env: dict, capture: bool = False):
    """Run one child to completion: (exit code, wall seconds, max RSS in MB, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    out = proc.stdout.read() if capture else b""
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if capture:
        proc.stdout.close()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out.decode()


def run_child(mode: str, args) -> tuple:
    argv = [sys.executable, CHILD, mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--size", args.size]
    env = child_env(deterministic=args.workload == "cli")
    code, wall, rss, out = spawn(argv, common.ROOT, env, capture=True)
    if code != 0:
        raise SystemExit(f"perfbench: {args.workload} child ({mode}) exited {code}")
    return json.loads(out.strip().splitlines()[-1]) if out.strip() else {}, wall, rss


def setup_seconds(args) -> list:
    walls = []
    for _ in range(SETUP_REPEATS):
        walls.append(run_child("setup", args)[1])
    return walls


def cli_batches(args) -> dict:
    """Each experiment as its own `python -m metric_lab.cli` process."""
    reference = common.load_json(common.REFERENCE)["cli"]
    experiments = common.cli_experiments(args.size)
    workdir = os.path.join(common.WORK, "cli")
    env = child_env(deterministic=True)
    checks = Checks()
    walls, seconds, failed, peak, rows = [], [], 0, 0.0, None
    while not walls or sum(walls) < args.seconds:
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        batch = 0.0
        for exp in experiments:
            code, wall, rss, _ = spawn(
                [sys.executable, "-m", "metric_lab.cli", *exp["argv"]], workdir, env)
            batch += wall
            seconds.append(wall)
            peak = max(peak, rss)
            failed += code != 0
            common.check_cli_outputs(checks, exp, code, reference, workdir)
        walls.append(batch)
        if rows is None:
            rows = common.cli_gh_rows(workdir, experiments)
    return {"walls": walls, "op_seconds": seconds, "ops": len(seconds),
            "ops_failed": failed, "rows": rows, "checks": checks.items,
            "peak_rss_mb": peak}


def environment(args) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = None
    if os.path.isdir(os.path.join(common.ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                                capture_output=True, text=True).stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **versions, "commit": commit, "seed": args.seed,
            "pythonpath": "src", "METRIC_LAB_THREADS": "unset",
            "machine": platform.machine()}


def end_to_end(res: dict, setup: list) -> dict:
    upper, gap, _ = common.gh_sums(res["rows"])
    ops = res["op_seconds"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(res["walls"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "op_p50_s": (common.quantile(ops, 0.5), "s"),
        "gh_upper_sum": (upper, "distance"),
        "gh_gap_sum": (gap, "distance"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=common.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole batches until this much time is measured")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=common.SIZES, default="full",
                   help="tiny: a few seconds per workload, for the self-tests")
    args = p.parse_args(argv)

    for need in (os.path.join(common.SRC, "metric_lab", "cli.py"),
                 common.ACCEPTANCE_MANIFEST):
        if not os.path.exists(need):
            print(f"perfbench: {need} is missing; run from a metric-lab source tree",
                  file=sys.stderr)
            return 2

    env = environment(args)
    if args.trace:
        res, _, _ = run_child("trace", args)
        metrics = dict(res["layers"])
    else:
        setup = setup_seconds(args)
        if args.workload == "cli":
            res = cli_batches(args)
        else:
            res, _, rss = run_child("run", args)
            res["peak_rss_mb"] = rss
        metrics = end_to_end(res, setup)

    checks = res["checks"]
    checks_failed = sum(1 for c in checks if not c["ok"])
    attempted = res["ops"] + len(checks)
    failed = res["ops_failed"] + checks_failed
    _, _, exact_rows = common.gh_sums(res["rows"])
    rows = len(res["rows"])
    # Reported on every run, but not bounded: p90 has ten samples beyond it
    # only on exact, and the fractions are 0 on some workloads.
    extra = {"op_p90_s": (common.quantile(res["op_seconds"], 0.9), "s"),
             "exact_frac": (exact_rows / rows if rows else 0.0, "ratio"),
             "failed_frac": (failed / attempted, "ratio")}
    if args.trace:
        metrics.update(extra)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "environment": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                          {**metrics, **extra}.items()},
              "operations": res["ops"], "operations_failed": res["ops_failed"],
              "checks": len(checks), "checks_failed": checks_failed,
              "failed_checks": [c for c in checks if not c["ok"]],
              "batches_s": res["walls"], "gh_rows": res["rows"]}
    results = os.path.join(common.WORK, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(results), exist_ok=True)
    with open(results, "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")
    print(f"  operations {res['ops']} ({res['ops_failed']} failed), checks "
          f"{len(checks)} ({checks_failed} failed), GH rows {rows} "
          f"({exact_rows} exact), batches {len(res['walls'])}")
    for c in report["failed_checks"]:
        print(f"  FAILED {c['name']}: {c['detail']}")
    print(f"  results: {os.path.relpath(results, common.ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
