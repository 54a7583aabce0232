"""Standard-library helpers shared by run.py and the workload child (child.py).

Nothing here imports numpy or metric_lab, so run.py measures the lab only
through the child processes it starts.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import statistics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
ACCEPTANCE_MANIFEST = os.path.join(ROOT, "manifests", "acceptance.json")
GEN_MANIFEST = os.path.join(BENCH_DIR, "gen_manifest.json")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

WORKLOADS = ("scan", "exact", "cli")
SIZES = ("full", "tiny")

# The tiny cli batch: cheap acceptance experiments, one of each command kind
# that needs no large generated input.
TINY_CLI = ("quarter-model", "gh-self", "snowflake-pair", "snowflake-envelope",
            "boundary-expansion")

# Budget of the exact search in every exact-workload call: the CLI default.
EXACT_BUDGET = 200_000
# Closeness of two GH values that must agree (witness re-evaluation, references).
AGREE = 1e-12


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def cli_experiments(size: str = "full") -> list:
    """The cli workload: every acceptance experiment, then the benchmark's own
    generation manifest, in that order."""
    exps = load_json(ACCEPTANCE_MANIFEST)["experiments"]
    exps = exps + load_json(GEN_MANIFEST)["experiments"]
    if size == "tiny":
        exps = [e for e in exps if e["name"] in TINY_CLI]
    return exps


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Checks:
    """Correctness checks of one run; each check is one operation."""

    def __init__(self):
        self.items: list = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})


def check_cli_outputs(checks: Checks, exp: dict, returncode, reference: dict,
                      workdir: str) -> None:
    """Exit code 0 and byte-identical outputs against the recorded checksums."""
    name = exp["name"]
    checks.add(f"cli:{name}:exit", returncode == 0, f"exit code {returncode}")
    for path in exp.get("outputs", []):
        full = os.path.join(workdir, path)
        want = reference.get(path)
        got = sha256(full) if os.path.exists(full) else None
        checks.add(f"cli:{name}:{path}", got is not None and got == want,
                   f"sha256 {got} vs reference {want}")


def cli_gh_rows(workdir: str, experiments: list) -> list:
    """GH rows written by the cli workload: the gh JSON and the scan CSV.

    Row seconds are not observable here: deterministic mode writes 0 in the
    scan's seconds column, so they are left empty.
    """
    rows = []
    for exp in experiments:
        argv = exp["argv"]
        out = _option(argv, "--out")
        if out is None or not os.path.exists(os.path.join(workdir, out)):
            continue
        if argv[0] == "gh":
            res = load_json(os.path.join(workdir, out))
            nx = len(load_json(os.path.join(workdir, _option(argv, "--x")))["dist"])
            ny = len(load_json(os.path.join(workdir, _option(argv, "--y")))["dist"])
            rows.append(gh_row("cli", exp["name"], nx, ny, res["lower"],
                               res["upper"], res["exact"], None))
        elif argv[0] == "scan":
            with open(os.path.join(workdir, out)) as fh:
                for rec in csv.DictReader(fh):
                    rows.append(gh_row(
                        "cli", f"{exp['name']}:{rec['lambda']}:{rec['model']}",
                        int(rec["points"]), None, float(rec["lower"]),
                        float(rec["upper"]), None, None))
    return rows


def _option(argv: list, flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def gh_row(workload, row, nx, ny, lower, upper, exact, seconds) -> dict:
    return {"workload": workload, "row": row, "nx": nx, "ny": ny,
            "lower": lower, "upper": upper, "exact": exact, "seconds": seconds}


def gh_sums(rows: list) -> tuple:
    """(sum of uppers, sum of upper - lower counting exact rows as 0, exact rows)."""
    upper = sum(r["upper"] for r in rows)
    gap = sum(0.0 if r["exact"] is not None else r["upper"] - r["lower"]
              for r in rows)
    exact = sum(1 for r in rows if r["exact"] is not None)
    return upper, gap, exact


def quantile(values, q: float) -> float:
    """Inclusive-method quantile; q in (0, 1).  0 when every operation failed."""
    values = sorted(values)
    if len(values) <= 1:
        return float(values[0]) if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])
