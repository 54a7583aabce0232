"""Record perfbench/reference.json from the current source tree.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes the exact GH values of the fixed reference panel and of the net pair
that closes within the budget, and the sha256 of every cli-workload output.
The panel values are checked against the exhaustive oracle by
perfbench/test_perfbench.py; record again only when a change is meant to
alter these outputs.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import child
import common
import run
from metric_lab import gh_solver as ghs


def exact_reference() -> dict:
    ref = {}
    for rid, X, Y in child.reference_panel():
        ref[rid] = ghs.gh_exact_small(X, Y, budget=common.EXACT_BUDGET).exact
    for rid, X, Y in child.net_pairs("full"):
        res = ghs.gh_exact_small(X, Y, budget=common.EXACT_BUDGET, base_pair=(0, 0))
        if res.exact is not None:
            ref[rid] = res.exact
    return ref


def cli_reference() -> dict:
    workdir = os.path.join(common.WORK, "record")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    sums = {}
    for exp in common.cli_experiments():
        code, _, _, _ = run.spawn([sys.executable, "-m", "metric_lab.cli", *exp["argv"]],
                                  workdir, run.child_env(deterministic=True))
        if code != 0:
            raise SystemExit(f"{exp['name']} exited {code}")
        for path in exp["outputs"]:
            sums[path] = common.sha256(os.path.join(workdir, path))
    return sums


def main() -> int:
    ref = {"exact": exact_reference(), "cli": cli_reference()}
    with open(common.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {common.REFERENCE}: {len(ref['exact'])} exact values, "
          f"{len(ref['cli'])} checksums")
    return 0


if __name__ == "__main__":
    sys.exit(main())
