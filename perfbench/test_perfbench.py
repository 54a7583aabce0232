"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs at a tiny size in both modes; a wrong reference value must
show up as a failed operation in the result, not as a crash; the reference
panel must agree with the exhaustive oracle of the test suite.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import child
import common

sys.path.insert(0, common.ROOT)
from tests.oracles import gh_exhaustive  # noqa: E402

SPEC = common.load_json(os.path.join(common.ROOT, "BENCHMARK.json"))


def bench(root: str, workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_tiny_workload_reports_every_metric(workload, trace):
    res = result_of(bench(common.ROOT, workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_reference_panel_matches_exhaustive_oracle():
    reference = common.load_json(common.REFERENCE)["exact"]
    panel = child.reference_panel()
    assert len(panel) == 16
    for rid, X, Y in panel:
        assert abs(reference[rid] - gh_exhaustive(X, Y)) <= common.AGREE, rid


def _copy_tree(tmp_path, with_source: bool) -> str:
    root = str(tmp_path / "tree")
    os.makedirs(root)
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), root)
    shutil.copytree(common.BENCH_DIR, os.path.join(root, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        for name in ("src", "manifests"):
            os.symlink(os.path.join(common.ROOT, name), os.path.join(root, name))
    return root


@pytest.mark.parametrize("workload, key", [("exact", "panel:4x5"),
                                           ("cli", "out/gh.json")])
def test_wrong_reference_is_a_failed_operation(tmp_path, workload, key):
    root = _copy_tree(tmp_path, with_source=True)
    path = os.path.join(root, "perfbench", "reference.json")
    ref = common.load_json(path)
    section = ref[workload]
    section[key] = section[key] + 1e-9 if workload == "exact" else "0" * 64
    with open(path, "w") as fh:
        json.dump(ref, fh)
    res = result_of(bench(root, workload, 0))
    assert not res["correct"]
    assert res["failed"] == 1 and res["attempted"] > 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    root = _copy_tree(tmp_path, with_source=False)
    proc = bench(root, "scan", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
