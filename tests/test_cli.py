"""CLI tests: exit codes, file artifacts, determinism of the reproduce runner."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import metric_lab
from metric_lab import errors, metric_core
from metric_lab.cli import (GEN_KINDS, MAX_DEPTH, MAX_PAIR_POINTS, fmt, main, parse_center,
                            parse_number, parse_scales)
from metric_lab.fractal_gen import MODEL_KINDS
from metric_lab.metric_core import space_from_json


@pytest.fixture
def runner():
    return CliRunner()


def write_small_space(path):
    obj = {"labels": [0, 1, 2], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
    path.write_text(json.dumps(obj))


class TestParsers:
    def test_fractions_and_powers(self):
        assert parse_number("1/64") == pytest.approx(1 / 64)
        assert parse_number("2^-5") == pytest.approx(2.0 ** -5)
        assert parse_number("0.25") == 0.25

    def test_scale_range(self):
        assert parse_scales("2^-3..2^-5") == [2.0 ** -3, 2.0 ** -4, 2.0 ** -5]
        assert parse_scales("0.5,0.25") == [0.5, 0.25]

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "1/1e-320", "2^2000"])
    def test_non_finite_numbers_are_refused(self, text):
        with pytest.raises(click.UsageError):
            parse_number(text)

    @pytest.mark.parametrize("text", ["-2^0.5", "-0.5^-0.5", "1/-2^0.5"])
    def test_non_real_powers_are_refused(self, text):
        # (-2.0) ** 0.5 is complex; math.isfinite used to raise TypeError on it
        with pytest.raises(click.UsageError, match="not real"):
            parse_number(text)

    def test_center_forms(self):
        assert parse_center("0.5,0") == (0.5, 0.0)
        assert parse_center("vertex:3:17") == ("vertex", 3, 17)


class TestGen:
    def test_slit_carpet_roundtrip(self, runner, tmp_path):
        out = tmp_path / "carpet.json"
        result = runner.invoke(main, ["gen", "--kind", "slit-carpet",
                                      "--r", "0.5,0.5", "--h", "1/16",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out) as fh:
            space = space_from_json(json.load(fh))
        assert space.n > 0

    @pytest.mark.parametrize("argv", [
        ["slit-carpet", "--r", "harmonic", "--levels", "2", "--h", "1/16"],
        ["slit-carpet", "--r", "harmonic", "--levels", "2", "--h", "1/32"],
        ["pillow-carpet", "--r", "harmonic", "--levels", "2", "--h", "1/16"],
        # on the mesh 0.1 Dijkstra's sums differ from rint(d / h) * h within TOL/4
        ["slit-carpet", "--r", "0.5", "--h", "0.1"],
        ["model-t", "--radius", "1", "--h", "1/16"],
    ], ids=["slit-1/16", "slit-1/32", "pillow-1/16", "slit-0.1", "model-t-1/16"])
    def test_whole_carpets_are_certified_without_the_triangle_scan(self, runner, tmp_path,
                                                                   monkeypatch, argv):
        # the `reproduce` carpet, the benchmark's two and a model window: each
        # matrix is certified from its own hop counts, and no k-slab (each one
        # an np.add into the excess buffer) is evaluated
        certified = []
        certify = metric_core._is_grid_metric
        monkeypatch.setattr(metric_core, "_is_grid_metric",
                            lambda d: certified.append(certify(d)) or certified[-1])

        class NoSlabs:
            def __getattr__(self, name):
                if name == "add":
                    raise AssertionError("a triangle slab ran on a certified space")
                return getattr(np, name)
        monkeypatch.setattr(metric_core, "np", NoSlabs())
        out = tmp_path / "space.json"
        result = runner.invoke(main, ["gen", "--kind", *argv, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert certified == [True]
        assert out.exists()

    def test_snowflake_pair_emits_three_files(self, runner, tmp_path):
        result = runner.invoke(main, [
            "gen", "--kind", "snowflake-pair", "--epsilon", "0.5",
            "--points", "10",
            "--out", str(tmp_path / "d.json"),
            "--out-codomain", str(tmp_path / "c.json"),
            "--out-map", str(tmp_path / "m.json")])
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "m.json").read_text())["assignment"] == list(range(10))

    def test_snowflake_pair_that_is_no_metric_writes_nothing(self, runner, tmp_path):
        # |x - y| ** 2 breaks the triangle inequality: the exponent is refused
        # where it enters, before any space is formed or written
        outs = [tmp_path / "d.json", tmp_path / "c.json", tmp_path / "m.json"]
        result = runner.invoke(main, [
            "gen", "--kind", "snowflake-pair", "--epsilon", "2", "--points", "5",
            "--out", str(outs[0]), "--out-codomain", str(outs[1]),
            "--out-map", str(outs[2])])
        assert result.exit_code == 1, result.output
        assert "DomainError" in result.output and "(0, 1]" in result.output
        assert not any(p.exists() for p in outs)

    def test_negative_point_count_is_exit_two(self, runner, tmp_path):
        outs = [tmp_path / "d.json", tmp_path / "c.json", tmp_path / "m.json"]
        result = runner.invoke(main, [
            "gen", "--kind", "snowflake-pair", "--points", "-1",
            "--out", str(outs[0]), "--out-codomain", str(outs[1]),
            "--out-map", str(outs[2])])
        assert result.exit_code == 2
        assert "--points" in result.output
        assert not any(p.exists() for p in outs)

    def test_non_real_mesh_is_exit_two(self, runner, tmp_path):
        out = tmp_path / "q.json"
        result = runner.invoke(main, ["gen", "--kind", "model-quarter", "--h", "-2^0.5",
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "not real" in result.output
        assert not out.exists()

    def test_negative_snowflake_stage_is_domain_failure(self, runner, tmp_path):
        out = tmp_path / "s.json"
        result = runner.invoke(main, ["gen", "--kind", "snowflake", "--stage", "-1",
                                      "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "DomainError" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("argv,error", [
        (["--kind", "slit-carpet", "--levels", "-2"], "ScheduleError"),
        (["--kind", "pillow-carpet", "--levels", "-1"], "ScheduleError"),
        (["--kind", "wu-rug", "--truncation", "-1"], "ScheduleError"),
        (["--kind", "rickman-rug", "--h", "0"], "DomainError"),
        (["--kind", "rickman-rug", "--h", "-1"], "DomainError"),
        (["--kind", "wu-rug", "--h", "-1/8"], "DomainError"),
        (["--kind", "snowflake", "--stage", "3", "--flatness", "1.5,1.5"], "ScheduleError"),
        (["--kind", "rickman-rug", "--h", "0.3"], "ResolutionError"),
        (["--kind", "rickman-rug", "--h", "10"], "ResolutionError"),
        (["--kind", "wu-rug", "--h", "2/3", "--extent", "0,1"], "ResolutionError")])
    def test_negative_count_or_rug_mesh_is_domain_failure(self, runner, tmp_path,
                                                          argv, error):
        out = tmp_path / "x.json"
        result = runner.invoke(main, ["gen", *argv, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert error in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert not out.exists()

    def test_flat_schedule_name_writes_the_bytes_of_its_values(self, runner, tmp_path):
        written = set()
        for flatness in ("1+2^-k", "1.5,1.25,1.125", "3/2,5/4,9/8"):
            out = tmp_path / "s.json"
            result = runner.invoke(main, ["gen", "--kind", "snowflake", "--stage", "3",
                                          "--flatness", flatness, "--out", str(out)])
            assert result.exit_code == 0, result.output
            written.add(out.read_bytes())
        assert len(written) == 1

    @pytest.mark.parametrize("argv,same", [
        (["--kind", "rickman-rug", "--h", "1/4", "--epsilon"], ("1/2", "2^-1", "0.5")),
        (["--kind", "model-quarter", "--h", "1/4", "--radius"], ("2^0", "4/4", "1"))])
    def test_every_real_option_takes_fractions_and_powers(self, runner, tmp_path,
                                                          argv, same):
        written = set()
        for text in same:
            out = tmp_path / "x.json"
            result = runner.invoke(main, ["gen", *argv, text, "--out", str(out)])
            assert result.exit_code == 0, result.output
            written.add(out.read_bytes())
        assert len(written) == 1

    def test_snowflake_with_the_flat_schedule(self, runner, tmp_path):
        from metric_lab.fractal_gen import snowflake_polyline
        from metric_lab.metric_core import write_space

        out, ref = tmp_path / "flat.json", tmp_path / "ref.json"
        result = runner.invoke(main, ["gen", "--kind", "snowflake", "--stage", "3",
                                      "--flatness", "1+2^-k", "--out", str(out)])
        assert result.exit_code == 0, result.output
        write_space(snowflake_polyline(3, "1+2^-k", (0.0, 1.0)), str(ref))
        assert out.read_bytes() == ref.read_bytes()
        write_space(snowflake_polyline(3, "standard", (0.0, 1.0)), str(ref))
        assert out.read_bytes() != ref.read_bytes()

    def test_resolution_error_is_domain_failure(self, runner, tmp_path):
        result = runner.invoke(main, ["gen", "--kind", "slit-carpet",
                                      "--r", "0.1", "--h", "1/8",
                                      "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 1
        assert "ResolutionError" in result.output

    def test_model_kinds_follow_the_library(self, runner):
        assert GEN_KINDS[-len(MODEL_KINDS):] == tuple(f"model-{k}" for k in MODEL_KINDS)
        result = runner.invoke(main, ["gen", "--help"])
        assert result.exit_code == 0
        assert "|".join(GEN_KINDS) in result.output.replace("\n", "").replace(" ", "")

    def test_bad_usage_is_exit_two(self, runner, tmp_path):
        result = runner.invoke(main, ["gen", "--kind", "no-such-kind",
                                      "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_model_mesh_coarser_than_radius_is_domain_failure(self, runner, tmp_path, kind):
        out = tmp_path / "x.json"
        result = runner.invoke(main, ["gen", "--kind", f"model-{kind}", "--radius", "1",
                                      "--h", "2", "--out", str(out)])
        assert result.exit_code == 1
        assert "ResolutionError" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--kind", "model-quarter", "--radius", "nan"],
                                      ["--kind", "model-quarter", "--radius", "inf"],
                                      ["--kind", "model-quarter", "--h", "nan"],
                                      ["--kind", "slit-carpet", "--h", "1/1e-320"],
                                      ["--kind", "rickman-rug", "--epsilon", "nan"]])
    def test_non_finite_geometry_is_exit_two(self, runner, tmp_path, argv):
        out = tmp_path / "x.json"
        result = runner.invoke(main, ["gen", *argv, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "Error:" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--kind", "snowflake", "--window", "0.1"],
                                      ["--kind", "rickman-rug", "--extent", "1"],
                                      ["--kind", "wu-rug", "--extent", "1"]])
    def test_unparsable_pair_is_exit_two(self, runner, tmp_path, argv):
        out = tmp_path / "x.json"
        result = runner.invoke(main, ["gen", *argv, "--out", str(out)])
        assert result.exit_code == 2
        assert argv[2] in result.output
        assert not out.exists()


class TestGh:
    def test_identical_spaces_give_exact_zero(self, runner, tmp_path):
        a = tmp_path / "a.json"
        write_small_space(a)
        out = tmp_path / "gh.json"
        result = runner.invoke(main, ["gh", "--x", str(a), "--y", str(a),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "exact 0" in result.output
        payload = json.loads(out.read_text())
        assert payload["exact"] == 0.0
        assert payload["lower"] == 0.0 and payload["upper"] == 0.0

    def test_malformed_json_gives_exit_two_with_position(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"labels": [0, 1], "dist": [[0, 1], [1 0]]}')
        result = runner.invoke(main, ["gh", "--x", str(bad), "--y", str(bad)])
        assert result.exit_code == 2
        assert "line" in result.output and "column" in result.output

    def test_pointed_needs_both_bases(self, runner, tmp_path):
        a = tmp_path / "a.json"
        write_small_space(a)
        result = runner.invoke(main, ["gh", "--x", str(a), "--y", str(a),
                                      "--base-x", "0"])
        assert result.exit_code == 2


    @pytest.mark.parametrize("base_x,base_y,side", [("999", "0", "X"), ("-1", "0", "X"),
                                                     ("0", "3", "Y"), ("0", "-1", "Y")])
    def test_base_index_out_of_range_is_domain_failure(self, runner, tmp_path,
                                                       base_x, base_y, side):
        a = tmp_path / "a.json"
        write_small_space(a)
        out = tmp_path / "gh.json"
        result = runner.invoke(main, ["gh", "--x", str(a), "--y", str(a),
                                      "--base-x", base_x, "--base-y", base_y,
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert f"outside 0..2 of {side}" in result.output
        assert not out.exists()

    def test_negative_budget_is_exit_two(self, runner, tmp_path):
        a = tmp_path / "a.json"
        write_small_space(a)
        out = tmp_path / "gh.json"
        result = runner.invoke(main, ["gh", "--x", str(a), "--y", str(a), "--exact",
                                      "--budget", "-5", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "--budget" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("ny,verdict", [(20, "gh exact 0"), (21, "gh lower")])
    def test_auto_runs_the_exact_search_iff_nx_ny_at_most_400(self, runner, tmp_path,
                                                              ny, verdict):
        for name, n in (("x.json", 20), ("y.json", ny)):
            xs = np.arange(n, dtype=float)
            (tmp_path / name).write_text(json.dumps(
                {"labels": list(range(n)), "dist": np.abs(xs[:, None] - xs).tolist()}))
        result = runner.invoke(main, ["gh", "--x", str(tmp_path / "x.json"),
                                      "--y", str(tmp_path / "y.json")])
        assert result.exit_code == 0, result.output
        assert result.output.startswith(verdict)


class TestQs:
    def test_snowflake_envelope_csv(self, runner, tmp_path):
        runner.invoke(main, [
            "gen", "--kind", "snowflake-pair", "--points", "12",
            "--out", str(tmp_path / "d.json"),
            "--out-codomain", str(tmp_path / "c.json"),
            "--out-map", str(tmp_path / "m.json")])
        out = tmp_path / "env.csv"
        result = runner.invoke(main, ["qs", "--domain", str(tmp_path / "d.json"),
                                      "--codomain", str(tmp_path / "c.json"),
                                      "--map", str(tmp_path / "m.json"),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,s"
        t, s = map(float, lines[-1].split(","))
        assert s == pytest.approx(t ** 0.5, rel=1e-9)

    def test_non_integer_budget_is_exit_two(self, runner, tmp_path):
        write_small_space(tmp_path / "d.json")
        (tmp_path / "m.json").write_text(json.dumps({"assignment": [0, 1, 2]}))
        result = runner.invoke(main, ["qs", "--domain", str(tmp_path / "d.json"),
                                      "--codomain", str(tmp_path / "d.json"),
                                      "--map", str(tmp_path / "m.json"),
                                      "--budget", "abc", "--out", str(tmp_path / "e.csv")])
        assert result.exit_code == 2
        assert "--budget" in result.output
        assert not (tmp_path / "e.csv").exists()

    def test_budget_below_one_is_domain_failure(self, runner, tmp_path):
        write_small_space(tmp_path / "d.json")
        (tmp_path / "m.json").write_text(json.dumps({"assignment": [0, 1, 2]}))
        result = runner.invoke(main, ["qs", "--domain", str(tmp_path / "d.json"),
                                      "--codomain", str(tmp_path / "d.json"),
                                      "--map", str(tmp_path / "m.json"),
                                      "--budget", "-3", "--out", str(tmp_path / "e.csv")])
        assert result.exit_code == 1, result.output
        assert "DomainError" in result.output
        assert not (tmp_path / "e.csv").exists()


class TestBoundary:
    def test_probe_reports_exact_doubling(self, runner, tmp_path):
        out = tmp_path / "b.json"
        result = runner.invoke(main, ["boundary", "--rank", "2", "--depth", "5",
                                      "--cylinder", "a:2", "--probe-expansion",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["expansion"]["min"] == 4.0
        assert payload["expansion"]["max"] == 4.0
        assert payload["cylinder"]["diameter"] == 0.25

    @pytest.mark.parametrize("base", ["0.5", "1"])
    def test_visual_parameter_at_most_one_is_domain_failure(self, runner, tmp_path, base):
        out = tmp_path / "b.json"
        result = runner.invoke(main, ["boundary", "--base", base, "--cylinder", "a:2",
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert "visual parameter must exceed 1" in result.output
        assert not out.exists()

    def test_negative_cylinder_depth_is_exit_two(self, runner, tmp_path):
        out = tmp_path / "b.json"
        result = runner.invoke(main, ["boundary", "--cylinder", "a:-1", "--probe-expansion",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "non-negative" in result.output
        assert not out.exists()

    def test_prefix_deeper_than_truncation_is_domain_failure(self, runner, tmp_path):
        out = tmp_path / "b.json"
        result = runner.invoke(main, ["boundary", "--depth", "1", "--cylinder", "ab:1",
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert "exceeds word depth" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("rank", ["0", "-1", "27"])
    def test_rank_outside_the_alphabet_is_exit_two(self, runner, tmp_path, rank):
        out = tmp_path / "b.json"
        result = runner.invoke(main, ["boundary", "--rank", rank, "--cylinder", "a:1",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "--rank" in result.output
        assert not out.exists()

    def test_rank_26_names_its_last_generator_z(self, runner, tmp_path):
        out = tmp_path / "b.json"
        result = runner.invoke(main, ["boundary", "--rank", "26", "--depth", "2",
                                      "--cylinder", "Z:1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["cylinder"]["points"] == 51

    def test_non_integer_count_is_exit_two(self, runner, tmp_path):
        out = tmp_path / "b.json"
        result = runner.invoke(main, ["boundary", "--cylinder", "a:2", "--count", "abc",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "--count" in result.output
        assert not out.exists()


class TestScan:
    def test_square_corner_scan_csv(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["scan", "--space", "square",
                                      "--center", "0,0",
                                      "--scales", "2^-3..2^-5",
                                      "--radius", "1", "--models", "quarter,half",
                                      "--rule", "lambda/8", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "quarter" in result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,model,lower,upper,points,seconds"
        assert len(lines) == 1 + 3 * 2

    def test_memo_keeps_the_csv_bytes_and_reports_reuse(self, runner, tmp_path,
                                                        monkeypatch):
        # the acceptance manifest's corner-scan, checksum recorded before the memo
        monkeypatch.setenv("METRIC_LAB_DETERMINISTIC", "1")
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["scan", "--space", "square", "--center", "0,0",
                                      "--scales", "2^-3..2^-5", "--radius", "1",
                                      "--models", "quarter,half", "--rule", "lambda/8",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output.rstrip().endswith("(reused 4 of 6 GH solves)")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "972f41491f92f7a65f9d9960cac50c27d43bdaebbfe8ff95e977d8de7edc406b")

    def test_carpet_scan_on_a_non_dyadic_mesh(self, runner, tmp_path):
        # h = lambda/10 = 1/80, ...: 24 * (1/80) != 0.3 in floats, yet (0.3, 0)
        # is a node of every mesh, as it is for the square
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["scan", "--space", "slit-carpet", "--r", "0.5",
                                      "--levels", "1", "--center", "0.3,0",
                                      "--scales", "2^-3..2^-5", "--radius", "1",
                                      "--models", "half", "--rule", "lambda/10",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert len(out.read_text().strip().splitlines()) == 1 + 3

    def test_flat_snowflake_scan_csv_matches_the_library_scan(self, runner, tmp_path):
        from metric_lab.fractal_gen import FlatSnowflakeGenerator
        from metric_lab.tangent_lab import ScanConfig, tangent_scan

        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["scan", "--space", "flat-snowflake",
                                      "--center", "vertex:3:17", "--scales", "2^-3..2^-4",
                                      "--radius", "2/2", "--models", "line",
                                      "--rule", "lambda/16", "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = tangent_scan(ScanConfig(
            generator=FlatSnowflakeGenerator(), center=("vertex", 3, 17),
            scales=(2.0 ** -3, 2.0 ** -4), window_radius=1.0, models=("line",),
            rule="lambda/16"))
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [(r[1], r[2], r[3], r[4]) for r in rows] == [
            ("line", fmt(row.results["line"].lower), fmt(row.results["line"].upper),
             str(row.points)) for row in report.rows]

    @pytest.mark.parametrize("option,value", [
        ("--radius", "nan"), ("--radius", "inf"), ("--center", "nan,0"),
        ("--scales", "0.5,nan"), ("--scales", "0.5,1e400"), ("--scales", "2^2000..2^1999")])
    def test_non_finite_geometry_is_exit_two(self, runner, tmp_path, option, value):
        out = tmp_path / "scan.csv"
        argv = {"--space": "square", "--center": "0,0", "--scales": "2^-3..2^-5",
                "--models": "quarter", "--out": str(out), option: value}
        result = runner.invoke(main, ["scan", *(t for kv in argv.items() for t in kv)])
        assert result.exit_code == 2, result.output
        assert "Error:" in result.output
        assert not out.exists()

    def test_short_flatness_schedule_is_domain_failure(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["scan", "--space", "flat-snowflake", "--flatness", "1.5",
                                      "--center", "0,0", "--scales", "2^-3..2^-4",
                                      "--models", "line", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "ScheduleError" in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert not out.exists()

    @pytest.mark.parametrize("center,scales,rule", [
        pytest.param("0,0", "2^-x..2^-5", "lambda/8", id="0,0-2^-x..2^-5"),
        pytest.param("vertex:3:x", "2^-3..2^-5", "lambda/8", id="vertex:3:x-2^-3..2^-5"),
        pytest.param("vertex:3", "2^-3..2^-5", "lambda/8", id="vertex:3-2^-3..2^-5"),
        pytest.param("0,0", "2^-3..2^-5", "lambda/abc", id="rule-lambda/abc")])
    def test_unparsable_center_or_scales_is_exit_two(self, runner, tmp_path, center,
                                                     scales, rule):
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["scan", "--space", "square", "--center", center,
                                      "--scales", scales, "--radius", "1",
                                      "--models", "quarter", "--rule", rule,
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "Error:" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("models,rule,option", [
        ("quarter", "foo", "--rule"), ("quarter", "lambda/0", "--rule"),
        ("quarter", "lambda/-8", "--rule"), ("quarter", "lambda/inf", "--rule"),
        ("quarter", "lambda/nan", "--rule"), ("wedge", "lambda/8", "--models"),
        ("half,wedge", "lambda/8", "--models"), ("half,", "lambda/8", "--models"),
        ("Quarter", "lambda/8", "--models"), ("quarter,HALF", "lambda/8", "--models")])
    def test_unknown_rule_or_model_is_exit_two(self, runner, tmp_path, models, rule,
                                               option):
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["scan", "--space", "square", "--center", "0,0",
                                      "--scales", "2^-3..2^-5", "--models", models,
                                      "--rule", rule, "--out", str(out)])
        assert result.exit_code == 2
        assert option in result.output
        assert "DomainError" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("space", ["square", "half"])
    def test_mesh_coarser_than_window_is_domain_failure(self, runner, tmp_path, space):
        # rule lambda/0.5 asks for h = 2 lambda, twice the window radius
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["scan", "--space", space, "--center", "0,0",
                                      "--scales", "2^-1..2^-3", "--models", "half",
                                      "--rule", "lambda/0.5", "--out", str(out)])
        assert result.exit_code == 1
        assert "ResolutionError" in result.output
        assert not out.exists()


class TestReproduce:
    def manifest(self, tmp_path):
        return {
            "experiments": [
                {"name": "carpet",
                 "argv": ["gen", "--kind", "slit-carpet", "--r", "0.5",
                          "--h", "1/8", "--out", str(tmp_path / "carpet.json")],
                 "outputs": [str(tmp_path / "carpet.json")]},
                {"name": "gh-self",
                 "argv": ["gh", "--x", str(tmp_path / "carpet.json"),
                          "--y", str(tmp_path / "carpet.json"),
                          "--no-exact", "--out", str(tmp_path / "gh.json")],
                 "outputs": [str(tmp_path / "gh.json")]},
            ]
        }

    def test_empty_manifest_ok(self, runner, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"experiments": []}))
        idx = tmp_path / "index.json"
        result = runner.invoke(main, ["reproduce", str(mpath),
                                      "--out-index", str(idx)])
        assert result.exit_code == 0
        assert json.loads(idx.read_text()) == {"experiments": [], "ok": True}

    def test_checksums_stable_across_runs(self, runner, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(self.manifest(tmp_path)))
        sums = []
        for run in range(2):
            idx = tmp_path / f"index{run}.json"
            result = runner.invoke(main, ["reproduce", str(mpath),
                                          "--out-index", str(idx)])
            assert result.exit_code == 0, result.output
            payload = json.loads(idx.read_text())
            assert payload["ok"]
            sums.append([e["checksums"] for e in payload["experiments"]])
        assert sums[0] == sums[1]

    def test_missing_input_marks_batch_failed_but_continues(self, runner, tmp_path):
        manifest = {
            "experiments": [
                {"name": "broken",
                 "argv": ["gh", "--x", str(tmp_path / "nope.json"),
                          "--y", str(tmp_path / "nope.json")],
                 "outputs": []},
                {"name": "fine",
                 "argv": ["gen", "--kind", "slit-carpet", "--r", "0.5",
                          "--h", "1/8", "--out", str(tmp_path / "ok.json")],
                 "outputs": [str(tmp_path / "ok.json")]},
            ]
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        idx = tmp_path / "index.json"
        result = runner.invoke(main, ["reproduce", str(mpath),
                                      "--out-index", str(idx)])
        assert result.exit_code == 1
        payload = json.loads(idx.read_text())
        assert not payload["ok"]
        assert [e["ok"] for e in payload["experiments"]] == [False, True]
        assert (tmp_path / "ok.json").exists()

    @pytest.mark.parametrize("before", ["keep", None])
    def test_caller_deterministic_setting_is_restored(self, tmp_path, monkeypatch,
                                                      before):
        if before is None:
            monkeypatch.delenv("METRIC_LAB_DETERMINISTIC", raising=False)
        else:
            monkeypatch.setenv("METRIC_LAB_DETERMINISTIC", before)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"experiments": []}))
        main.main(args=["reproduce", str(mpath), "--out-index", str(tmp_path / "i.json")],
                  standalone_mode=False)
        assert os.environ.get("METRIC_LAB_DETERMINISTIC") == before


# The commands that never call scipy must not load it: import scipy.spatial
# alone costs more than numpy and click together.  Nor may they load OpenSSL's
# _hashlib (3.6 MB of RSS in every process): only reproduce and tangent_scan
# hash, and each imports hashlib where it does (numpy.random loads it too,
# which the small gh step below never imports).  A fresh interpreter runs
# each step and reports the scipy modules and _hashlib loaded so far.  No
# module imports scipy at import time; the function that calls scipy imports
# it, and only one does: validate_metric's full check above _NUMPY_SLABS_MAX
# points (scipy.spatial).  Carpets are measured by a breadth-first search in
# numpy, and validate_metric certifies a grid metric by its hop counts before
# that check, so even a carpet or model window above that limit loads no
# scipy.  A step is [name, CLI argv] or the name of a function of the probe;
# the modules are reported under the name.
STARTUP_PROBE = """
import importlib, json, pkgutil, sys
import numpy as np
def watched_modules():
    return sorted(m for m in sys.modules
                  if m in ("scipy", "_hashlib") or m.startswith("scipy."))
loaded = {}
import metric_lab
loaded["import metric_lab"] = watched_modules()
import metric_lab.cli
loaded["import metric_lab.cli"] = watched_modules()
for info in pkgutil.iter_modules(metric_lab.__path__, "metric_lab."):
    importlib.import_module(info.name)
loaded["import every submodule"] = watched_modules()
loaded["submodules"] = sorted(m for m in sys.modules if m.startswith("metric_lab."))
from metric_lab.fractal_gen import model_tangent_space
from metric_lab.metric_core import _NUMPY_SLABS_MAX, FiniteMetricSpace, validate_metric
from metric_lab.tangent_lab import nearest_position_seed
def seed_two_quarter_windows():
    windows = [model_tangent_space("quarter", 1, 1 / 2) for _ in range(2)]
    assert nearest_position_seed(*windows) is not None
def validate_above_the_limit():
    x = np.arange(_NUMPY_SLABS_MAX + 1.0) ** 1.5  # a line metric off any h-grid
    assert validate_metric(FiniteMetricSpace(np.abs(np.subtract.outer(x, x)))) == []
for step in json.loads(sys.argv[1]):
    if isinstance(step, str):
        globals()[step]()
    else:
        step, argv = step
        metric_lab.cli.main.main(args=argv, standalone_mode=False)
    loaded[step] = watched_modules()
print(json.dumps(loaded))
"""


def run_startup_probe(steps):
    src = os.path.dirname(os.path.dirname(os.path.abspath(metric_lab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, json.dumps(steps)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestStartup:
    def test_gh_qs_boundary_and_small_gen_and_scan_load_no_scipy_spatial(self, tmp_path):
        write_small_space(tmp_path / "x.json")
        (tmp_path / "m.json").write_text(json.dumps({"assignment": [0, 1, 2]}))
        steps = [
            ["gh", ["gh", "--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "x.json"),
                    "--out", str(tmp_path / "gh.json")]],
            ["qs", ["qs", "--domain", str(tmp_path / "x.json"), "--codomain",
                    str(tmp_path / "x.json"), "--map", str(tmp_path / "m.json"),
                    "--out", str(tmp_path / "env.csv")]],
            ["boundary", ["boundary", "--rank", "2", "--depth", "5", "--cylinder", "a:2",
                          "--probe-expansion", "--out", str(tmp_path / "b.json")]],
            ["model-quarter", ["gen", "--kind", "model-quarter", "--radius", "1", "--h",
                               "1/4", "--out", str(tmp_path / "q.json")]],
            # the identity seed closes gh_bounds before any random restart, so
            # no restart map is drawn and numpy.random (with _hashlib) stays out
            ["model-quarter-8", ["gen", "--kind", "model-quarter", "--radius", "1", "--h",
                                 "1/8", "--out", str(tmp_path / "q8.json")]],
            ["gh bounds", ["gh", "--x", str(tmp_path / "q8.json"), "--y",
                           str(tmp_path / "q8.json"), "--no-exact",
                           "--out", str(tmp_path / "gh8.json")]],
            ["snowflake-pair", ["gen", "--kind", "snowflake-pair", "--points", "30",
                                "--out", str(tmp_path / "d.json"),
                                "--out-codomain", str(tmp_path / "c.json"),
                                "--out-map", str(tmp_path / "f.json")]],
            ["model-t", ["gen", "--kind", "model-t", "--radius", "1", "--h", "1/4",
                         "--out", str(tmp_path / "t.json")]],
            # 2145 points, above _NUMPY_SLABS_MAX: certified, so no scipy.spatial
            ["model-t-2145", ["gen", "--kind", "model-t", "--radius", "1", "--h", "1/32",
                              "--out", str(tmp_path / "t32.json")]],
            ["slit-carpet", ["gen", "--kind", "slit-carpet", "--levels", "1", "--h", "1/8",
                             "--out", str(tmp_path / "k.json")]],
            # 1146 points, above _NUMPY_SLABS_MAX
            ["slit-carpet-1146", ["gen", "--kind", "slit-carpet", "--levels", "2", "--h",
                                  "1/32", "--out", str(tmp_path / "k32.json")]],
            ["pillow-carpet", ["gen", "--kind", "pillow-carpet", "--levels", "1", "--h",
                               "1/16", "--out", str(tmp_path / "p.json")]],
            # the scans come last: tangent_scan hashes its windows, so _hashlib
            # is loaded from the first scan on
            ["corner scan", ["scan", "--space", "square", "--center", "0,0", "--scales",
                             "2^-3..2^-5", "--models", "quarter,half", "--rule",
                             "lambda/8", "--out", str(tmp_path / "s.csv")]],
            ["corner scan t", ["scan", "--space", "square", "--center", "0,0", "--scales",
                               "2^-3..2^-4", "--models", "t", "--rule", "lambda/4",
                               "--out", str(tmp_path / "st.csv")]],
            ["carpet scan", ["scan", "--space", "slit-carpet", "--r", "0.5", "--levels", "1",
                             "--center", "0.5,0.25", "--scales", "2^-3..2^-4", "--models",
                             "t,half", "--rule", "lambda/8", "--out", str(tmp_path / "sk.csv")]],
            # the probe sees scipy once a step does load it
            "validate_above_the_limit",
        ]
        loaded = run_startup_probe(steps)
        for step in ("import metric_lab", "import metric_lab.cli", "gh", "qs", "boundary",
                     "model-quarter", "model-quarter-8", "gh bounds", "snowflake-pair",
                     "model-t", "model-t-2145", "slit-carpet", "slit-carpet-1146",
                     "pillow-carpet"):
            assert loaded[step] == [], f"{step} loaded {loaded[step][:5]}"
        for step in ("corner scan", "corner scan t", "carpet scan"):
            assert loaded[step] == ["_hashlib"], f"{step} loaded {loaded[step][:5]}"
        assert "scipy.spatial" in loaded["validate_above_the_limit"]
        for name in ("gh.json", "env.csv", "b.json", "q.json", "q8.json", "gh8.json", "d.json",
                     "s.csv", "t.json", "st.csv", "t32.json", "k.json", "k32.json", "p.json",
                     "sk.csv"):
            assert (tmp_path / name).exists()

    def test_no_module_imports_scipy_until_a_function_calls_it(self):
        loaded = run_startup_probe(["seed_two_quarter_windows", "validate_above_the_limit"])
        assert "metric_lab.tangent_lab" in loaded["submodules"]
        assert loaded["import every submodule"] == [], loaded["import every submodule"][:5]
        assert loaded["seed_two_quarter_windows"] == [], loaded["seed_two_quarter_windows"][:5]
        assert "scipy.spatial" in loaded["validate_above_the_limit"]


class TestGhPointed:
    def test_pointed_gh_between_v_windows(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"labels": [0, 1, 2],
                                 "dist": [[0, 1, 1], [1, 0, 2], [1, 2, 0]]}))
        b.write_text(json.dumps({"labels": [0, 1, 2],
                                 "dist": [[0, 1, 2], [1, 0, 3], [2, 3, 0]]}))
        out = tmp_path / "gh.json"
        result = runner.invoke(main, ["gh", "--x", str(a), "--y", str(b),
                                      "--base-x", "0", "--base-y", "0",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["exact"] == 0.5


# ---------------------------------------------------------------------------
# One table of CLI contracts: argv, exit code, and what the run must show.
# `expect` is "sha256 <hex>" of the file written to {out}, or text the output
# must contain: an "Error: <class>" line or a summary line.  {d} holds the
# inputs made by the contract_inputs fixture.  Every row runs in-process, and
# through the installed metric-lab script when there is one.
# ---------------------------------------------------------------------------

RUG_HALF_EIGHTH = "sha256 3278e321f3ea807e8f6449a730fb6d1bb54bf48d240d19c947e61bedde2c86e3"
SNOWFLAKE_FLAT_3 = "sha256 a3b7a41f37839b4264a6a960235802d7ed9dd8008ba03cf5fdb5682fa694530f"
CONTRACTS = [
    pytest.param(["boundary", "--rank", "2", "--depth", "5", "--cylinder", "a:2",
                  "--probe-expansion", "--out", "{out}"], 0,
                 "boundary rank 2 depth 5 cylinder a:2 expansion 4..4 ->",
                 id="boundary-probe"),
    pytest.param(["gen", "--kind", "model-quarter", "--radius", "1", "--h", "1/4",
                  "--out", "{out}"], 0,
                 "gen model-quarter: 17 points, diameter 1.41421356237 ->", id="gen-quarter"),
    pytest.param(["gh", "--x", "{d}/quarter.json", "--y", "{d}/quarter.json"], 0,
                 "gh exact 0", id="gh-quarter-quarter"),
    pytest.param(["gen", "--kind", "model-half", "--radius", "1", "--h", "1/4",
                  "--out", "{out}"], 0, "gen model-half: 29 points, diameter 2 ->",
                 id="gen-half"),
    # 17 x 29 = 493 pairs, above the auto-exact limit of 400: the forced exact
    # search computes its pair mismatches without the table
    pytest.param(["gh", "--x", "{d}/quarter.json", "--y", "{d}/half.json", "--exact",
                  "--budget", "2000"], 0, "gh lower 0.292893218813 upper 0.43318956705",
                 id="gh-exact-above-table-limit"),
    pytest.param(["gh", "--x", "{d}/quarter.json", "--y", "{d}/half.json",
                  "--budget", "-1"], 2, "Error: Invalid value for '--budget'",
                 id="gh-negative-budget"),
    # every real-valued option is read by one parser: 1/2 writes the bytes of 0.5
    pytest.param(["gen", "--kind", "rickman-rug", "--epsilon", "1/2", "--h", "1/8",
                  "--out", "{out}"], 0, RUG_HALF_EIGHTH, id="rug-epsilon-fraction"),
    pytest.param(["gen", "--kind", "rickman-rug", "--epsilon", "0.5", "--h", "1/8",
                  "--out", "{out}"], 0, RUG_HALF_EIGHTH, id="rug-epsilon-decimal"),
    pytest.param(["gen", "--kind", "slit-carpet", "--levels", "-1", "--out", "{out}"], 1,
                 "Error: ScheduleError", id="carpet-negative-levels"),
    # a flatness schedule is a name or its numbers: both write the same bytes
    pytest.param(["gen", "--kind", "snowflake", "--stage", "3", "--flatness", "1+2^-k",
                  "--out", "{out}"], 0, SNOWFLAKE_FLAT_3, id="flatness-name"),
    pytest.param(["gen", "--kind", "snowflake", "--stage", "3", "--flatness",
                  "1.5,1.25,1.125", "--out", "{out}"], 0, SNOWFLAKE_FLAT_3,
                 id="flatness-values"),
    pytest.param(["gen", "--kind", "snowflake", "--stage", "3", "--flatness", "1.5,1.5",
                  "--out", "{out}"], 1, "Error: ScheduleError", id="flatness-too-short"),
    pytest.param(["gen", "--kind", "rickman-rug", "--h", "0.3", "--out", "{out}"], 1,
                 "Error: ResolutionError", id="rug-mesh-does-not-divide"),
    # 2145 and 3169 points, certified as grid metrics without the triangle scan
    pytest.param(["gen", "--kind", "model-t", "--radius", "1", "--h", "1/32", "--out",
                  "{out}"], 0,
                 "sha256 c2995dc20755edd3fc71f80633988c22176298c5c5f35294c00ed033334aaed5",
                 id="gen-model-t-1/32"),
    pytest.param(["gen", "--kind", "model-l", "--radius", "1", "--h", "1/32", "--out",
                  "{out}"], 0,
                 "sha256 c7cf77c1a069002ed65a09d8330004ff0d7504cf7f150169ebef8dfec03e7a4f",
                 id="gen-model-l-1/32"),
    pytest.param(["gen", "--kind", "snowflake-pair", "--points", "12", "--out", "{out}",
                  "--out-codomain", "{out}.c", "--out-map", "{out}.m"], 0,
                 "gen snowflake-pair: 12 points ->", id="gen-snowflake-pair"),
    pytest.param(["qs", "--domain", "{d}/snow-d.json", "--codomain", "{d}/snow-c.json",
                  "--map", "{d}/snow-m.json", "--budget", "all", "--out", "{out}"], 0,
                 "qs envelope: 214 breakpoints ->", id="qs-snowflake-pair"),
    pytest.param(["scan", "--space", "square", "--center", "0,0", "--scales", "2^-3..2^-5",
                  "--radius", "1", "--models", "quarter,half", "--rule", "lambda/8",
                  "--out", "{out}"], 0, "(reused 4 of 6 GH solves)", id="scan-corner-memo"),
    # a carpet centre on a non-dyadic mesh (24 * (1/80) != 0.3 in floats)
    pytest.param(["scan", "--space", "slit-carpet", "--r", "0.5", "--levels", "1",
                  "--center", "0.3,0", "--scales", "2^-3..2^-5", "--radius", "1",
                  "--models", "half", "--rule", "lambda/10", "--out", "{out}"], 0,
                 "(reused 0 of 3 GH solves)", id="scan-carpet-non-dyadic-centre"),
    # more mesh steps than MAX_MESH_STEPS are refused before anything is built
    pytest.param(["gen", "--kind", "rickman-rug", "--epsilon", "1/2", "--h", "1e-300",
                  "--out", "{out}"], 1, "Error: ResolutionError", id="rug-mesh-1e-300"),
    pytest.param(["gen", "--kind", "slit-carpet", "--levels", "1", "--h", "2^-1000",
                  "--out", "{out}"], 1, "Error: ResolutionError", id="carpet-mesh-2^-1000"),
    pytest.param(["gen", "--kind", "model-plane", "--radius", "1e300", "--out", "{out}"], 1,
                 "Error: ResolutionError", id="model-radius-1e300"),
    pytest.param(["scan", "--space", "square", "--scales", "2^-3", "--radius", "1e300",
                  "--models", "quarter", "--out", "{out}"], 1, "Error: ResolutionError",
                 id="scan-radius-1e300"),
    pytest.param(["scan", "--space", "square", "--scales", "2^-1000", "--models", "quarter",
                  "--out", "{out}"], 1, "Error: ResolutionError", id="scan-scale-2^-1000"),
    pytest.param(["scan", "--space", "square", "--scales", "2^-3", "--models", "quarter",
                  "--rule", "lambda/1e300", "--out", "{out}"], 1, "Error: ResolutionError",
                 id="scan-rule-lambda/1e300"),
    pytest.param(["gen", "--kind", "model-quarter", "--h", "0", "--out", "{out}"], 1,
                 "Error: DomainError", id="model-mesh-zero"),
    # every value of a flatness sequence is checked, used or not
    pytest.param(["gen", "--kind", "snowflake", "--stage", "1", "--flatness", "1.5,0.9",
                  "--out", "{out}"], 1, "Error: ConstructionError",
                 id="flatness-unused-value-below-one"),
    pytest.param(["boundary", "--out", "{out}"], 2, "Error: Missing option '--cylinder'",
                 id="boundary-without-cylinder"),
    # values whose squares overflow are refused where they enter, not after
    # numpy overflow warnings as a MalformedMatrixError
    pytest.param(["gen", "--kind", "snowflake", "--stage", "2", "--flatness", "1.5,1e300",
                  "--out", "{out}"], 1, "Error: ConstructionError", id="flatness-1e300"),
    pytest.param(["gen", "--kind", "snowflake", "--stage", "2", "--window", "0,1e300",
                  "--out", "{out}"], 1, "Error: DomainError", id="snowflake-window-1e300"),
    # the codomain exponent lies in (0, 1]; outside it gaps ** epsilon used to
    # end in numpy warnings and a MalformedMatrixError, or in a non-metric
    *(pytest.param(["gen", "--kind", "snowflake-pair", "--epsilon", eps, "--out", "{out}",
                    "--out-codomain", "{out}.c", "--out-map", "{out}.m"], 1,
                   "Error: DomainError", id=f"snowflake-pair-epsilon-{eps}")
      for eps in ("-1", "0", "2")),
    # a carpet scan down to h = 2^-11: each window builds only its box, and
    # the slit tip's window is the same at every scale from 2^-3 down
    pytest.param(["scan", "--space", "slit-carpet", "--r", "0.5,0.5", "--center", "0.5,0.25",
                  "--scales", "2^-3..2^-8", "--models", "t,plane", "--rule", "lambda/8",
                  "--out", "{out}"], 0, "(reused 10 of 12 GH solves)",
                 id="scan-carpet-slit-tip-2^-8"),
    # integer sizes are bounded where they enter: these used to end in numpy's
    # _ArrayMemoryError and in MemoryError; a cylinder's word count is checked
    # before any word is enumerated
    pytest.param(["gen", "--kind", "snowflake-pair", "--points", "100000", "--out", "{out}",
                  "--out-codomain", "{out}.c", "--out-map", "{out}.m"], 2,
                 "Error: Invalid value for '--points'", id="snowflake-pair-points-100000"),
    pytest.param(["boundary", "--rank", "2", "--depth", "40", "--cylinder", "a:2",
                  "--out", "{out}"], 2, "Error: Invalid value for '--depth'",
                 id="boundary-depth-40"),
    pytest.param(["boundary", "--rank", "2", "--depth", "10", "--cylinder", "a:2",
                  "--out", "{out}"], 1, "Error: DomainError: cylinder of 6561 words",
                 id="boundary-cylinder-6561-words"),
    # a whole carpet or rug has at most MAX_SPACE_POINTS = 4096 points, checked
    # before its n x n matrix exists: h = 1/512 used to ask numpy for 520 GiB
    # and 8 TiB.  CI runs these rows under a 2 GB address-space limit.
    pytest.param(["gen", "--kind", "slit-carpet", "--r", "harmonic", "--levels", "2",
                  "--h", "1/512", "--out", "{out}"], 1,
                 "Error: ResolutionError: mesh 0.001953125 gives 263169 or more points",
                 id="carpet-h-1/512-point-bound"),
    pytest.param(["gen", "--kind", "rickman-rug", "--h", "1/512", "--out", "{out}"], 1,
                 "Error: ResolutionError: mesh 0.001953125 gives 1050625 or more points",
                 id="rug-h-1/512-point-bound"),
    # just above the bound: 65^2 = 4225 rug points, and a pillow carpet whose
    # 49^2 grid nodes pass but whose 4713 nodes with lips and pillows do not
    pytest.param(["gen", "--kind", "rickman-rug", "--h", "1/32", "--out", "{out}"], 1,
                 "Error: ResolutionError: mesh 0.03125 gives 4225 or more points",
                 id="rug-h-1/32-point-bound"),
    pytest.param(["gen", "--kind", "pillow-carpet", "--levels", "1", "--h", "1/48",
                  "--out", "{out}"], 1, "gives 4713 or more points",
                 id="pillow-carpet-h-1/48-point-bound"),
    # the grid alone is checked before the graph, which would take gigabytes
    pytest.param(["gen", "--kind", "slit-carpet", "--levels", "1", "--h", "2^-12",
                  "--out", "{out}"], 1, "gives 16785409 or more points",
                 id="carpet-h-2^-12-point-bound"),
    # so has a window: a Euclidean model window stops at its 4097th grid
    # point, before the matrix (h = 1/512 used to ask numpy for 9.87 TiB); the
    # disc holds 4293 grid points at h = 1/37 and 4053 at h = 1/36
    pytest.param(["gen", "--kind", "model-plane", "--radius", "1", "--h", "1/512",
                  "--out", "{out}"], 1,
                 "Error: ResolutionError: mesh 0.001953125 gives 4097 or more points",
                 id="model-plane-h-1/512-point-bound"),
    pytest.param(["gen", "--kind", "model-plane", "--radius", "1", "--h", "1/37",
                  "--out", "{out}"], 1, "gives 4097 or more points",
                 id="model-plane-h-1/37-point-bound"),
    # a window walks only the index span of each axis that meets its region:
    # the quarter plane finds its 4097th point in its first three columns
    pytest.param(["gen", "--kind", "model-quarter", "--radius", "1", "--h", "2^-11",
                  "--out", "{out}"], 1, "gives 4097 or more points",
                 id="model-quarter-h-2^-11-point-bound"),
    # a t, l or d window walks its ball's columns and stops at its 4097th
    # point: the graph window it replaced built about 4.2 million box nodes first
    pytest.param(["gen", "--kind", "model-t", "--radius", "1", "--h", "1/512",
                  "--out", "{out}"], 1,
                 "Error: ResolutionError: mesh 0.001953125 gives 4097 or more points",
                 id="model-t-h-1/512-point-bound"),
    # a snowflake window is counted before its matrix: at lambda = 1/2 the
    # ball holds 5802 vertices, whose local search used to end in numpy's
    # _ArrayMemoryError on a 9459 x 9459 pair matrix
    pytest.param(["scan", "--space", "flat-snowflake", "--center", "0,0", "--scales",
                  "2^-1,2^-2,2^-3", "--models", "line", "--rule", "lambda/2047",
                  "--out", "{out}"], 1,
                 "Error: ResolutionError: mesh 0.0002442598925256473 gives 5802 or more points",
                 id="scan-snowflake-lambda/2047-point-bound"),
    # a snowflake stage past 6 is refused before it is built: stage 8000 used
    # to end in a ValueError traceback from formatting 4 ** stage + 1, stage
    # 10^9 spent 32 s on that integer first, and a vertex:30:0 centre built
    # the stage-30 polyline until memory ran out
    pytest.param(["gen", "--kind", "snowflake", "--stage", "8000", "--out", "{out}"], 1,
                 "Error: ConstructionError: a stage-8000 polyline has more than 4097 "
                 "vertices", id="snowflake-stage-8000"),
    pytest.param(["gen", "--kind", "snowflake", "--stage", "1000000000", "--out", "{out}"],
                 1, "Error: ConstructionError: a stage-1000000000 polyline",
                 id="snowflake-stage-10^9"),
    pytest.param(["scan", "--space", "flat-snowflake", "--center", "vertex:30:0",
                  "--scales", "2^-1,2^-2", "--models", "line", "--rule", "lambda/8",
                  "--out", "{out}"], 1, "Error: ConstructionError: a stage-30 polyline",
                 id="scan-snowflake-vertex-30-point-bound"),
    # no mesh resolves more than log2(MAX_MESH_STEPS) = 12 slit generations, and
    # the schedule is refused before it is built (10^8 levels took gigabytes)
    pytest.param(["gen", "--kind", "slit-carpet", "--levels", "100000000", "--out", "{out}"],
                 1, "Error: ResolutionError: 100000000 slit generations",
                 id="carpet-levels-100000000"),
    # the all-triples envelope merges the staircases of 8 x rows at a time:
    # 400 points (63.8 million triples) used to end in numpy's
    # _ArrayMemoryError after 1548 MB, and now peak near 160 MB
    pytest.param(["qs", "--domain", "{d}/snow400-d.json", "--codomain", "{d}/snow400-c.json",
                  "--map", "{d}/snow400-m.json", "--budget", "all", "--out", "{out}"], 0,
                 "qs envelope: 321745 breakpoints ->", id="qs-400-points-point-bound"),
    # a sampled budget holds about 62 bytes per triple: above MAX_TRIPLE_BUDGET
    # it is refused unless it covers every triple, and then it enumerates them
    pytest.param(["qs", "--domain", "{d}/snow400-d.json", "--codomain", "{d}/snow400-c.json",
                  "--map", "{d}/snow400-m.json", "--budget", "10000001", "--out", "{out}"], 1,
                 "Error: DomainError: triple budget 10000001 exceeds 10000000",
                 id="qs-budget-10000001-point-bound"),
    pytest.param(["qs", "--domain", "{d}/snow-d.json", "--codomain", "{d}/snow-c.json",
                  "--map", "{d}/snow-m.json", "--budget", "1000000000", "--out", "{out}"], 0,
                 "qs envelope: 214 breakpoints ->", id="qs-budget-above-every-triple"),
    # the largest admitted cylinder is summarised from its first and last
    # words: its 3750 x 3750 matrix took 277 MB
    pytest.param(["boundary", "--rank", "3", "--depth", "5", "--cylinder", ":0",
                  "--out", "{out}"], 0,
                 "sha256 82f26e700e8bd2142c98e1293349610cfecfd884dec129fc6cb2db02f03e7ee7",
                 id="boundary-3750-words"),
    # the line is the x-axis: a centre off it lies outside the region
    pytest.param(["scan", "--space", "line", "--center", "0,0.5", "--scales", "2^-3..2^-4",
                  "--models", "line", "--rule", "lambda/8", "--out", "{out}"], 1,
                 "Error: DomainError: center (0.0, 0.5) lies outside the region",
                 id="scan-line-off-axis-centre"),
]


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract-inputs")
    for argv in (["gen", "--kind", "model-quarter", "--radius", "1", "--h", "1/4",
                  "--out", f"{d}/quarter.json"],
                 ["gen", "--kind", "model-half", "--radius", "1", "--h", "1/4",
                  "--out", f"{d}/half.json"],
                 ["gen", "--kind", "snowflake-pair", "--points", "12", "--out",
                  f"{d}/snow-d.json", "--out-codomain", f"{d}/snow-c.json",
                  "--out-map", f"{d}/snow-m.json"],
                 ["gen", "--kind", "snowflake-pair", "--points", "400", "--out",
                  f"{d}/snow400-d.json", "--out-codomain", f"{d}/snow400-c.json",
                  "--out-map", f"{d}/snow400-m.json"]):
        assert CliRunner().invoke(main, argv).exit_code == 0
    return d


def check_contract(exit_code, output, out, code, expect):
    assert exit_code == code, output
    assert "Traceback" not in output
    if expect.startswith("sha256 "):
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expect.split()[1]
    else:
        assert expect in output
    if code:
        assert not out.exists()


class TestContracts:
    @pytest.mark.parametrize("argv,code,expect", CONTRACTS)
    def test_in_process(self, contract_inputs, tmp_path, argv, code, expect):
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [a.format(d=contract_inputs, out=out) for a in argv])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        check_contract(result.exit_code, result.output, out, code, expect)

    @pytest.mark.skipif(shutil.which("metric-lab") is None,
                        reason="the metric-lab script is not installed")
    @pytest.mark.parametrize("argv,code,expect", CONTRACTS)
    def test_through_the_installed_script(self, contract_inputs, tmp_path, argv, code,
                                          expect):
        out = tmp_path / "out"
        proc = subprocess.run([shutil.which("metric-lab"),
                               *(a.format(d=contract_inputs, out=out) for a in argv)],
                              capture_output=True, text=True, timeout=300)
        check_contract(proc.returncode, proc.stdout + proc.stderr, out, code, expect)


# ---------------------------------------------------------------------------
# Bounded property test: one gen, scan or boundary run per example, with one
# option drawn from values at the edges of its domain.  Valid real draws are
# at least 1/16, so every run that is accepted stays cheap; sizes between that
# and MAX_MESH_STEPS would allocate gigabytes and are never drawn.  Integer
# options take the values just outside their bounds and the cheap values 0, 1
# and 3 inside them, never slow admitted ones such as stage 6 or 1024 points.
# ---------------------------------------------------------------------------

EDGE_VALUES = ["nan", "inf", "-inf", "0", "-0", "-1", "-1/16", "1e300", "-1e300", "1e-300",
               "-1e-300", "2^-1000", "1e400", "0.3", "1/16", "1/8", "1/4", "0.5", "2/3",
               "1", "2", "3"]
SQUARE_SCAN = ["scan", "--space", "square", "--center", "0,0", "--scales", "2^-3..2^-4",
               "--models", "quarter", "--rule", "lambda/4"]
SNOWFLAKE_SCAN = ["scan", "--space", "flat-snowflake", "--center", "vertex:2:3",
                  "--scales", "2^-3..2^-4", "--models", "line", "--rule", "lambda/4"]
# (command without the drawn option, option, template of its value)
OPTION_SLOTS = [
    (["gen", "--kind", "rickman-rug"], "--h", "{}"),
    (["gen", "--kind", "wu-rug", "--truncation", "3"], "--h", "{}"),
    (["gen", "--kind", "slit-carpet", "--levels", "1"], "--h", "{}"),
    (["gen", "--kind", "model-t"], "--h", "{}"),
    (["gen", "--kind", "rickman-rug", "--h", "1/4"], "--epsilon", "{}"),
    (["gen", "--kind", "snowflake-pair", "--points", "12", "--out-codomain", "{out}.c",
      "--out-map", "{out}.m"], "--epsilon", "{}"),
    (["gen", "--kind", "model-plane", "--h", "1/4"], "--radius", "{}"),
    (["gen", "--kind", "model-line", "--h", "1/4"], "--radius", "{}"),
    (["gen", "--kind", "snowflake", "--stage", "2"], "--window", "0,{}"),
    (["gen", "--kind", "snowflake", "--stage", "2"], "--window", "{},1"),
    (["gen", "--kind", "rickman-rug", "--h", "1/4"], "--extent", "-1,{}"),
    (["gen", "--kind", "wu-rug", "--h", "1/4"], "--extent", "{},1"),
    (["gen", "--kind", "snowflake", "--stage", "2"], "--flatness", "1.5,{}"),
    (SQUARE_SCAN, "--radius", "{}"),
    (SQUARE_SCAN, "--center", "{},0"),
    (SQUARE_SCAN, "--scales", "{}"),
    (SQUARE_SCAN, "--scales", "1/8,{}"),
    (SNOWFLAKE_SCAN, "--radius", "{}"),
    (SNOWFLAKE_SCAN, "--scales", "{}"),
    (SNOWFLAKE_SCAN, "--flatness", "{},1.25,1.125,1.0625"),
]
# (command without the drawn option, option, value)
INTEGER_DRAWS = [(base, option, value) for base, option, values in [
    (["gen", "--kind", "slit-carpet"], "--levels", ("-1", "0", "1", "3", "12", "13")),
    (["gen", "--kind", "snowflake"], "--stage", ("-1", "0", "1", "3", "7")),
    (["gen", "--kind", "wu-rug", "--h", "1/4"], "--truncation", ("-1", "0", "1", "3", "26")),
    (["boundary", "--rank", "2", "--cylinder", "a:2"], "--depth",
     ("0", "1", "3", str(MAX_DEPTH + 1))),
    (["gen", "--kind", "snowflake-pair", "--out-codomain", "{out}.c", "--out-map", "{out}.m"],
     "--points", ("-1", "0", "1", "3", str(MAX_PAIR_POINTS + 1))),
] for value in values]


def check_option_run(tmp_path, base, option, value):
    """One run exits 0, 1 or 2 without a traceback, naming a MetricLabError on 1."""
    out = tmp_path / "out"
    argv = [a.format(out=out) for a in base] + [option, value, "--out", str(out)]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    assert "Traceback" not in result.output
    if result.exit_code == 1:
        name = re.search(r"^Error: (\w+):", result.output, re.M)
        assert name and issubclass(getattr(errors, name[1], type(None)),
                                   errors.MetricLabError), (argv, result.output)


class TestOptionProperties:
    @settings(max_examples=300, deadline=5000, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(slot=st.sampled_from(OPTION_SLOTS), value=st.sampled_from(EDGE_VALUES))
    def test_exit_code_and_error_line(self, tmp_path, slot, value):
        base, option, template = slot
        check_option_run(tmp_path, base, option, template.format(value))

    @settings(max_examples=60, deadline=5000, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(draw=st.sampled_from(INTEGER_DRAWS))
    def test_integer_options_exit_code_and_error_line(self, tmp_path, draw):
        check_option_run(tmp_path, *draw)
