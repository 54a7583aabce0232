"""Command-line front end: file-based, seeded, byte-reproducible experiments.

Exit codes: 0 ok, 1 domain error from the inner modules, 2 usage or parse
error.  All numeric output is formatted to 12 significant digits so repeated
runs of one spec produce identical bytes; wall-clock columns are zeroed when
METRIC_LAB_DETERMINISTIC is set (the reproduce runner sets it).

No lab module imports scipy or hashlib at import time, so the CLI starts
without either.  Only validating a space of more than
metric_core._NUMPY_SLABS_MAX points that is not a grid metric loads scipy
(scipy.spatial).  Carpets are measured by a breadth-first search for hop
counts in numpy and certified as grid metrics, so `gen` and `scan` of a
carpet or a model tangent, `gh`, `qs` and `boundary` load no scipy at all.
hashlib, and with it OpenSSL's _hashlib (about 3.6 MB of RSS), loads only in
`reproduce`, which checksums its outputs, in `scan`, which keys its solved
windows by a digest, and with numpy.random (through secrets and hmac), which
gh_bounds' random restarts and a sampled `qs --budget` draw from; `gen`,
`boundary` and `qs --budget all` never load it.
"""
from __future__ import annotations

import json
import math
import os

import click
import numpy as np

from . import boundary_free_group as bfg
from . import fractal_gen as fg
from . import metric_core as mc
from . import qs_analysis as qs
from . import tangent_lab as tl
from .errors import DomainError, MalformedMatrixError, MetricLabError
from .gh_solver import EXACT_BUDGET, gh_distance
from .metric_core import write_json_atomic, write_text_atomic


def fmt(x) -> str:
    return f"{float(x):.12g}"


def _round12(obj):
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def parse_number(text: str) -> float:
    """Plain floats plus the fraction and dyadic-power notations 1/64, 2^-5;
    nan, inf, overflow and non-real powers such as -2^0.5 are refused."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            value = parse_number(num) / parse_number(den)
        elif "^" in text:
            base, expo = text.split("^", 1)
            value = float(base) ** float(expo)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise click.UsageError(f"cannot parse number {text!r}: {e}")
    if isinstance(value, complex):  # a negative base to a fractional power
        raise click.UsageError(f"number {text!r} is not real")
    if not math.isfinite(value):
        raise click.UsageError(f"number {text!r} is not finite")
    return value


def parse_scales(text: str):
    """Either a comma list of numbers or the dyadic range 2^-a..2^-b."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        if not (lo.startswith("2^") and hi.startswith("2^")):
            raise click.UsageError(f"scale ranges use the form 2^-a..2^-b, got {text!r}")
        try:
            a, b = int(lo[2:]), int(hi[2:])
        except ValueError:
            raise click.UsageError(f"scale range exponents must be integers, got {text!r}")
        step = -1 if b < a else 1
        return [parse_number(f"2^{k}") for k in range(a, b + step, step)]
    return [parse_number(tok) for tok in text.split(",") if tok]


def parse_pair(text: str, usage: str):
    """Two numbers "a,b"; usage names the option in the error message."""
    parts = [parse_number(tok) for tok in text.split(",")]
    if len(parts) != 2:
        raise click.UsageError(f"{usage}, got {text!r}")
    return (parts[0], parts[1])


def parse_int_or_all(text: str, option: str):
    """An integer or the word 'all' (sampling budgets and counts)."""
    if text == "all":
        return "all"
    try:
        return int(text)
    except ValueError:
        raise click.UsageError(f"{option} must be an integer or 'all', got {text!r}")


def parse_center(text: str):
    usage = "center must be x,y or vertex:stage:index"
    if text.startswith("vertex:"):
        try:
            _, stage, idx = text.split(":")
            return ("vertex", int(stage), int(idx))
        except ValueError:
            raise click.UsageError(f"{usage}, got {text!r}")
    return parse_pair(text, usage)


def parse_rule(text: str) -> str:
    """A resolution rule "lambda/K" whose K must be a positive finite number."""
    try:
        tl.resolution_rule(text)
    except MetricLabError:
        raise click.UsageError(
            f"--rule takes lambda/K with a positive number K, got {text!r}")
    return text


def parse_models(text: str) -> tuple:
    """A comma list of model tangent kinds, each one of fractal_gen.MODEL_KINDS."""
    models = tuple(text.split(","))
    unknown = [m for m in models if m not in fg.MODEL_KINDS]
    if unknown:
        raise click.UsageError(
            f"--models takes a comma list of {', '.join(fg.MODEL_KINDS)}, got {text!r}")
    return models


def parse_flatness(text: str):
    """A schedule name, passed on as is, or a comma list of numbers."""
    return text if text in ("standard", "1+2^-k") else [
        parse_number(tok) for tok in text.split(",") if tok]


def _slit_schedule(r_spec: str, levels: int | None) -> fg.SlitSchedule:
    if r_spec == "harmonic":
        if levels is None:
            raise click.UsageError("--levels is required with the harmonic preset")
        return fg.SlitSchedule.harmonic(levels)
    values = tuple(parse_number(tok) for tok in r_spec.split(",") if tok)
    if levels is not None and levels != len(values):
        raise click.UsageError(
            f"--levels {levels} disagrees with {len(values)} slit fractions")
    return fg.SlitSchedule(values)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise click.UsageError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise click.UsageError(
            f"malformed JSON in {path}: line {e.lineno} column {e.colno}: {e.msg}")


class _DomainFailure(click.ClickException):
    exit_code = 1


def _domain_guard(fn):
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MetricLabError as e:
            raise _DomainFailure(f"{type(e).__name__}: {e}")
    wrapped.__name__ = fn.__name__
    wrapped.__doc__ = fn.__doc__
    return wrapped


@click.group()
def main():
    """Finite metric geometry laboratory."""


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

# Largest snowflake-pair: two 1024 x 1024 matrices, written as 24 MB files, in
# 4-5 s and 116 MB on a 2-core x86 machine.
MAX_PAIR_POINTS = 2 ** 10

GEN_KINDS = ("slit-carpet", "pillow-carpet", "snowflake", "rickman-rug",
             "wu-rug", "snowflake-pair") + tuple(f"model-{k}" for k in fg.MODEL_KINDS)


@main.command("gen")
@click.option("--kind", required=True, type=click.Choice(GEN_KINDS))
@click.option("--r", "r_spec", default="harmonic", show_default=True,
              help="slit fractions: comma list or 'harmonic'")
@click.option("--levels", type=int, default=None, help="slit generations")
@click.option("--h", "h_spec", default="1/16", show_default=True, help="mesh")
@click.option("--stage", type=int, default=3, show_default=True)
@click.option("--flatness", default="standard", show_default=True,
              help="'standard', '1+2^-k', or a comma list")
@click.option("--window", default="0,1", show_default=True)
@click.option("--epsilon", "epsilon_spec", default="0.5", show_default=True)
@click.option("--extent", default="-1,1", show_default=True)
@click.option("--truncation", type=int, default=6, show_default=True)
@click.option("--radius", "radius_spec", default="1.0", show_default=True)
@click.option("--points", type=click.IntRange(0, MAX_PAIR_POINTS), default=30,
              show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.option("--out-codomain", type=click.Path(), default=None)
@click.option("--out-map", type=click.Path(), default=None)
@_domain_guard
def gen_cmd(kind, r_spec, levels, h_spec, stage, flatness, window, epsilon_spec,
            extent, truncation, radius_spec, points, out, out_codomain, out_map):
    """Generate a space and write it as JSON (validated before writing)."""
    h, epsilon, radius = map(parse_number, (h_spec, epsilon_spec, radius_spec))
    if kind in ("slit-carpet", "pillow-carpet"):
        space = fg.whole_carpet_graph(_slit_schedule(r_spec, levels), h,
                                      pillows=kind == "pillow-carpet").space()
    elif kind == "snowflake":
        space = fg.snowflake_polyline(stage, parse_flatness(flatness),
                                      parse_pair(window, "--window takes a,b"))
    elif kind == "rickman-rug":
        space = fg.product_rug_space(("rickman", epsilon),
                                     parse_pair(extent, "--extent takes a,b"), h)
    elif kind == "wu-rug":
        sched = fg.default_wu_schedule(truncation)
        space = fg.product_rug_space(("wu", sched, truncation),
                                     parse_pair(extent, "--extent takes a,b"), h)
    elif kind == "snowflake-pair":
        if not (out_codomain and out_map):
            raise click.UsageError(
                "snowflake-pair needs --out (domain), --out-codomain and --out-map")
        if not 0.0 < epsilon <= 1.0:  # before gaps ** epsilon; also refuses nan
            raise DomainError(f"snowflake-pair exponent must be in (0, 1], got {epsilon}")
        pts = np.linspace(0.0, 1.0, points)
        gaps = np.abs(pts[:, None] - pts[None, :])
        dom = mc.FiniteMetricSpace(gaps, tuple(float(p) for p in pts))
        cod = mc.FiniteMetricSpace(gaps ** epsilon, tuple(float(p) for p in pts))
        _check_metric(dom)
        _check_metric(cod)
        mc.write_space(dom, out)
        mc.write_space(cod, out_codomain)
        write_json_atomic({"assignment": list(range(len(pts)))}, out_map)
        click.echo(f"gen {kind}: {len(pts)} points -> {out}, {out_codomain}, {out_map}")
        return
    else:  # model tangents
        space = fg.model_tangent_space(kind.removeprefix("model-"), radius, h).space

    _check_metric(space)
    mc.write_space(space, out)
    click.echo(f"gen {kind}: {space.n} points, diameter {fmt(space.diameter())} -> {out}")


def _check_metric(space):
    """Exit 1 before anything is written unless validate_metric accepts the space."""
    report = mc.validate_metric(space)
    if report:
        raise MalformedMatrixError(f"generated space violates {report[0].axiom}")


# ---------------------------------------------------------------------------
# gh
# ---------------------------------------------------------------------------

@main.command("gh")
@click.option("--x", "x_path", required=True, type=click.Path())
@click.option("--y", "y_path", required=True, type=click.Path())
@click.option("--exact/--no-exact", default=None,
              help="force or forbid the exact search (default: auto by size)")
@click.option("--budget", type=click.IntRange(min=0), default=EXACT_BUDGET, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--base-x", type=int, default=None, help="pointed: base index in X")
@click.option("--base-y", type=int, default=None, help="pointed: base index in Y")
@click.option("--out", type=click.Path(), default=None)
@_domain_guard
def gh_cmd(x_path, y_path, exact, budget, seed, base_x, base_y, out):
    """Gromov-Hausdorff distance between two space files."""
    X = mc.space_from_json(_load_json(x_path))
    Y = mc.space_from_json(_load_json(y_path))
    if (base_x is None) != (base_y is None):
        raise click.UsageError("pointed mode needs both --base-x and --base-y")
    base_pair = None if base_x is None else (base_x, base_y)
    method = {None: "auto", True: "exact", False: "bounds"}[exact]
    res = gh_distance(X, Y, method=method, base_pair=base_pair, seed=seed, budget=budget)
    payload = _round12(res.to_json())
    if out:
        write_json_atomic(payload, out)
    if res.exact is not None:
        click.echo(f"gh exact {fmt(res.exact)}")
    else:
        click.echo(f"gh lower {fmt(res.lower)} upper {fmt(res.upper)}")


# ---------------------------------------------------------------------------
# qs
# ---------------------------------------------------------------------------

@main.command("qs")
@click.option("--domain", "domain_path", required=True, type=click.Path())
@click.option("--codomain", "codomain_path", required=True, type=click.Path())
@click.option("--map", "map_path", required=True, type=click.Path())
@click.option("--budget", default="1000000", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@_domain_guard
def qs_cmd(domain_path, codomain_path, map_path, budget, seed, out):
    """Distortion envelope of a sampled map; CSV columns t, s."""
    budget_val = parse_int_or_all(budget, "--budget")
    dom = mc.space_from_json(_load_json(domain_path))
    cod = mc.space_from_json(_load_json(codomain_path))
    assignment = _load_json(map_path)
    if not isinstance(assignment, dict) or "assignment" not in assignment:
        raise click.UsageError(f"{map_path} must contain an 'assignment' list")
    f = qs.SampledMap(dom, cod, np.asarray(assignment["assignment"], dtype=int))
    env = qs.distortion_envelope(f, budget_val, seed=seed)

    def dump(fh):  # 2^16 breakpoints per write, never the whole text at once
        fh.write("t,s\n")
        for lo in range(0, len(env.ts), 2 ** 16):
            fh.write("".join(f"{fmt(t)},{fmt(s)}\n" for t, s in
                             zip(env.ts[lo:lo + 2 ** 16].tolist(),
                                 env.ss[lo:lo + 2 ** 16].tolist())))
    mc._write_atomic(dump, out)
    click.echo(f"qs envelope: {len(env.ts)} breakpoints -> {out}")


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------

# Deepest truncation of boundary words; the words of one cylinder are bounded
# by boundary_free_group.MAX_CYLINDER_WORDS.
MAX_DEPTH = 32


@main.command("boundary")
@click.option("--rank", type=click.IntRange(1, 26), default=2, show_default=True,
              help="generators a..z")
@click.option("--depth", type=click.IntRange(1, MAX_DEPTH), default=5, show_default=True)
@click.option("--base", "visual_base", default="2", show_default=True,
              help="visual parameter a > 1")
@click.option("--cylinder", "cylinder_spec", required=True,
              help="prefix:m, e.g. a:2")
@click.option("--probe-expansion", is_flag=True)
@click.option("--count", default="all", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@_domain_guard
def boundary_cmd(rank, depth, visual_base, cylinder_spec, probe_expansion,
                 count, seed, out):
    """Free-group boundary experiments: cylinders and expansion probes."""
    a = parse_number(visual_base)
    count_val = parse_int_or_all(count, "--count")
    payload: dict = {"rank": rank, "depth": depth, "base": a}
    parts = cylinder_spec.split(":")
    if len(parts) != 2:
        raise click.UsageError(f"--cylinder takes prefix:m, got {cylinder_spec!r}")
    prefix_text, m_text = parts
    if not m_text.isdecimal():
        raise click.UsageError(f"cylinder depth must be a non-negative integer, got {m_text!r}")
    m = int(m_text)
    prefix = bfg.reduce_word(prefix_text, rank)
    p = bfg.BoundaryPoint(bfg.first_extension(prefix, depth))
    points, diameter = bfg.cylinder_summary(p, m, depth, count=count_val, a=a, seed=seed)
    payload["cylinder"] = {"prefix": str(prefix), "m": m,
                           "points": points, "diameter": diameter}
    if probe_expansion:
        stats = bfg.expansion_factor_probe(p, m, samples=count_val, depth=depth,
                                           a=a, seed=seed)
        payload["expansion"] = {"min": stats.minimum, "max": stats.maximum,
                                "mean": stats.mean, "pairs": stats.count}
    write_json_atomic(_round12(payload), out)
    summary = f"boundary rank {rank} depth {depth} cylinder {prefix_text}:{m}"
    if probe_expansion:
        summary += f" expansion {fmt(payload['expansion']['min'])}..{fmt(payload['expansion']['max'])}"
    click.echo(summary + f" -> {out}")


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

@main.command("scan")
@click.option("--space", "space_name", required=True,
              type=click.Choice(("square", "plane", "half", "quarter", "line",
                                 "flat-snowflake", "slit-carpet")))
@click.option("--r", "r_spec", default="harmonic", show_default=True)
@click.option("--levels", type=int, default=None)
@click.option("--flatness", default="1+2^-k", show_default=True)
@click.option("--center", default="0,0", show_default=True)
@click.option("--scales", required=True, help="2^-a..2^-b or comma list")
@click.option("--radius", "radius_spec", default="1.0", show_default=True)
@click.option("--models", required=True, help="comma list of model kinds")
@click.option("--rule", default="lambda/64", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@_domain_guard
def scan_cmd(space_name, r_spec, levels, flatness, center, scales, radius_spec,
             models, rule, seed, out):
    """Blow-up scan: per-scale pointed GH bounds against model tangents."""
    radius = parse_number(radius_spec)
    params = {}
    if space_name == "slit-carpet":
        params["sched"] = _slit_schedule(r_spec, levels)
    if space_name == "flat-snowflake":
        params["flatness"] = parse_flatness(flatness)
    gen = fg.make_generator(space_name, **params)
    cfg = tl.ScanConfig(generator=gen, center=parse_center(center),
                        scales=parse_scales(scales), window_radius=radius,
                        models=parse_models(models), rule=parse_rule(rule),
                        seed=seed)
    report = tl.tangent_scan(cfg)
    deterministic = bool(os.environ.get("METRIC_LAB_DETERMINISTIC"))
    lines = ["lambda,model,lower,upper,points,seconds"]
    for row in report.rows:
        for kind in cfg.models:
            res = row.results[kind]
            secs = 0.0 if deterministic else row.seconds[kind]
            lines.append(f"{fmt(row.lam)},{kind},{fmt(res.lower)},"
                         f"{fmt(res.upper)},{row.points},{fmt(secs)}")
    write_text_atomic("\n".join(lines) + "\n", out)
    reused = sum(len(row.reused) for row in report.rows)
    memo = f"(reused {reused} of {len(report.rows) * len(cfg.models)} GH solves)"
    if report.verdict is not None:
        v = report.verdict
        click.echo(f"scan verdict: {v.best_model} ({v.trend}), "
                   f"final gap {fmt(v.final_gap)} -> {out} {memo}")
    else:
        click.echo(f"scan: {len(report.rows)} rows -> {out} {memo}")


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _sha256(path: str) -> str:
    import hashlib  # OpenSSL's _hashlib loads here, not at start-up

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@main.command("reproduce")
@click.argument("manifest", type=click.Path())
@click.option("--out-index", type=click.Path(), default="index.json",
              show_default=True)
def reproduce_cmd(manifest, out_index):
    """Run every experiment of a manifest; write an index with checksums.

    A failing experiment marks the batch failed but the remaining entries
    still run.  Wall-clock output columns are suppressed so that two runs of
    the same manifest yield byte-identical artifacts.
    """
    spec = _load_json(manifest)
    experiments = spec.get("experiments", [])
    index = {"experiments": [], "ok": True}
    previous = os.environ.get("METRIC_LAB_DETERMINISTIC")
    os.environ["METRIC_LAB_DETERMINISTIC"] = "1"
    try:
        for exp in experiments:
            name = exp.get("name", "?")
            entry = {"name": name, "ok": True, "error": None, "checksums": {}}
            try:
                main.main(args=list(exp["argv"]), standalone_mode=False)
                for path in exp.get("outputs", []):
                    entry["checksums"][path] = _sha256(path)
            except (Exception, SystemExit) as e:  # noqa: BLE001 - batch must go on
                entry["ok"] = False
                entry["error"] = f"{type(e).__name__}: {e}"
                index["ok"] = False
            index["experiments"].append(entry)
    finally:
        if previous is None:
            os.environ.pop("METRIC_LAB_DETERMINISTIC", None)
        else:
            os.environ["METRIC_LAB_DETERMINISTIC"] = previous
    write_json_atomic(index, out_index)
    status = "ok" if index["ok"] else "FAILED"
    click.echo(f"reproduce {status}: {len(experiments)} experiments -> {out_index}")
    if not index["ok"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
