"""Batch front-end: classification, atlases, foliations, K-fixtures, indices.

Subcommands mirror the library suites; reports are machine-readable (JSON
is emitted with sorted keys, so identical configs give identical bytes)
and exit codes follow a fixed contract: 0 all checks passed, 2 a check
failed, 3 the input could not be used.  Only the subcommands that draw at
random (atlas, foliation, all) take --seed and --tol; ORBITON_SEED
overrides their --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import classify as _classify
from . import coadjoint as _coadjoint
from . import families as _families
from . import fredholm as _fredholm
from . import kindex as _kindex
from . import lie_core as _lie_core
from . import orbit_atlas as _atlas

__all__ = ["main", "ParseError", "InputError"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_INPUT_ERROR = 3

_DEFAULT_TOLERANCES = {
    "membership": 1e-8,
    "tangency": 1e-6,
}

# Aliases whose structure tensors equal a normal-form family member, so
# atlas and foliation runs accept them directly.
_ALIAS_FAMILY = {"real-diamond": "g442", "aff-c": "g424"}

_LADDER = ((6.0, 1024), (8.0, 2048))
_FULL_LADDER = ((6.0, 1024), (8.0, 2048), (10.0, 4096))


class ParseError(Exception):
    """Input file exists but cannot be parsed."""


class InputError(Exception):
    """Unusable configuration or input data."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for checks
        raise _UsageError(message)


def _seed(flag: int) -> int:
    env_seed = os.environ.get("ORBITON_SEED")
    if env_seed is None:
        return flag
    try:
        return int(env_seed)
    except ValueError:
        raise InputError(f"ORBITON_SEED must be an integer, got {env_seed!r}")


def _tolerances(overrides) -> dict:
    tolerances = dict(_DEFAULT_TOLERANCES)
    for item in overrides or []:
        key, _, value = item.partition("=")
        if key not in tolerances:
            raise InputError(
                f"unknown tolerance {key!r}; known: {sorted(tolerances)}")
        try:
            tolerances[key] = float(value)
        except ValueError:
            raise InputError(f"bad tolerance value in {item!r}")
    return tolerances


def _resolve_family(name: str) -> str:
    if name in _families.FAMILIES:
        return name
    if name in _ALIAS_FAMILY:
        return _ALIAS_FAMILY[name]
    raise InputError(
        f"{name!r} is not a normal-form family; known: "
        f"{sorted(_families.FAMILIES)} plus aliases "
        f"{sorted(_ALIAS_FAMILY)}")


def _parse_floats(text: str, label: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise InputError(f"bad {label}: {text!r} (expected comma floats)")
    if not all(map(math.isfinite, values)):
        raise InputError(f"bad {label}: {text!r} (NaN and infinity are "
                         "not accepted)")
    return values


def _load_algebra(path: Optional[str], name: Optional[str]):
    if name is not None:
        try:
            return _families.builtin(name), f"builtin:{name}"
        except KeyError as exc:
            raise InputError(exc.args[0])
    if path is None:
        raise InputError("provide an input JSON path or --builtin NAME")
    # The positional input doubles as a builtin name; an existing file
    # always wins.
    if not os.path.exists(path):
        try:
            return _families.builtin(path), f"builtin:{path}"
        except KeyError:
            pass
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}")
    try:
        return _lie_core.load_algebra_json(text), str(path)
    except (_lie_core.LieAlgebraError, KeyError, TypeError,
            ValueError) as exc:
        raise InputError(f"{path}: not a valid algebra: {exc}")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def run_classify(path: Optional[str], builtin: Optional[str]):
    g, source = _load_algebra(path, builtin)
    report = {
        "schema": 1,
        "command": "classify",
        "source": source,
        "dim": g.dim,
        "md4": None,
        "md_bar": None,
        "status": "ok",
    }
    code = EXIT_OK
    label = None
    if g.dim == 4:
        try:
            label = _classify.classify_md4(g)
            if label.family != "NotMD4":
                exp_ok, _ = _classify.is_exponential(g)
                report["exponential"] = bool(exp_ok)
        except (_classify.NotSolvableError,
                _classify.DegenerateJordanError) as exc:
            report["md4"] = {"error": type(exc).__name__, "detail": str(exc)}
            report["status"] = "fail"
            return report, EXIT_CHECK_FAILED
        report["md4"] = label.to_json()
        report["decomposable"] = label.decomposition is not None
        if label.family == "NotMD4":
            report["status"] = "fail"
            code = EXIT_CHECK_FAILED
    bar = _classify.classify_md_bar(g, label)
    report["md_bar"] = bar.to_json()
    return report, code


def _text_classify(report: dict) -> str:
    lines = [f"source: {report['source']}", f"dim: {report['dim']}"]
    md4 = report.get("md4")
    if md4:
        if "error" in md4:
            lines.append(f"md4: {md4['error']} ({md4['detail']})")
        else:
            lines.append(f"family: {md4['family']}")
            if md4.get("params"):
                lines.append("params: " + ", ".join(
                    f"{p:.12g}" for p in md4["params"]))
            if report.get("decomposable"):
                lines.append("decomposable: true")
            if "exponential" in report:
                lines.append(
                    f"exponential: {str(report['exponential']).lower()}")
    lines.append(f"md_bar: {report['md_bar']['tag']}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

def _max_residual(model, sample) -> float:
    return float(max(_atlas.orbit_membership(model, p)
                     for p in sample.points))


def _atlas_base(g, F, model, sample) -> dict:
    return {
        "model": model.to_json(),
        "orbit_dimension": _coadjoint.orbit_dimension(g, F),
        "max_residual": _max_residual(model, sample),
        "cloud_csv": sample.to_csv(labels=("x", "y", "z", "t")),
    }


def run_atlas(family: str, params: Optional[str], base: Optional[str],
              bases: int, samples: int, seed: int, tol: dict):
    family = _resolve_family(family)
    params = (_parse_floats(params, "--params") if params
              else _families.default_params(family))
    try:
        g = _families.build_family(family, *params)
    except (KeyError, ValueError) as exc:
        raise InputError(str(exc))
    if samples < 1:
        raise InputError(f"--samples must be at least 1, got {samples}")
    if bases < 0:
        raise InputError(f"--bases must not be negative, got {bases}")
    strata = {}
    if base:
        F = np.array(_parse_floats(base, "--base"))
        if len(F) != 4:
            raise InputError("--base needs exactly 4 coordinates")
        model = _atlas.orbit_model(family, F, params)
        draws = [(_atlas.stratum_of(family, F, params), F, model,
                  _atlas.orbit_cloud(g, F, model, samples, seed))]
    else:
        # Every stratum is listed, also with no bases under --bases 0.
        strata = {s: [] for s in _atlas.strata_names(family, params)}
        draws = _atlas.atlas_bases(g, family, params, bases, samples,
                                   np.random.default_rng(seed))
    worst = 0.0
    for stratum, F, model, sample in draws:
        entry = _atlas_base(g, F, model, sample)
        strata.setdefault(stratum, []).append(entry)
        worst = max(worst, entry["max_residual"])
    passed = worst < tol["membership"]
    report = {
        "schema": 1,
        "command": "atlas",
        "family": family,
        "params": [float(p) for p in params],
        "samples_per_base": samples,
        "strata": [{"name": s, "bases": b} for s, b in strata.items()],
        "max_residual": worst,
        "membership_tolerance": tol["membership"],
        "status": "ok" if passed else "fail",
    }
    return report, EXIT_OK if passed else EXIT_CHECK_FAILED


def _text_atlas(report: dict) -> str:
    lines = [f"family: {report['family']}"]
    if report["params"]:
        lines.append(
            "params: " + ", ".join(f"{p:.12g}" for p in report["params"]))
    for entry in report["strata"]:
        bases = entry["bases"]
        line = f"stratum {entry['name']}: {len(bases)} base(s)"
        if bases:
            kinds = sorted({b["model"]["kind"] for b in bases})
            res = max(b["max_residual"] for b in bases)
            line += f", kind {'/'.join(kinds)}, max residual {res:.3e}"
        lines.append(line)
    lines.append(f"max_residual: {report['max_residual']:.3e}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


def _write_atlas_csvs(report: dict, output_path: str) -> None:
    stem, _ = os.path.splitext(output_path)
    for entry in report["strata"]:
        for idx, base in enumerate(entry["bases"]):
            path = f"{stem}_{report['family']}_{entry['name']}_{idx}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(base["cloud_csv"])


# ---------------------------------------------------------------------------
# foliation
# ---------------------------------------------------------------------------

def run_foliation(family: Optional[str], points: int, seed: int, tol: dict):
    names = ([_resolve_family(family)] if family
             else list(_families.FAMILY_ORDER))
    tol = tol["tangency"]
    rng = np.random.default_rng(seed)
    rows = []
    all_ok = True
    for name in names:
        params = _families.default_params(name)
        spec = _atlas.distribution_spec(name, params)
        g = _families.build_family(name, *params)
        expected = spec.generic_rank
        worst_tan = 0.0
        rank_ok = True
        generic = [s for s in _atlas.strata_names(name, params)
                   if s != "fixed-points"]
        per_stratum = max(1, points // (20 * len(generic)))
        for stratum in generic:
            for _ in range(20):
                F = _atlas.random_base(name, stratum, rng, params)
                sample = _coadjoint.sample_orbit(
                    g, F, per_stratum, seed=int(rng.integers(2 ** 31)))
                for p in sample.points:
                    if _atlas.distribution_rank_at(spec, p) != expected:
                        rank_ok = False
                worst_tan = max(worst_tan,
                                _atlas.check_tangency(spec, sample, g))
        ok = rank_ok and worst_tan < tol
        all_ok = all_ok and ok
        rows.append({
            "family": name,
            "system": spec.system,
            "generic_rank": expected,
            "rank_ok": rank_ok,
            "max_tangency_residual": worst_tan,
            "status": "ok" if ok else "fail",
        })
    report = {
        "schema": 1,
        "command": "foliation",
        "tangency_tolerance": tol,
        "families": rows,
        "status": "ok" if all_ok else "fail",
    }
    return report, EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _text_foliation(report: dict) -> str:
    lines = []
    for row in report["families"]:
        verdict = "PASS" if row["status"] == "ok" else "FAIL"
        lines.append(
            f"{row['family']} ({row['system']}): rank {row['generic_rank']}"
            f" {'ok' if row['rank_ok'] else 'WRONG'},"
            f" tangency {row['max_tangency_residual']:.3e}: {verdict}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# kindex
# ---------------------------------------------------------------------------

def _kindex_checks(grid: int) -> list:
    checks = []

    def add(name, fn):
        try:
            ok, detail = fn()
        except _kindex.NonIntegerResult as exc:
            ok, detail = False, f"{exc}; hint: increase --grid"
        except _kindex.KIndexError as exc:
            ok, detail = False, str(exc)
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    def winding_u_plus():
        w = _kindex.winding_number(_kindex.u_plus_loop(), grid=grid)
        return (w.integer == 1 and abs(w.raw - 1.0) < 1e-6,
                f"winding {w.integer}, raw off by {abs(w.raw - 1.0):.2e}")

    add("winding_u_plus", winding_u_plus)

    def idempotent():
        fx = _kindex.load_fixture("lifts")["idempotent"]
        pts = [(p * math.pi, r) for p in fx["phi_grid_over_pi"]
               for r in fx["r_grid"]]
        res = _kindex.idempotent_residual(_kindex.idempotent_p, pts)
        return res < 1e-12, f"residual {res:.2e}"

    add("idempotent_p", idempotent)

    for name, loops, hexagon in (
            ("delta0_half_line", _kindex.half_line_lift_loops, "gamma1"),
            ("delta0_gamma4", _kindex.vertex_lift_loops, "gamma4")):
        def delta0(loops=loops, hexagon=hexagon):
            d = _kindex.delta0_via_winding(loops(), grid=grid)
            want = _kindex.hexagon(hexagon).maps[2].matrix
            return (d.matrix == want,
                    "matrix matches" if d.matrix == want
                    else f"got {d.matrix}, want {want}")

        add(name, delta0)

    def vertex_windings():
        loops = _kindex.vertex_lift_loops()[0]
        w_first = _kindex.winding_number(loops[0], grid=grid).integer
        w_last = _kindex.winding_number(loops[-1], grid=grid).integer
        return ((w_first, w_last) == (-1, 1),
                f"first {w_first}, last {w_last}")

    add("vertex_lift_windings", vertex_windings)

    for name in _kindex.hexagon_names():
        def exactness(name=name):
            res = _kindex.six_term_check(_kindex.hexagon(name))
            bad = [k for k, v in res["exact_at"].items() if not v]
            return (res["all_exact"],
                    "exact" if res["all_exact"] else f"fails at {bad}")

        add(f"six_term_{name}", exactness)

    def table():
        pt = _kindex.k_table("point")
        s1 = _kindex.k_table("S1")
        ok = (str(pt.k0) == "Z" and pt.k1.is_zero
              and str(s1.k0) == "Z" and str(s1.k1) == "Z")
        return ok, "spot values as expected"

    add("k_table", table)
    return checks


def run_kindex(grid: int, case: Optional[str]):
    if case == "affR":
        pair = _fredholm.index_pair(6.0, 1024)
        indices = (pair[1].index, pair[2].index)
        ok = indices == (1, 1)
        report = {
            "schema": 1,
            "command": "kindex",
            "case": "affR",
            "index_pair": list(indices),
            "summary": f"index ({indices[0]},{indices[1]})",
            "checks": [{
                "name": "affR_index",
                "pass": ok,
                "detail": f"index ({indices[0]},{indices[1]})",
            }],
            "status": "ok" if ok else "fail",
        }
        return report, EXIT_OK if ok else EXIT_CHECK_FAILED
    checks = _kindex_checks(grid)
    if case is not None:
        wanted = [c for c in checks
                  if c["name"] == case or c["name"] == f"six_term_{case}"]
        if not wanted:
            raise InputError(
                f"unknown case {case!r}; cases: "
                f"{[c['name'] for c in checks]} or affR")
        checks = wanted
    all_ok = all(c["pass"] for c in checks)
    report = {
        "schema": 1,
        "command": "kindex",
        "grid": grid,
        "checks": checks,
        "status": "ok" if all_ok else "fail",
    }
    return report, EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _text_kindex(report: dict) -> str:
    lines = []
    if "summary" in report:
        lines.append(f"affR: {report['summary']}")
    for c in report.get("checks", []):
        verdict = "PASS" if c["pass"] else "FAIL"
        lines.append(f"{c['name']}: {verdict} ({c['detail']})")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fredholm
# ---------------------------------------------------------------------------

def _fredholm_single(which: int, L: float, N: int) -> dict:
    grid = _fredholm.build_grid(L, N)
    op = _fredholm.assemble_operator(which, grid)
    result = _fredholm.numerical_index(op)
    oracle = _fredholm.ode_kernel_oracle(grid)
    parity = _fredholm.parity_check(result.ker_vectors, which)
    cosine = (_fredholm.kernel_cosine(grid, result.ker_vectors[0],
                                      oracle.f, which)
              if result.ker_vectors else None)
    entry = {
        "which": which,
        "L": L,
        "N": N,
        "result": result.to_json(),
        "parity_residuals": [p.residual for p in parity],
        "parity_ok": all(p.ok for p in parity),
        "oracle": oracle.to_json(),
        "oracle_cosine": cosine,
    }
    entry["ok"] = (entry["parity_ok"]
                   and (cosine is None or cosine > 0.999))
    return entry


def run_fredholm(which: Optional[int], L: float, N: int, full_ladder: bool):
    which_list = [which] if which else [1, 2]
    ladder = list(_FULL_LADDER if full_ladder else _LADDER)
    main_rung = (float(L), int(N))
    if main_rung not in ladder:
        ladder.append(main_rung)
    report = {
        "schema": 1,
        "command": "fredholm",
        "warnings": [],
        "status": "ok",
    }
    if N < 256:
        report["warnings"].append(
            f"N={N} is coarse; indices are indicative only")
    code = EXIT_OK
    entries = {}
    rows = {}
    # Rung by rung, the main rung first and each operator in turn on it,
    # so that the second operator reuses the sector solve of the first
    # (numerical_index keeps the last one); the report lists operators and
    # rows operator by operator, each operator's rows in ladder order.
    rungs = [main_rung] + [r for r in ladder if r != main_rung]
    try:
        for (L, N) in rungs:
            for which in which_list:
                if (L, N) == main_rung:
                    entries[which] = _fredholm_single(which, L, N)
                    row = entries[which]["result"]
                    if not entries[which]["ok"]:
                        code = EXIT_CHECK_FAILED
                else:
                    grid = _fredholm.build_grid(L, N)
                    row = _fredholm.numerical_index(
                        _fredholm.assemble_operator(which, grid)).to_json()
                rows[which, L, N] = {
                    "which": which, "L": L, "N": N,
                    "dim_ker": row["dim_ker"],
                    "dim_coker": row["dim_coker"],
                    "index": row["index"],
                    "gap_ratio": row["gap_ratio"],
                }
    except (_fredholm.BadParams, _fredholm.GridTooCoarse):
        raise  # input errors; main() maps them to EXIT_INPUT_ERROR
    except _fredholm.FredholmError as exc:
        report["error"] = {"type": type(exc).__name__, "detail": str(exc),
                           "suggestion": "double N and rerun"}
    report["operators"] = [entries[w] for w in which_list if w in entries]
    report["convergence"] = [rows[w, L, N] for w in which_list
                             for (L, N) in ladder if (w, L, N) in rows]
    if "error" in report:
        report["status"] = "fail"
        return report, EXIT_CHECK_FAILED
    ladder_ok = all(
        len({(r["dim_ker"], r["dim_coker"]) for r in report["convergence"]
             if r["which"] == which}) == 1
        for which in which_list)
    if not ladder_ok:
        report["warnings"].append("index varies across the ladder")
        code = EXIT_CHECK_FAILED
    if len(which_list) == 2:
        indices = [entries[w]["result"]["index"] for w in (1, 2)]
        report["index_pair"] = indices
        report["summary"] = f"index ({indices[0]},{indices[1]})"
    report["status"] = "ok" if code == EXIT_OK else "fail"
    return report, code


def _text_fredholm(report: dict) -> str:
    lines = []
    if "error" in report:
        err = report["error"]
        lines.append(f"error: {err['type']}: {err['detail']}")
        lines.append(f"suggestion: {err['suggestion']}")
    for entry in report.get("operators", []):
        r = entry["result"]
        gap = r["gap_ratio"]
        lines.append(
            f"S{entry['which']} (L={entry['L']:g},N={entry['N']}): "
            f"ker {r['dim_ker']} coker {r['dim_coker']} index {r['index']}"
            f" gap {gap:.3g}" if gap is not None else
            f"S{entry['which']}: ker {r['dim_ker']} coker {r['dim_coker']}")
        if entry["oracle_cosine"] is not None:
            lines.append(f"  parity {max(entry['parity_residuals']):.2e}, "
                         f"oracle cosine {entry['oracle_cosine']:.6f}")
    for row in report.get("convergence", []):
        lines.append(
            f"  ladder S{row['which']} (L={row['L']:g},N={row['N']}): "
            f"({row['dim_ker']},{row['dim_coker']})")
    if "summary" in report:
        lines.append(report["summary"])
    for w in report.get("warnings", []):
        lines.append(f"warning: {w}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# all
# ---------------------------------------------------------------------------

def run_all(seed: int, tol: dict):
    suites = {}
    code = EXIT_OK

    verdicts = []
    for name in _families.FAMILY_ORDER:
        g = _families.build_family(name)
        label = _classify.classify_md4(g)
        verdicts.append({"family": name, "got": label.family,
                         "ok": label.family == name})
    bar = {
        "aff-r": _classify.classify_md_bar(_families.aff_r()).tag,
        "aff-c": _classify.classify_md_bar(_families.aff_c()).tag,
        "h3": _classify.classify_md_bar(_families.heisenberg3()).tag,
    }
    classify_ok = (all(v["ok"] for v in verdicts)
                   and bar == {"aff-r": "AffR", "aff-c": "AffC",
                               "h3": "NotMDBar"})
    suites["classify"] = {"families": verdicts, "md_bar": bar,
                          "status": "ok" if classify_ok else "fail"}

    atlas_worst = 0.0
    rng = np.random.default_rng(seed)
    for name in _families.FAMILY_ORDER:
        params = _families.default_params(name)
        g = _families.build_family(name, *params)
        for _, _, model, sample in _atlas.atlas_bases(g, name, params, 2, 50,
                                                      rng):
            atlas_worst = max(atlas_worst, _max_residual(model, sample))
    atlas_ok = atlas_worst < tol["membership"]
    suites["atlas"] = {"max_residual": atlas_worst,
                       "status": "ok" if atlas_ok else "fail"}

    fol_report, _ = run_foliation(None, 100, seed, tol)
    suites["foliation"] = {"status": fol_report["status"]}

    kin_report, _ = run_kindex(4001, None)
    suites["kindex"] = {"status": kin_report["status"],
                        "checks": kin_report["checks"]}

    pair = _fredholm.index_pair(6.0, 1024)
    fred_ok = (pair[1].dim_ker, pair[1].dim_coker,
               pair[2].dim_ker, pair[2].dim_coker) == (1, 0, 1, 0)
    suites["fredholm"] = {
        "L": 6.0, "N": 1024,
        "index_pair": [pair[1].index, pair[2].index],
        "status": "ok" if fred_ok else "fail",
    }

    for sub in suites.values():
        if sub["status"] != "ok":
            code = EXIT_CHECK_FAILED
    report = {
        "schema": 1,
        "command": "all",
        "suites": suites,
        "status": "ok" if code == EXIT_OK else "fail",
    }
    return report, code


def _text_all(report: dict) -> str:
    lines = []
    for name, sub in report["suites"].items():
        verdict = "PASS" if sub["status"] == "ok" else "FAIL"
        extra = ""
        if name == "atlas":
            extra = f" (max residual {sub['max_residual']:.3e})"
        if name == "fredholm":
            pair = sub["index_pair"]
            extra = f" (index ({pair[0]},{pair[1]}))"
        lines.append(f"{name}: {verdict}{extra}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_atlas(report: dict) -> str:
    parts = [base["cloud_csv"]
             for entry in report["strata"] for base in entry["bases"]]
    if not parts:
        raise InputError("no point clouds sampled; pass --bases 1 or more")
    return "".join(parts)


def build_parser() -> _Parser:
    parser = _Parser(prog="orbiton",
                     description="coadjoint-orbit and index toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text, default, help, csv=None, seeded=False):
        """One subcommand: its runner, its renderers and its flags."""
        renderers = {"json": _json, "text": text}
        if csv is not None:
            renderers["csv"] = csv
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, renderers=renderers)
        p.add_argument("--output", default=None,
                       help="write the report to this path")
        p.add_argument("--format", choices=tuple(renderers), default=default)
        if seeded:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                           help="override a tolerance "
                                f"(known: {sorted(_DEFAULT_TOLERANCES)})")
        return p

    p = command("classify", run_classify, _text_classify, "json",
                "identify an algebra")
    p.add_argument("path", metavar="input", nargs="?", default=None,
                   help="path to an algebra JSON file")
    p.add_argument("--builtin", default=None,
                   help="builtin registry name instead of a file")

    p = command("atlas", run_atlas, _text_atlas, "json",
                "orbit models and point clouds",
                csv=_csv_atlas, seeded=True)
    p.add_argument("--family", required=True,
                   help="normal-form family name or alias")
    p.add_argument("--params", default=None, help="comma floats")
    p.add_argument("--base", default=None,
                   help="one functional, comma floats (else random bases)")
    p.add_argument("--bases", type=int, default=3,
                   help="random bases per stratum")
    p.add_argument("--samples", type=int, default=200,
                   help="orbit points per base, at least 1")

    p = command("foliation", run_foliation, _text_foliation, "text",
                "distribution rank and tangency", seeded=True)
    p.add_argument("--family", default=None)
    p.add_argument("--points", type=int, default=200)

    p = command("kindex", run_kindex, _text_kindex, "text",
                "K-theory fixture checks")
    p.add_argument("--grid", type=int, default=4001,
                   help="winding-number grid size")
    p.add_argument("--case", default=None,
                   help="run one named check, or 'affR'")

    p = command("fredholm", run_fredholm, _text_fredholm, "json",
                "numerical Fredholm indices")
    p.add_argument("--which", type=int, choices=(1, 2), default=None)
    p.add_argument("--L", type=float, default=8.0)
    p.add_argument("--N", type=int, default=2048)
    p.add_argument("--full-ladder", action="store_true",
                   help="include the (10,4096) rung")

    command("all", run_all, _text_all, "json", "run every suite",
            seeded=True)
    return parser


# Built once per process, since main may run many times in one.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        opts = vars(_PARSER.parse_args(argv))
    except _UsageError as exc:
        print(f"orbiton: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    command, run = opts.pop("command"), opts.pop("run")
    fmt, output = opts.pop("format"), opts.pop("output")
    render = opts.pop("renderers")[fmt]
    try:
        if "seed" in opts:
            opts["seed"] = _seed(opts["seed"])
            opts["tol"] = _tolerances(opts["tol"])
        report, code = run(**opts)
        text = render(report)
    except (InputError, ParseError, _fredholm.BadParams,
            _fredholm.GridTooCoarse) as exc:
        print(f"orbiton: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        if command == "atlas" and fmt == "json":
            _write_atlas_csvs(report, output)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
