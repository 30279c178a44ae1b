"""The three benchmark workloads: inputs from a seed, and one pass over them.

``setup(seed)`` builds every input of a workload from the seed alone
(family algebras, seeded bases, conjugating matrices, fixture diagrams);
the library then sees only those inputs.  ``run_pass(inputs, rec, chk)``
makes every timed library call through ``rec.call`` and records each
acceptance gate in ``chk``.  A pass is serial: each call waits for the one
before it.

Gates are those of ``tests/test_acceptance.py``, unchanged.  Where the
library exports the threshold it is read from there; the rest are the
criterion's literal values, named below.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from orbiton import (classify, cli, coadjoint as co, families, fredholm as fr,
                     kindex as kx, lie_core as lc, orbit_atlas as oa)

# Criterion 7: weighted cosine between the kernel vector and the ODE oracle.
ORACLE_COSINE_MIN = 0.999
# Criterion 3: orbit membership residual of every sampled point.
MEMBERSHIP_TOL = 1e-8
# Criterion 5: finite-difference tangency residual.
TANGENCY_TOL = 1e-6
# Criterion 1: recovered normal-form parameters.
PARAM_TOL = 1e-6
# Criteria 1 and 2: conjugating matrices have cond(P) <= 1e3.
GATED_COND = 1e3

# The default ladder of ``orbiton fredholm``.  The two rungs sit on either
# side of the library's dense-SVD / LU switch, so both solver paths run.
LADDER = ((6.0, 1024), (8.0, 2048))

ATLAS_BASES_PER_STRATUM = 2
ATLAS_POINTS = 200
TANGENCY_POINTS = 40

# Probe of known classify weaknesses.  Its labels are scored answers: a
# wrong label or an exception is a miss.
PROBE_CONDS = (1e4, 1e5)
PROBE_PER_FAMILY = 25
PROBE_SCALE = 1e-6


def _families():
    return [(name, families.default_params(name),
             families.build_family(name, *families.default_params(name)))
            for name in families.FAMILY_ORDER]


def random_gl(rng, n=4, max_cond=GATED_COND):
    """Random invertible matrix with cond(P) <= max_cond.

    Orthogonal factors around a log-uniform diagonal, as in the acceptance
    tests; mean-centred exponents keep det(P) near 1.
    """
    half = 0.5 * math.log10(max_cond)
    while True:
        exps = rng.uniform(-half, half, size=n)
        exps -= exps.mean()
        q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
        q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
        p = q1 @ np.diag(10.0 ** exps) @ q2
        if np.linalg.cond(p) <= max_cond:
            return p


def gl_at_cond(rng, cond, n=4):
    """Random invertible matrix whose condition number is exactly ``cond``.

    The extreme singular values are pinned at 10^(+-log10(cond)/2), the
    others drawn between them.
    """
    half = 0.5 * math.log10(cond)
    exps = np.concatenate([[-half, half], rng.uniform(-half, half, n - 2)])
    q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q1 @ np.diag(10.0 ** exps) @ q2


# ---------------------------------------------------------------------------
# Checks shared by the workloads and the self-test.
# ---------------------------------------------------------------------------

def label_ok(label, family, params) -> bool:
    if label.family != family:
        return False
    if not params:
        return True
    return max(abs(a - b) for a, b in zip(label.params, params)) < PARAM_TOL


def membership_ok(residual: float) -> bool:
    return residual < MEMBERSHIP_TOL


def exactness_ok(report: dict, expect_exact: bool) -> bool:
    return bool(report["all_exact"]) == expect_exact


def mutate_hexagon(d, mi, i, j):
    """The diagram with entry (i, j) of map ``mi`` bumped by one."""
    m = d.maps[mi]
    arr = [list(r) for r in m.matrix]
    arr[i][j] += 1
    maps = list(d.maps)
    maps[mi] = kx.GroupHom(m.src, m.dst, tuple(tuple(r) for r in arr))
    return kx.SixTermDiagram(d.nodes, tuple(maps))


# ---------------------------------------------------------------------------
# fredholm-ladder
# ---------------------------------------------------------------------------

def fredholm_setup(seed: int) -> dict:
    # The operators have no random input; every seed gives the same ladder.
    return {"tasks": tuple((which, L, N) for L, N in LADDER
                           for which in (1, 2))}


def fredholm_pass(inputs, rec, chk) -> None:
    for which, L, N in inputs["tasks"]:
        tag = f"N{N}"
        what = f"S{which} L={L:g} N={N}"
        try:
            grid = rec.call("fredholm.build_grid", fr.build_grid, L, N,
                            tag=tag)
            op = rec.call("fredholm.assemble_operator", fr.assemble_operator,
                          which, grid, tag=tag)
            rec.add("fredholm.matrix_bytes", op.matrix.nbytes)
            r = rec.call("fredholm.numerical_index", fr.numerical_index, op,
                         tag=tag, track_memory=True)
            del op  # free the matrix before the next rung assembles its own
            oracle = rec.call("fredholm.ode_kernel_oracle",
                              fr.ode_kernel_oracle, grid, tag=tag)
            parity = rec.call("fredholm.parity_check", fr.parity_check,
                              r.ker_vectors, which, tag=tag)
            cos = rec.call("fredholm.kernel_cosine", fr.kernel_cosine, grid,
                           r.ker_vectors[0], oracle.f, which, tag=tag)
        except (fr.FredholmError, IndexError) as exc:
            chk.error(what, exc)
            continue
        rec.low("fredholm.gap_ratio_min", r.gap_ratio)
        chk.check((r.dim_ker, r.dim_coker) == (1, 0),
                  f"{what}: (ker, coker) = ({r.dim_ker}, {r.dim_coker})")
        chk.check(r.gap_ratio > fr.GAP_MIN, f"{what}: gap {r.gap_ratio:.3g}")
        chk.check(all(p.ok and p.residual < fr.PARITY_TOL for p in parity),
                  f"{what}: parity {[p.residual for p in parity]}")
        chk.check(cos > ORACLE_COSINE_MIN, f"{what}: oracle cosine {cos}")


# ---------------------------------------------------------------------------
# orbit-atlas
# ---------------------------------------------------------------------------

def atlas_setup(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for name, params, g in _families():
        for stratum in oa.strata_names(name, params):
            for _ in range(ATLAS_BASES_PER_STRATUM):
                base = oa.random_base(name, stratum, rng, params)
                cases.append((name, params, g, stratum, base,
                              int(rng.integers(2 ** 31))))
    return {"cases": cases}


def atlas_pass(inputs, rec, chk) -> None:
    for name, params, g, stratum, base, sample_seed in inputs["cases"]:
        what = f"{name}/{stratum}"
        model = rec.call("orbit_atlas.orbit_model", oa.orbit_model, name,
                         base, params)
        dim = rec.call("coadjoint.orbit_dimension", co.orbit_dimension, g,
                       base)
        chk.check(model.dim == dim, f"{what}: model dim {model.dim} != {dim}")
        sample = rec.call("coadjoint.sample_orbit", co.sample_orbit, g, base,
                          ATLAS_POINTS, seed=sample_seed)
        rec.add("coadjoint.points", len(sample.points))
        kind = "curve" if model.kind == "ParamCurveCylinder" else "closed"
        for k, p in enumerate(sample.points):
            res = rec.call("orbit_atlas.orbit_membership",
                           oa.orbit_membership, model, p, tag=kind)
            chk.check(membership_ok(res), f"{what} point {k}: {res:.2e}")


# ---------------------------------------------------------------------------
# structure-scan
# ---------------------------------------------------------------------------

MD4_CONJUGATIONS = 10
MD_BAR_CONJUGATIONS = 10
RANK_PAIRS = 1000
RANK_AT_POINTS = 20
SNF_MATRICES = 200
HEXAGON_MUTATIONS = 20


def structure_setup(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    fams = _families()

    md4 = []
    labelled = fams + [("DecomposableRnPlus", (), families.abelian(4))]
    for name, params, g in labelled:
        expected = (families.canonical_params(name, params)
                    if name in families.FAMILIES else ())
        for k in range(MD4_CONJUGATIONS):
            md4.append((g, random_gl(rng), name, expected, k))

    md_bar = []
    for g, tag in ((families.aff_r(), "AffR"), (families.aff_c(), "AffC")):
        md_bar += [(g, random_gl(rng, n=g.dim), tag)
                   for _ in range(MD_BAR_CONJUGATIONS)]
    md_bar.append((families.heisenberg3(), None, "NotMDBar"))

    rank_pairs = []
    for _ in range(RANK_PAIRS):
        name, _, g = fams[rng.integers(len(fams))]
        F = rng.standard_normal(4) * 10.0 ** rng.uniform(-2, 2)
        rank_pairs.append((name, g, F))

    foliation = []
    for name, params, g in fams:
        strata = [s for s in oa.strata_names(name, params)
                  if s != "fixed-points"]
        points = [oa.random_base(name, s, rng, params)
                  for s in strata for _ in range(RANK_AT_POINTS)]
        samples = [(oa.random_base(name, s, rng, params),
                    int(rng.integers(2 ** 31))) for s in strata]
        foliation.append((name, params, g, points, samples))

    exponential = [(g, name not in ("g424", "g441")) for name, _, g in fams]
    exponential += [(families.build_family("g423", math.pi / 2), False),
                    (families.build_family("g434", 2.0, math.pi / 2), False)]

    lifts = kx.vertex_lift_loops()
    windings = [(kx.u_plus_loop(), 1, True), (lifts[0][0], -1, False),
                (lifts[0][-1], 1, False)]

    hexagons = [kx.hexagon(name) for name in kx.hexagon_names()]
    pool = [(h, mi, i, j) for h in hexagons
            for mi, m in enumerate(h.maps)
            for i, row in enumerate(m.matrix) for j in range(len(row))]
    mutants = [mutate_hexagon(*pool[k])
               for k in rng.choice(len(pool), size=HEXAGON_MUTATIONS,
                                   replace=False)]

    snf = [rng.integers(-9, 10, size=tuple(rng.integers(1, 7, size=2)))
           for _ in range(SNF_MATRICES)]

    argvs = [["classify", b] for b in families.builtin_names()]
    argvs.append(["kindex"])

    probe = []
    for cond in PROBE_CONDS:
        for name, params, g in fams:
            for k in range(PROBE_PER_FAMILY):
                probe.append((g, gl_at_cond(rng, cond), name, k))
    for name, params, g in fams:
        probe.append((lc.LieAlgebra(dim=4, c=g.c * PROBE_SCALE), None,
                      name, 0))

    return {"md4": md4, "md_bar": md_bar, "rank_pairs": rank_pairs,
            "foliation": foliation, "exponential": exponential,
            "windings": windings, "hexagons": hexagons, "mutants": mutants,
            "snf": snf, "argvs": argvs, "probe": probe}


def _classify(inputs, rec, chk) -> None:
    # Labels under random conjugations are scored, not gated: the
    # acceptance tests gate them at one fixed seed, and some other seeds
    # draw a conjugation (cond <= 1e3) that the classifier gets wrong.
    for g, p, name, expected, k in inputs["md4"]:
        h = rec.call("lie_core.change_basis", lc.change_basis, g, p)
        try:
            lab = rec.call("classify.classify_md4", classify.classify_md4, h,
                           seed=k, tag="conj")
            hit = label_ok(lab, name, expected)
        except lc.LieAlgebraError:
            hit = False
        chk.answer(hit)
        rec.add("classify.conj_miss", not hit)
    for g, p, tag in inputs["md_bar"]:
        if p is None:
            lab = rec.call("classify.classify_md_bar",
                           classify.classify_md_bar, g)
            chk.check(lab.tag == tag, f"md_bar {tag}: got {lab.tag}")
            continue
        h = rec.call("lie_core.change_basis", lc.change_basis, g, p)
        lab = rec.call("classify.classify_md_bar", classify.classify_md_bar,
                       h)
        chk.answer(lab.tag == tag)
        rec.add("classify.conj_miss", lab.tag != tag)
    for g, want in inputs["exponential"]:
        ok, _ = rec.call("classify.is_exponential", classify.is_exponential,
                         g)
        chk.check(ok == want, f"is_exponential: {ok}, want {want}")


def _coadjoint_small(inputs, rec, chk) -> None:
    for name, g, F in inputs["rank_pairs"]:
        rank = rec.call("coadjoint.orbit_dimension", co.orbit_dimension, g, F)
        allowed = {0, 4} if name == "g424" else {0, 2}
        chk.check(rank in allowed, f"rank {name} {F}: {rank}")
    for name, params, g, points, samples in inputs["foliation"]:
        spec = rec.call("orbit_atlas.distribution_spec",
                        oa.distribution_spec, name, params)
        want = 4 if name == "g424" else 2
        chk.check(spec.generic_rank == want,
                  f"{name}: generic rank {spec.generic_rank}")
        for p in points:
            r = rec.call("orbit_atlas.distribution_rank_at",
                         oa.distribution_rank_at, spec, p)
            chk.check(r == want, f"{name} rank at {p}: {r}")
        for base, sample_seed in samples:
            sample = rec.call("coadjoint.sample_orbit", co.sample_orbit, g,
                              base, TANGENCY_POINTS, seed=sample_seed)
            rec.add("coadjoint.points", len(sample.points))
            tan = rec.call("orbit_atlas.check_tangency", oa.check_tangency,
                           spec, sample, g)
            chk.check(tan < TANGENCY_TOL, f"{name} tangency {tan:.2e}")


def _kindex_fixtures(inputs, rec, chk) -> None:
    for loop, want, exact_raw in inputs["windings"]:
        w = rec.call("kindex.winding_number", kx.winding_number, loop)
        ok = w.integer == want and (
            not exact_raw or abs(w.raw - want) < kx.WINDING_INT_ATOL)
        chk.check(ok, f"winding {w}, want {want}")
    for d in inputs["hexagons"]:
        rep = rec.call("kindex.six_term_check", kx.six_term_check, d)
        chk.check(exactness_ok(rep, True), f"hexagon not exact: {rep}")
    for d in inputs["mutants"]:
        rep = rec.call("kindex.six_term_check", kx.six_term_check, d)
        chk.check(exactness_ok(rep, False), "mutated hexagon still exact")
    for m in inputs["snf"]:
        U, D, V = rec.call("kindex.smith_normal_form", kx.smith_normal_form,
                           m)
        ok = (U.astype(object) @ m.astype(object) @ V.astype(object)
              == D).all()
        ok = ok and abs(rec.call("kindex.integer_det", kx.integer_det,
                                 U)) == 1
        ok = ok and abs(rec.call("kindex.integer_det", kx.integer_det,
                                 V)) == 1
        diag = [int(D[i, i]) for i in range(min(m.shape))]
        ok = ok and all((a == 0 and b == 0) or (a != 0 and b % a == 0)
                        for a, b in zip(diag, diag[1:]))
        chk.check(bool(ok), f"smith normal form of {m.tolist()}")


def _cli_main(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli(inputs, rec, chk) -> None:
    for argv in inputs["argvs"]:
        code, text = rec.call("cli.main", _cli_main, argv)
        rec.add("cli.report_bytes", len(text.encode()))
        if argv[0] == "classify":
            status = json.loads(text)["status"]
        else:
            status = text.rstrip().rsplit("status: ", 1)[-1]
        chk.check(code == cli.EXIT_OK and status == "ok",
                  f"orbiton {' '.join(argv)}: exit {code}, status {status}")


def _probe(inputs, rec, chk) -> None:
    for g, p, name, k in inputs["probe"]:
        try:
            h = g if p is None else rec.call("lie_core.change_basis",
                                             lc.change_basis, g, p)
            lab = rec.call("classify.classify_md4", classify.classify_md4, h,
                           seed=k, tag="probe")
            hit = lab.family == name
        except (lc.LieAlgebraError, np.linalg.LinAlgError):
            hit = False
        chk.answer(hit)
        rec.add("classify.probe_miss", not hit)


def structure_pass(inputs, rec, chk) -> None:
    _classify(inputs, rec, chk)
    _coadjoint_small(inputs, rec, chk)
    _kindex_fixtures(inputs, rec, chk)
    _cli(inputs, rec, chk)
    _probe(inputs, rec, chk)


WORKLOADS = {
    "fredholm-ladder": (fredholm_setup, fredholm_pass),
    "orbit-atlas": (atlas_setup, atlas_pass),
    "structure-scan": (structure_setup, structure_pass),
}


# ---------------------------------------------------------------------------
# Self-test: each check must reject a planted fault and pass its control.
# ---------------------------------------------------------------------------

def self_test(chk) -> None:
    """Three planted faults, each next to its unfaulted control.

    A correct checker ends with 6 attempted and exactly the 3 planted
    faults failed.
    """
    rng = np.random.default_rng(0)
    g = families.build_family("g442")
    base = oa.random_base("g442", "hyperbolic-paraboloids", rng)
    model = oa.orbit_model("g442", base)
    point = co.sample_orbit(g, base, 1, seed=0).points[0]
    chk.check(membership_ok(oa.orbit_membership(model, point)),
              "control: sampled orbit point")
    chk.check(membership_ok(oa.orbit_membership(model,
                                                point + [0, 0, 0, 1e-3])),
              "planted: perturbed orbit point")

    hexagon = kx.hexagon("gamma4")
    chk.check(exactness_ok(kx.six_term_check(hexagon), True),
              "control: gamma4 hexagon")
    chk.check(exactness_ok(kx.six_term_check(
        mutate_hexagon(hexagon, 1, 0, 0)), True),
        "planted: mutated hexagon map")

    label = classify.classify_md4(families.build_family("g411"))
    chk.check(label_ok(label, "g411", ()), "control: g411 label")
    chk.check(label_ok(label, "g412", ()), "planted: wrong expected label")
