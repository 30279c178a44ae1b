"""Acceptance gate: the ten contract criteria, one pass/fail line each.

Every test prints a single ``criterion N: PASS/FAIL (...)`` line (visible
with ``pytest -s`` or on failure) and asserts both the numerical gates and
the stated runtime budget.
"""

import math
import time

import numpy as np

from orbiton import (classify, coadjoint as co, families, fredholm as fr,
                     kindex as kx, lie_core as lc, orbit_atlas as oa)

from conftest import family_fixtures, random_gl


def _verdict(num, ok, detail, dt=None):
    stamp = f"; {dt:.1f}s" if dt is not None else ""
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail}{stamp})"
    print(line)
    assert ok, line


def test_criterion_01_md4_classification_under_basis_changes():
    # 13 family labels (12 normal forms + decomposable R^4), 100 random
    # GL4 conjugations each, parameters recovered to 1e-6, under 10s.
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    cases = [(name, params, g) for name, params, g in family_fixtures()]
    cases.append(("DecomposableRnPlus", (), families.abelian(4)))
    for name, params, g in cases:
        expected = (families.canonical_params(name, params)
                    if name in families.FAMILIES else ())
        for k in range(100):
            h = lc.change_basis(g, random_gl(rng))
            lab = classify.classify_md4(h, seed=k)
            assert lab.family == name, (name, k, lab.family, lab.reason)
            if expected:
                err = max(abs(a - b) for a, b in zip(lab.params, expected))
                worst = max(worst, err)
                assert err < 1e-6, (name, k, lab.params, expected)
    dt = time.perf_counter() - t0
    _verdict(1, dt < 10.0,
             f"13 labels x 100 bases, worst param error {worst:.1e}", dt)


def test_criterion_02_md_bar_classification():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    for build, tag in ((families.aff_r, "AffR"), (families.aff_c, "AffC")):
        g = build()
        for _ in range(100):
            h = lc.change_basis(g, random_gl(rng, n=g.dim))
            assert classify.classify_md_bar(h).tag == tag
    assert classify.classify_md_bar(families.heisenberg3()).tag == "NotMDBar"
    dt = time.perf_counter() - t0
    _verdict(2, dt < 2.0, "affR/affC stable over 100 bases, h3 rejected", dt)


def test_criterion_03_orbit_atlas_consistency():
    # every family x stratum, 20 bases x 200 sampled points: membership
    # residual < 1e-8 and model dimension equal to rank(B_F), under 60s.
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for name, params, g in family_fixtures():
        for stratum in oa.strata_names(name, params):
            for b in range(20):
                base = oa.random_base(name, stratum, rng, params)
                model = oa.orbit_model(name, base, params)
                assert model.dim == co.orbit_dimension(g, base), \
                    (name, stratum, b)
                sample = co.sample_orbit(g, base, 200, seed=2000 + b)
                res = max(oa.orbit_membership(model, p)
                          for p in sample.points)
                worst = max(worst, res)
                assert res < 1e-8, (name, stratum, b, res)
                checked += 1
    dt = time.perf_counter() - t0
    _verdict(3, dt < 60.0,
             f"{checked} bases x 200 points, worst residual {worst:.1e}", dt)


def test_criterion_04_even_rank_law():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    fams = family_fixtures()
    seen = {name: set() for name, _, _ in fams}
    for _ in range(10_000):
        name, params, g = fams[rng.integers(len(fams))]
        F = rng.standard_normal(4) * 10.0 ** rng.uniform(-2, 2)
        rank = co.orbit_dimension(g, F)
        allowed = {0, 4} if name == "g424" else {0, 2}
        assert rank in allowed, (name, F, rank)
        seen[name].add(rank)
    top_seen = all(max(s) > 0 for s in seen.values())
    dt = time.perf_counter() - t0
    _verdict(4, top_seen, "10^4 pairs, ranks only {0, max}", dt)


def test_criterion_05_foliation_rank_and_tangency():
    rng = np.random.default_rng(105)
    t0 = time.perf_counter()
    worst_tan = 0.0
    for name, params, g in family_fixtures():
        spec = oa.distribution_spec(name, params)
        want = 4 if name == "g424" else 2
        assert spec.generic_rank == want, name
        strata = [s for s in oa.strata_names(name, params)
                  if s != "fixed-points"]
        per = max(1, 1000 // len(strata))
        for stratum in strata:
            for _ in range(per):
                p = oa.random_base(name, stratum, rng, params)
                assert oa.distribution_rank_at(spec, p) == want, \
                    (name, stratum, p)
            base = oa.random_base(name, stratum, rng, params)
            sample = co.sample_orbit(g, base, 40, seed=3001)
            tan = oa.check_tangency(spec, sample, g)
            worst_tan = max(worst_tan, tan)
            assert tan < 1e-6, (name, stratum, tan)
    dt = time.perf_counter() - t0
    _verdict(5, True,
             f"rank law at 1000 points/family, worst tangency "
             f"{worst_tan:.1e}", dt)


def test_criterion_06_exponentiality():
    t0 = time.perf_counter()
    non_exponential = set()
    for name, params, g in family_fixtures():
        ok, _ = classify.is_exponential(g)
        if not ok:
            non_exponential.add(name)
    assert non_exponential == {"g424", "g441"}
    for name, params in (("g423", (math.pi / 2,)),
                         ("g434", (2.0, math.pi / 2))):
        ok, _ = classify.is_exponential(families.build_family(name, *params))
        assert not ok, (name, params)
    dt = time.perf_counter() - t0
    _verdict(6, True,
             "false exactly for g423(pi/2), g424, g434(.,pi/2), g441", dt)


def test_criterion_07_fredholm_index_pair():
    # Rung by rung, S2 right after S1 on an equal grid, so S2 reuses S1's
    # sector solve; each operator's budget sums its own calls.
    elapsed = {1: 0.0, 2: 0.0}
    main = {}
    for L, N in ((8.0, 2048), (6.0, 1024), (10.0, 4096)):
        for which in (1, 2):
            t0 = time.perf_counter()
            grid = fr.build_grid(L, N)
            r = fr.numerical_index(fr.assemble_operator(which, grid))
            assert (r.dim_ker, r.dim_coker) == (1, 0), (which, L, N)
            assert r.gap_ratio > 1e2, (which, L, N, r.gap_ratio)
            if N == 2048:
                parity = fr.parity_check(r.ker_vectors, which)
                assert all(p.ok and p.residual < 1e-6 for p in parity), \
                    which
                oracle = fr.ode_kernel_oracle(grid)
                cos = fr.kernel_cosine(grid, r.ker_vectors[0], oracle.f,
                                       which)
                assert cos > 0.999, (which, cos)
                main[which] = (r.gap_ratio, cos)
            elapsed[which] += time.perf_counter() - t0
    details = []
    for which in (1, 2):
        dt = elapsed[which]
        assert dt < 60.0, (which, dt)
        gap, cos = main[which]
        details.append(f"S{which} (1,0) gap {gap:.1e} "
                       f"cos {cos:.6f} [{dt:.1f}s]")
    _verdict(7, True, "index pair (1,1); " + "; ".join(details))


def test_criterion_08_winding_and_delta0_fixtures():
    t0 = time.perf_counter()
    w = kx.winding_number(kx.u_plus_loop())
    assert w.integer == 1 and abs(w.raw - 1) < 1e-6, w
    lifts = kx.vertex_lift_loops()
    assert kx.winding_number(lifts[0][0]).integer == -1
    assert kx.winding_number(lifts[0][-1]).integer == 1
    delta_p = kx.delta0_via_winding(kx.half_line_lift_loops())
    assert delta_p.matrix == ((1,), (1,))
    delta4 = kx.delta0_via_winding(lifts)
    assert delta4.matrix == ((-1, 1, 0, 0), (0, -1, 1, 0),
                             (0, 0, -1, 1), (1, 0, 0, -1))
    fx = kx.load_fixture("lifts")["idempotent"]
    grid = [(p * math.pi, r)
            for p in fx["phi_grid_over_pi"] for r in fx["r_grid"]]
    res = kx.idempotent_residual(kx.idempotent_p, grid)
    assert res < 1e-12, res
    dt = time.perf_counter() - t0
    _verdict(8, dt < 5.0,
             f"winding 1, lift rows exact, idempotent {res:.1e}", dt)


def test_criterion_09_six_term_exactness():
    t0 = time.perf_counter()
    for name in kx.hexagon_names():
        rep = kx.six_term_check(kx.hexagon(name))
        assert rep["all_exact"], (name, rep)
    # fixed mutation set: 20 seeded single-entry bumps across all
    # hexagons' nonempty maps, every one must break exactness
    pool = []
    for name in kx.hexagon_names():
        d = kx.hexagon(name)
        for mi, m in enumerate(d.maps):
            for i, row in enumerate(m.matrix):
                for j in range(len(row)):
                    pool.append((name, mi, i, j))
    rng = np.random.default_rng(109)
    picks = [pool[k] for k in rng.choice(len(pool), size=20, replace=False)]
    for name, mi, i, j in picks:
        d = kx.hexagon(name)
        m = d.maps[mi]
        arr = [list(r) for r in m.matrix]
        arr[i][j] += 1
        maps = list(d.maps)
        maps[mi] = kx.GroupHom(m.src, m.dst,
                               tuple(tuple(r) for r in arr))
        rep = kx.six_term_check(kx.SixTermDiagram(d.nodes, tuple(maps)))
        assert not rep["all_exact"], (name, mi, i, j)
    dt = time.perf_counter() - t0
    _verdict(9, dt < 1.0,
             "5 hexagons exact, 20/20 mutations rejected", dt)


def test_criterion_10_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)

    # lie_core invariants
    for name, params, g in family_fixtures():
        u, v, w = rng.standard_normal((3, 4))
        assert np.allclose(lc.bracket(g, u, v), -lc.bracket(g, v, u),
                           atol=1e-12)
        cyc = (lc.bracket(g, u, lc.bracket(g, v, w))
               + lc.bracket(g, v, lc.bracket(g, w, u))
               + lc.bracket(g, w, lc.bracket(g, u, v)))
        assert np.abs(cyc).max() < 1e-12
        a, b = rng.standard_normal(2)
        assert np.abs(lc.ad_matrix(g, a * u + b * v)
                      - a * lc.ad_matrix(g, u)
                      - b * lc.ad_matrix(g, v)).max() < 1e-12
        assert np.abs(lc.exp_ad(g, u) @ lc.exp_ad(g, -u)
                      - np.eye(4)).max() < 1e-10

    # coadjoint finite-difference tangent check
    h = 1e-5
    for name, params, g in family_fixtures():
        F = rng.standard_normal(4)
        for k in range(4):
            fd = (co.coadjoint_flow(g, F, [(k, h)])
                  - co.coadjoint_flow(g, F, [(k, -h)])) / (2 * h)
            assert np.abs(fd - co.flow_tangent(g, F, k)).max() < 1e-6

    # Smith normal form on 1000 random integer matrices
    for _ in range(1000):
        nr, nc = rng.integers(1, 7, size=2)
        m = rng.integers(-9, 10, size=(nr, nc))
        U, D, V = kx.smith_normal_form(m)
        assert (U.astype(object) @ m.astype(object)
                @ V.astype(object) == D).all()
        assert abs(kx.integer_det(U)) == 1
        assert abs(kx.integer_det(V)) == 1
        diag = [int(D[i, i]) for i in range(min(nr, nc))]
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)

    dt = time.perf_counter() - t0
    _verdict(10, True,
             "lie_core invariants, tangent check, SNF on 1000 matrices", dt)
