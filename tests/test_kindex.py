"""Integer lattice algebra, exact hexagons, winding numbers, lift fixtures."""

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from orbiton import kindex as kx


GAMMA4_DELTA0 = ((-1, 1, 0, 0), (0, -1, 1, 0), (0, 0, -1, 1), (1, 0, 0, -1))


class TestSmithNormalForm:
    def test_row_vector(self):
        U, D, V = kx.smith_normal_form([[1, 1]])
        assert (D == [[1, 0]]).all()
        assert (U @ np.array([[1, 1]]) @ V == D).all()

    def test_diag_2_3(self):
        _, D, _ = kx.smith_normal_form([[2, 0], [0, 3]])
        assert list(np.diag(D)) == [1, 6]

    def test_circulant_difference_matrix(self):
        U, D, V = kx.smith_normal_form(GAMMA4_DELTA0)
        assert list(np.diag(D)) == [1, 1, 1, 0]
        assert (U @ np.array(GAMMA4_DELTA0) @ V == D).all()
        assert abs(kx.integer_det(U)) == 1
        assert abs(kx.integer_det(V)) == 1

    def test_random_matrices_vs_sympy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
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
            ref = sympy_snf(sympy.Matrix(m.tolist()))
            assert diag == [abs(int(ref[i, i])) for i in range(min(nr, nc))]

    def test_large_entries_no_overflow(self):
        rng = np.random.default_rng(1)
        m = rng.integers(-10**9, 10**9, size=(5, 5))
        U, D, V = kx.smith_normal_form(m)
        assert (U.astype(object) @ m.astype(object)
                @ V.astype(object) == D).all()

    def test_integer_kernel(self):
        k = kx.integer_kernel(np.array([[1, 1]]))
        assert k.shape[1] == 1
        assert (np.array([[1, 1]]) @ k == 0).all()
        assert kx.integer_kernel(np.eye(3, dtype=int)).shape[1] == 0

    def test_lattice_contains(self):
        gens = np.array([[2, 0], [0, 3]])
        assert kx.lattice_contains(gens, np.array([[2], [3]]))
        assert not kx.lattice_contains(gens, np.array([[1], [0]]))


class TestExactness:
    def test_identity_sequence(self):
        G = kx.free_group(2)
        ident = kx.GroupHom(G, G, ((1, 0), (0, 1)))
        z_in = kx.GroupHom(kx.ZERO, G, ((), ()))
        z_out = kx.GroupHom(G, kx.ZERO, ())
        assert kx.check_exact([z_in, ident, z_out]) == [True, True]

    def test_all_fixture_hexagons_exact(self):
        assert kx.hexagon_names() == [
            "affc_tilde", "gamma1", "gamma2", "gamma3", "gamma4"]
        for name in kx.hexagon_names():
            rep = kx.six_term_check(kx.hexagon(name))
            assert rep["all_exact"], (name, rep)

    def test_single_entry_mutations_rejected(self):
        d = kx.hexagon("gamma4")
        rejected = 0
        for mi, m in enumerate(d.maps):
            arr = [list(r) for r in m.matrix]
            for i in range(len(arr)):
                for j in range(len(arr[i])):
                    bumped = [r[:] for r in arr]
                    bumped[i][j] += 1
                    maps2 = list(d.maps)
                    maps2[mi] = kx.GroupHom(
                        m.src, m.dst, tuple(tuple(r) for r in bumped))
                    rep = kx.six_term_check(kx.SixTermDiagram(d.nodes,
                                                              tuple(maps2)))
                    assert not rep["all_exact"], (mi, i, j)
                    rejected += 1
        assert rejected == 24

    def test_shape_mismatch(self):
        G = kx.free_group(2)
        with pytest.raises(kx.ShapeMismatch):
            kx.GroupHom(G, G, ((1, 0),))

    def test_gamma4_rank_and_cokernel(self):
        # rank 3 with cokernel Z; the hexagon closes through it.
        arr = np.array(kx.hexagon("gamma4").maps[2].matrix)
        _, D, _ = kx.smith_normal_form(arr)
        assert list(np.diag(D)) == [1, 1, 1, 0]


class TestWinding:
    def test_u_plus_generator(self):
        w = kx.winding_number(kx.u_plus_loop())
        assert w.integer == 1
        assert abs(w.raw - 1) < 1e-6

    def test_constant_loop(self):
        w = kx.winding_number(kx.constant_loop(np.diag([1.0, 2.0])))
        assert w.integer == 0
        assert abs(w.raw) < 1e-9

    def test_additive_under_product(self):
        up = kx.u_plus_loop()
        prod = kx.MatrixLoop(lambda t: up.sample(t) @ up.sample(t), up.domain)
        assert kx.winding_number(prod, grid=16001).integer == 2

    def test_negates_under_inverse(self):
        up = kx.u_plus_loop()
        inv = kx.MatrixLoop(lambda t: np.linalg.inv(up.sample(t)), up.domain)
        assert kx.winding_number(inv, grid=16001).integer == -1

    def test_grid_refinement_stable(self):
        # once converged, doubling the grid never moves the integer and
        # barely moves the raw value
        up = kx.u_plus_loop()
        raws = {}
        for grid in (4001, 8001, 32001, 64001):
            w = kx.winding_number(up, grid=grid)
            assert w.integer == 1
            raws[grid] = w.raw
        assert abs(raws[8001] - 1) < abs(raws[4001] - 1)
        assert abs(raws[64001] - raws[32001]) < 1e-8

    def test_singular_loop(self):
        with pytest.raises(kx.SingularLoop):
            kx.winding_number(kx.constant_loop([[0.0]]))

    def test_coarse_grid_flagged(self):
        with pytest.raises(kx.NonIntegerResult):
            kx.winding_number(kx.u_plus_loop(), grid=7)


def _library_loops():
    loops = [kx.u_plus_loop(), kx.constant_loop(np.diag([1.0, 2.0]))]
    loops += kx.half_line_lift_loops()[0]
    for fam in kx.vertex_lift_loops():
        loops += fam
    return loops


class TestSamplerContract:
    def test_scalar_gives_matrix_and_array_gives_stack(self):
        for loop in _library_loops():
            a, b = loop.domain
            ts = np.linspace(a, b, 7)
            stack = loop.sample(ts)
            n = stack.shape[-1]
            assert stack.shape == (7, n, n)
            assert stack.dtype == complex
            for t, mat in zip(ts, stack):
                one = loop.sample(t)
                assert one.shape == (n, n)
                assert np.array_equal(one, mat)

    def test_constant_loop_broadcasts(self):
        loop = kx.constant_loop(np.diag([1.0, 2.0]))
        stack = loop.sample(np.linspace(0.0, 1.0, 5))
        assert stack.shape == (5, 2, 2)
        assert (stack == np.diag([1.0, 2.0])).all()

    @pytest.mark.parametrize("sampler, got", [
        (lambda t: np.eye(2), "(2, 2)"),
        (lambda t: np.exp(1j * t), "(6,)"),
        (lambda t: np.zeros(np.shape(t) + (2, 3)), "(6, 2, 3)"),
        (lambda t: np.ones((7, 1, 1)), "(7, 1, 1)"),
        (lambda t: np.ones((6, 1, 1, 1)), "(6, 1, 1, 1)"),
    ])
    def test_other_shapes_raise(self, sampler, got):
        loop = kx.MatrixLoop(sampler, (0.0, 1.0))
        with pytest.raises(ValueError) as err:
            loop.sample(np.linspace(0.0, 1.0, 6))
        assert f"shape {got}, expected (6, n, n)" in str(err.value)

    def test_scalar_sample_must_be_a_matrix(self):
        loop = kx.MatrixLoop(lambda t: np.exp(1j * t), (0.0, 1.0))
        with pytest.raises(ValueError, match=r"shape \(\), expected \(n, n\)"):
            loop.sample(0.5)

    def test_winding_rejects_a_per_point_sampler(self):
        # a sampler that ignores its array argument is never broadcast
        loop = kx.MatrixLoop(lambda t: np.eye(1), (0.0, 1.0))
        with pytest.raises(ValueError, match=r"expected \(4001, n, n\)"):
            kx.winding_number(loop)

    def test_two_dimensional_parameters_raise(self):
        with pytest.raises(ValueError, match="scalar or 1-D"):
            kx.u_plus_loop().sample(np.zeros((2, 2)))

    def test_winding_makes_one_sampler_call(self):
        up = kx.u_plus_loop()
        calls = []

        def sampler(t):
            calls.append(np.shape(t))
            return up.sampler(t)
        w = kx.winding_number(kx.MatrixLoop(sampler, up.domain))
        assert calls == [(4001,)]
        assert w == kx.winding_number(up)


class TestLiftFixtures:
    def test_idempotent_residual(self):
        fx = kx.load_fixture("lifts")["idempotent"]
        grid = [(p * np.pi, r)
                for p in fx["phi_grid_over_pi"] for r in fx["r_grid"]]
        assert kx.idempotent_residual(kx.idempotent_p, grid) < 1e-12

    def test_constant_projection_is_exact(self):
        res = kx.idempotent_residual(lambda t: np.diag([1.0, 0.0]),
                                     [0.0, 1.0])
        assert res == 0.0

    def test_perturbation_detected(self):
        fx = kx.load_fixture("lifts")["idempotent"]
        grid = [(p * np.pi, r)
                for p in fx["phi_grid_over_pi"] for r in fx["r_grid"]]
        res = kx.idempotent_residual(
            lambda phi, r: kx.idempotent_p(phi, r) + 1e-3 * np.ones((2, 2)),
            grid)
        assert 1e-4 < res < 1e-2

    def test_half_line_lifts_give_ones_row(self):
        delta = kx.delta0_via_winding(kx.half_line_lift_loops())
        assert delta.matrix == ((1,), (1,))
        assert delta.matrix == kx.hexagon("gamma1").maps[2].matrix

    def test_vertex_lifts_reproduce_gamma4_matrix(self):
        fams = kx.vertex_lift_loops()
        assert kx.vertex_lift_interval_count() == 4
        assert kx.winding_number(fams[0][0]).integer == -1
        assert kx.winding_number(fams[0][-1]).integer == 1
        delta = kx.delta0_via_winding(fams)
        assert delta.matrix == GAMMA4_DELTA0
        assert delta.matrix == kx.hexagon("gamma4").maps[2].matrix


class TestKTable:
    def test_entries(self):
        assert str(kx.k_table("point").k0) == "Z"
        assert kx.k_table("point").k1.is_zero
        assert str(kx.k_table("R").k1) == "Z"
        assert str(kx.k_table("R2").k0) == "Z"
        assert str(kx.k_table("S1").k1) == "Z"
        assert str(kx.k_table("S2").k0) == "Z^2"

    def test_unknown_space(self):
        with pytest.raises(kx.UnknownSpace):
            kx.k_table("S3")

    def test_connes_thom_shift(self):
        sh = kx.connes_thom_shift(kx.KPair(kx.Z, kx.ZERO), 1)
        assert sh.k0.is_zero and sh.k1 == kx.Z
        assert kx.connes_thom_shift(sh, 1) == kx.KPair(kx.Z, kx.ZERO)
        assert kx.connes_thom_shift(kx.KPair(kx.free_group(2), kx.Z), 3) \
            == kx.KPair(kx.Z, kx.free_group(2))
        k = kx.KPair(kx.free_group(3), kx.ZERO)
        assert kx.connes_thom_shift(k, 2) == k
