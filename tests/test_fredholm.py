"""Log-grid discretization of the half-line operators and their indices."""

import tracemalloc

import numpy as np
import pytest

from orbiton import fredholm as fr


@pytest.fixture(scope="module")
def grid8():
    return fr.build_grid(8.0, 2048)


@pytest.fixture(scope="module")
def op1_8(grid8):
    return fr.assemble_operator(1, grid8)


@pytest.fixture(scope="module")
def grid6():
    return fr.build_grid(6.0, 1024)


class TestGrid:
    def test_measure_and_symmetry(self, grid8):
        g = grid8
        assert abs(g.weights.sum() - 32.0) < 1e-9
        assert np.all(g.weights > 0)
        assert abs(g.nodes[0] - np.exp(-8.0)) < 1e-12
        assert abs(g.nodes[2047] - np.exp(8.0)) < 1e-8
        assert np.allclose(g.nodes[:2048], -g.nodes[2048:])

    def test_endpoint_rule_small(self):
        g = fr.build_grid(2.0, 16)
        assert abs(g.nodes[0] - np.exp(-2.0)) < 1e-14
        assert abs(g.nodes[15] - np.exp(2.0)) < 1e-13
        assert abs(g.weights.sum() - 8.0) < 1e-12

    def test_bad_params(self):
        for bad in ((0.0, 64), (-1.0, 64), (8.0, 15), (float("nan"), 64),
                    (float("inf"), 64)):
            with pytest.raises(fr.BadParams):
                fr.build_grid(*bad)

    def test_json(self, grid6):
        doc = grid6.to_json()
        assert doc["L"] == 6.0 and doc["N"] == 1024


class TestAssembly:
    def test_constant_function_example(self, grid8, op1_8):
        # exact integral of |a| over [-1,1] is 1, so S1 maps 1 to
        # 1 - 2 exp(-x^2/2)
        got = op1_8.matrix @ np.ones(2 * grid8.N)
        want = 1.0 - 2.0 * np.exp(-0.5 * grid8.nodes ** 2)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_parity_annihilation_exact(self, grid8, op1_8):
        # the odd kernel kills even functions and vice versa, to rounding
        op2 = fr.assemble_operator(2, grid8)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(grid8.N)
        even = np.concatenate([v, v])
        odd = np.concatenate([v, -v])
        assert np.max(np.abs(op2.matrix @ even - even)) < 1e-13
        assert np.max(np.abs(op1_8.matrix @ odd - odd)) < 1e-13

    def test_grid_too_coarse(self):
        with pytest.raises(fr.GridTooCoarse):
            fr.assemble_operator(1, fr.build_grid(8.0, 16))

    def test_unknown_operator(self, grid8):
        with pytest.raises(fr.BadParams):
            fr.assemble_operator(3, grid8)

    def test_compact_tail_decays(self, grid6):
        rep = fr.assemble_operator(1, grid6).compact_tail_report()
        assert rep["ratio_50_to_1"] < 0.05

    @pytest.mark.parametrize("which", (1, 2))
    def test_compact_tail_matches_full_svd(self, which):
        op = fr.assemble_operator(which, fr.build_grid(8.0, 64))
        rep = op.compact_tail_report(count=128)
        full = np.linalg.svd(op.compact_part(), compute_uv=False)
        assert len(rep["sigma"]) == 128
        assert np.allclose(rep["sigma"], full, rtol=0.0, atol=1e-13)
        assert rep["k0"] == int(np.count_nonzero(full >= 1e-8))


def _u_weights(k, h):
    """Reference quadrature of int_0^{kh} in steps of h: composite Simpson,
    a 3/8 block absorbing an odd panel count, trapezoid for one panel."""
    if k == 0:
        return np.zeros(1)
    if k == 1:
        return np.array([0.5 * h, 0.5 * h])
    w = np.zeros(k + 1)
    if k % 2 == 0:
        m = k
    elif k == 3:
        m = 0
    else:
        m = k - 3
    if m > 0:
        w[0] += h / 3.0
        w[m] += h / 3.0
        w[1:m:2] += 4.0 * h / 3.0
        w[2:m:2] += 2.0 * h / 3.0
    if m < k:
        w[m] += 3.0 * h / 8.0
        w[m + 1] += 9.0 * h / 8.0
        w[m + 2] += 9.0 * h / 8.0
        w[m + 3] += 3.0 * h / 8.0
    return w


def _shift_kernel_reference(n, h):
    """The kernel one row at a time: row k weights u = kh, ..., 0."""
    decay = np.exp(-2.0 * h * np.arange(n))
    t = np.zeros((n, n))
    for k in range(1, n):
        t[k, k::-1] = _u_weights(k, h) * decay[: k + 1]
    t[:, 0] += 0.5 * decay
    return t


class TestShiftKernel:
    @pytest.mark.parametrize("h", (0.1, 1.0 / 3.0, fr.MAX_LOG_STEP))
    def test_small_sizes_bitwise_equal_reference(self, h):
        for n in range(2, 41):
            got = fr._shift_kernel(n, h)
            assert got.tobytes() == _shift_kernel_reference(n, h).tobytes()

    @pytest.mark.parametrize("n,h",
                             ((1024, 12.0 / 1023), (2560, 16.0 / 2047)))
    def test_ladder_sizes_bitwise_equal_reference(self, n, h):
        got = fr._shift_kernel(n, h)
        assert got.tobytes() == _shift_kernel_reference(n, h).tobytes()


class TestOracle:
    def test_asymptotic_slopes(self, grid8):
        orc = fr.ode_kernel_oracle(grid8)
        assert abs(orc.slope_near_zero - 2.0) < 0.05
        assert abs(orc.slope_at_infinity + 2.0) < 0.05
        assert orc.window_ratio_zero < 0.05
        assert orc.window_ratio_infinity < 0.05

    def test_oracle_annihilated_by_operators(self, grid8, op1_8):
        orc = fr.ode_kernel_oracle(grid8)
        w = np.sqrt(grid8.weights)
        f1 = orc.as_kernel_vector(1)
        res1 = np.linalg.norm(w * (op1_8.matrix @ f1)) \
            / np.linalg.norm(w * f1)
        op2 = fr.assemble_operator(2, grid8)
        f2 = orc.as_kernel_vector(2)
        res2 = np.linalg.norm(w * (op2.matrix @ f2)) \
            / np.linalg.norm(w * f2)
        assert res1 < 1e-6
        assert res2 < 1e-6


class TestIndex:
    def test_s1_big_grid(self, grid8, op1_8):
        r = fr.numerical_index(op1_8)
        assert (r.dim_ker, r.dim_coker, r.index) == (1, 0, 1)
        # kernel 1-dimensionality: second singular value three orders up
        assert r.gap_ratio > 1e3
        pc = fr.parity_check(r.ker_vectors, 1)
        assert pc[0].ok and pc[0].residual < 1e-6
        orc = fr.ode_kernel_oracle(grid8)
        assert fr.kernel_cosine(grid8, r.ker_vectors[0], orc.f, 1) > 0.999

    def test_both_operators_small_grid(self, grid6):
        orc = fr.ode_kernel_oracle(grid6)
        for which in (1, 2):
            op = fr.assemble_operator(which, grid6)
            r = fr.numerical_index(op)
            assert (r.dim_ker, r.dim_coker) == (1, 0)
            assert r.gap_ratio > 1e2
            pc = fr.parity_check(r.ker_vectors, which)
            assert pc[0].ok and pc[0].residual < 1e-6
            assert fr.kernel_cosine(grid6, r.ker_vectors[0],
                                    orc.f, which) > 0.999

    def test_identity_has_zero_index(self):
        ident = fr.DiscreteOperator(grid=fr.build_grid(1.0, 16),
                                    matrix=np.eye(32), which=1)
        r = fr.numerical_index(ident)
        assert (r.dim_ker, r.dim_coker, r.index) == (0, 0, 0)

    def test_coarse_64_still_resolves(self):
        # N=64 passes the step gate; the index is already clean there
        r = fr.numerical_index(fr.assemble_operator(1, fr.build_grid(8.0, 64)))
        assert (r.dim_ker, r.dim_coker) == (1, 0)
        assert r.gap_ratio > 1e2

    def test_fixed_threshold_policy(self, grid6):
        op = fr.assemble_operator(1, grid6)
        r = fr.numerical_index(op, threshold_policy=1e-6)
        assert r.threshold == 1e-6
        assert (r.dim_ker, r.dim_coker) == (1, 0)

    def test_result_json(self, grid6):
        r = fr.numerical_index(fr.assemble_operator(2, grid6))
        doc = r.to_json()
        assert doc["index"] == doc["dim_ker"] - doc["dim_coker"]
        assert isinstance(doc["sing_vals_near_zero"], list)


class TestParity:
    def test_zero_vector_degenerate(self):
        pc = fr.parity_check([np.zeros(8)], 1)
        assert pc[0].degenerate and pc[0].ok and pc[0].residual == 0.0

    def test_pure_parities(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(16)
        even = np.concatenate([v, v])
        odd = np.concatenate([v, -v])
        assert fr.parity_check([even], 1)[0].ok
        assert not fr.parity_check([odd], 1)[0].ok
        assert fr.parity_check([odd], 2)[0].ok


def _sector_spectrum(op, monkeypatch):
    """The 8 smallest singular values of the sector path, all converged.

    numerical_index only waits for the values that feed the gap gate;
    watching all 8 (gate = inf) with a tighter step rule settles the
    slowly converging ones near 1 as well.
    """
    monkeypatch.setattr(fr, "_ITER_CAP", 20000)
    monkeypatch.setattr(fr, "_ITER_RTOL", 1e-13)
    sector, _ = fr._weighted_sector(op)
    sig = fr._sector_triples(sector, 8, np.inf)[0]
    return np.sort(np.concatenate([sig, np.ones(8)]))[:8]


def _full_weighted(op):
    root = np.sqrt(op.grid.weights)
    return (root[:, None] * op.matrix) / root[None, :]


def _swap_symmetric_bump(op, i, j, d):
    """Copy of op with d added at (i, j) of all four blocks: the half-swap
    symmetry holds, A11 + A12 moves by 2d and A11 - A12 stays."""
    n = op.grid.N
    a = op.matrix.copy()
    for r, c in ((i, j), (n + i, n + j), (i, n + j), (n + i, j)):
        a[r, c] += d
    return fr.DiscreteOperator(grid=op.grid, matrix=a, which=op.which)


class TestSector:
    @pytest.mark.parametrize("N", (64, 128))
    @pytest.mark.parametrize("which", (1, 2))
    def test_smallest_values_match_dense_svd(self, which, N, monkeypatch):
        op = fr.assemble_operator(which, fr.build_grid(8.0, N))
        dense = np.linalg.svd(_full_weighted(op), compute_uv=False)[::-1]
        r = fr.numerical_index(op)
        # the values the gap gate reads: the kernel value and the next one
        assert len(r.sing_vals_near_zero) == 1
        gate = [r.sing_vals_near_zero[0],
                r.sing_vals_near_zero[0] * r.gap_ratio]
        assert np.allclose(gate, dense[:2], rtol=1e-9, atol=0.0)
        got = _sector_spectrum(op, monkeypatch)
        assert np.allclose(got, dense[:8], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("which", (1, 2))
    def test_full_spectrum_is_sector_plus_ones(self, which):
        op = fr.assemble_operator(which, fr.build_grid(8.0, 64))
        full = np.linalg.svd(_full_weighted(op), compute_uv=False)
        sector, _ = fr._weighted_sector(op)
        split = np.sort(np.concatenate([
            np.linalg.svd(sector, compute_uv=False), np.ones(64)]))[::-1]
        assert np.allclose(full, split, rtol=1e-12, atol=1e-13)

    def test_s1_and_s2_sectors_bitwise_equal(self, grid6):
        s1 = fr._sector(fr.assemble_operator(1, grid6))
        s2 = fr._sector(fr.assemble_operator(2, grid6))
        assert np.array_equal(s1, s2)
        assert not np.any(np.triu(s1, 1))

    def test_broken_half_swap_symmetry(self):
        op = fr.assemble_operator(1, fr.build_grid(8.0, 64))
        a = op.matrix.copy()
        a[3, 1] += 1e-3
        bad = fr.DiscreteOperator(grid=op.grid, matrix=a, which=1)
        with pytest.raises(fr.BadParams, match="half swap.*0.001"):
            fr.numerical_index(bad)

    def test_other_sector_not_identity(self):
        op = fr.assemble_operator(2, fr.build_grid(8.0, 64))
        # the sector of which=2 is A11 - A12; the bump moves the other
        bad = _swap_symmetric_bump(op, 3, 1, 1e-3)
        with pytest.raises(fr.BadParams, match="not the identity.*0.002"):
            fr.numerical_index(bad)

    def test_sector_not_lower_triangular(self):
        op = fr.assemble_operator(1, fr.build_grid(8.0, 64))
        bad = _swap_symmetric_bump(op, 1, 3, 1e-3)
        with pytest.raises(fr.BadParams, match="lower-triangular.*0.002"):
            fr.numerical_index(bad)

    def test_exactly_singular_sector(self):
        # A11 = (I + T)/2, A12 = (T - I)/2: sector T is strictly lower
        # triangular, the other sector is exactly I
        g = fr.build_grid(8.0, 64)
        t = np.tril(np.ones((64, 64)), -1)
        eye = np.eye(64)
        a = np.block([[(eye + t) / 2, (t - eye) / 2],
                      [(t - eye) / 2, (eye + t) / 2]])
        op = fr.DiscreteOperator(grid=g, matrix=a, which=1)
        with pytest.raises(fr.BadParams, match="exactly singular"):
            fr.numerical_index(op)

    def test_iteration_cap_fails_closed(self, monkeypatch):
        op = fr.assemble_operator(1, fr.build_grid(8.0, 64))
        monkeypatch.setattr(fr, "_ITER_CAP", 1)
        with pytest.raises(fr.NotConverged) as info:
            fr.numerical_index(op)
        assert info.value.iterations == 1
        assert isinstance(info.value, fr.FredholmError)

    def test_iterations_recorded_outside_json(self, grid6):
        r = fr.numerical_index(fr.assemble_operator(1, grid6))
        assert 2 <= r.iterations <= fr._ITER_CAP
        assert "iterations" not in r.to_json()


class TestStreamedSector:
    """The streamed sector pass: blocks of _SECTOR_ROWS rows, last one short."""

    N = 2 * fr._SECTOR_ROWS + 3

    @pytest.fixture(scope="class")
    def grid(self):
        return fr.build_grid(8.0, self.N)

    @pytest.mark.parametrize("which", (1, 2))
    def test_weighted_sector_bitwise_whole_matrix_formula(self, grid, which):
        op = fr.assemble_operator(which, grid)
        n = grid.N
        a11, a12 = op.matrix[:n, :n], op.matrix[:n, n:]
        want = a11 + a12 if which == 1 else a11 - a12
        assert np.array_equal(fr._sector(op), want)
        root = np.sqrt(grid.weights[:n])
        want *= root[:, None]
        want /= root[None, :]
        sector, got_root = fr._weighted_sector(op)
        assert np.array_equal(got_root, root)
        assert sector.tobytes() == want.tobytes()

    # Rows of a small and of the largest defect: the largest sits in the
    # last row block, then in the first.
    ROWS = pytest.mark.parametrize("small,big", ((3, N - 2), (N - 2, 3)))

    @ROWS
    def test_half_swap_reports_global_largest(self, grid, small, big):
        op = fr.assemble_operator(1, grid)
        a = op.matrix.copy()
        a[small, 1] += 1e-4
        a[self.N + big, 5] += 3e-3
        bad = fr.DiscreteOperator(grid=grid, matrix=a, which=1)
        with pytest.raises(fr.BadParams,
                           match=r"half swap.*deviation 0\.003$"):
            fr.numerical_index(bad)

    @ROWS
    def test_other_sector_reports_global_largest(self, grid, small, big):
        op = fr.assemble_operator(2, grid)
        bad = _swap_symmetric_bump(op, small, 1, 1e-4)
        bad = _swap_symmetric_bump(bad, big, 2, 1.5e-3)
        with pytest.raises(fr.BadParams,
                           match=r"not the identity.*deviation 0\.003 "):
            fr.numerical_index(bad)

    @ROWS
    def test_triangularity_reports_global_largest(self, grid, small, big):
        op = fr.assemble_operator(1, grid)
        bad = _swap_symmetric_bump(op, small - 2, small, 1e-4)
        bad = _swap_symmetric_bump(bad, big - 1, big + 1, 1.5e-3)
        with pytest.raises(fr.BadParams,
                           match=r"lower-triangular.*deviation 0\.003$"):
            fr.numerical_index(bad)
        with pytest.raises(fr.BadParams, match="lower-triangular"):
            bad.compact_tail_report()

    def test_half_swap_wins_over_triangularity(self, grid):
        op = fr.assemble_operator(1, grid)
        bad = _swap_symmetric_bump(op, 1, 3, 1e-3)
        a = bad.matrix.copy()
        a[self.N - 1, 2] += 1e-3
        bad = fr.DiscreteOperator(grid=grid, matrix=a, which=1)
        with pytest.raises(fr.BadParams, match="half swap"):
            fr.numerical_index(bad)


def test_index_peak_memory(grid6):
    """numerical_index allocates the sector, one scratch block and the
    padded window's kernel, not full-size temporaries of the sector."""
    op = fr.assemble_operator(1, grid6)
    n = grid6.N
    window = fr._extended(grid6).grid.N
    bound = 1.1 * max(8 * window ** 2, 8 * n * n + 8 * fr._SECTOR_ROWS * n)
    tracemalloc.start()
    try:
        fr.numerical_index(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak / 2 ** 20, bound / 2 ** 20)
