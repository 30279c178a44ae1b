"""Log-grid discretization of the half-line operators and their indices."""

import dataclasses
import functools
import json
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg

from orbiton import fredholm as fr

from conftest import child_json


@pytest.fixture(autouse=True)
def _empty_solve_memo(monkeypatch):
    """Start every test with an empty solve memo.  The memo is keyed by the
    grid, so a test that patches _gauss or _kernel_generators must not get
    a solve kept from the real block of an equal grid."""
    monkeypatch.setattr(fr, "_last_solve", None)


@pytest.fixture(scope="module")
def grid8():
    return fr.build_grid(8.0, 2048)


@pytest.fixture(scope="module")
def op1_8(grid8):
    return fr.assemble_operator(1, grid8)


@pytest.fixture(scope="module")
def grid6():
    return fr.build_grid(6.0, 1024)


_B = {
    1: np.array([[1.0, 1.0], [1.0, 1.0]]),
    2: np.array([[1.0, -1.0], [-1.0, 1.0]]),
}


def _volterra_reference(grid):
    """The half-line block V = diag(gauss) K, K from the per-row rule."""
    return fr._gauss(grid)[:, None] * _shift_kernel_reference(grid.N,
                                                              grid.h)


def _dense_reference(which, grid):
    """The 2N x 2N operator I - kron(B_i, V), for N <= 1024 only."""
    assert grid.N <= 1024
    a = -np.kron(_B[which], _volterra_reference(grid))
    a[np.diag_indices_from(a)] += 1.0
    return a


def _full_weighted(which, grid):
    root = np.sqrt(grid.weights)
    return (root[:, None] * _dense_reference(which, grid)) / root[None, :]


def _weighted_sector(op, k=None):
    """The leading k x k block of op.matrix (all of it by default) in the
    weighted geometry: W^(1/2) M W^(-1/2), the dense form of the block
    the index path solves."""
    root = np.sqrt(op.grid.weights[:op.grid.N])
    k = op.grid.N if k is None else k
    sector = op.matrix[:k, :k] * root[:k, None]
    sector /= root[None, :k]
    return sector


def _dense_deflated_size(m):
    """Start k of the trailing run of exact unit rows of a lower-triangular
    m, scanned on the dense block: row i counts when m[i, i] == 1 and
    m[i, :i] is all zero."""
    k = m.shape[0]
    while k and m[k - 1, k - 1] == 1.0 and not np.count_nonzero(
            m[k - 1, :k - 1]):
        k -= 1
    return k


def _patch_generators(monkeypatch, gauss=None, unit_diagonal=False):
    """Change the generators that the dense block and the index path both
    read: gauss(grid) becomes the row factor, and with unit_diagonal the
    kernel's diagonal is 1, so a row factor of 0.5 zeroes the diagonal
    (1 - b) - b exactly."""
    if gauss is not None:
        monkeypatch.setattr(fr, "_gauss", gauss)
    if unit_diagonal:
        inner = fr._kernel_generators

        def generators(n, h):
            p, head = inner(n, h)
            p[0] = 1.0
            head[np.diag_indices(head.shape[1])] = 1.0
            return p, head

        monkeypatch.setattr(fr, "_kernel_generators", generators)


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

    def test_arrays_are_read_only(self):
        # blocks and kept solves are built from these arrays
        g = fr.build_grid(8.0, 64)
        for a in (g.s, g.nodes, g.weights):
            with pytest.raises(ValueError):
                a[3] = 0.0


class TestAssembly:
    def test_constant_function_example(self, grid8, op1_8):
        # exact integral of |a| over [-1,1] is 1, so S1 maps 1 to
        # 1 - 2 exp(-x^2/2); 1 is even, so the block acts on one half
        got = op1_8.matrix @ np.ones(grid8.N)
        want = 1.0 - 2.0 * np.exp(-0.5 * grid8.nodes[:grid8.N] ** 2)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_parity_annihilation_exact(self, grid6):
        # the odd kernel kills even functions and vice versa, to rounding
        rng = np.random.default_rng(7)
        v = rng.standard_normal(grid6.N)
        even = np.concatenate([v, v])
        odd = np.concatenate([v, -v])
        a2 = _dense_reference(2, grid6)
        assert np.max(np.abs(a2 @ even - even)) < 1e-13
        del a2
        a1 = _dense_reference(1, grid6)
        assert np.max(np.abs(a1 @ odd - odd)) < 1e-13

    def test_grid_too_coarse(self):
        with pytest.raises(fr.GridTooCoarse):
            fr.assemble_operator(1, fr.build_grid(8.0, 16))

    def test_unknown_operator(self, grid8):
        with pytest.raises(fr.BadParams):
            fr.assemble_operator(3, grid8)

    def test_compact_tail_decays(self, grid6):
        # identity plus compact: the singular values of I - S_1 decay
        k = np.eye(grid6.N) - fr.assemble_operator(1, grid6).matrix
        sv = np.linalg.svd(k, compute_uv=False)
        assert sv[49] / sv[0] < 0.05


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


def _assert_dense_block_is_reference(n, h):
    """_dense_block from the generators against I - 2 diag(gauss) K with K
    from the per-row rule and the entries formed as -2 b off the diagonal
    and (1 - b) - b on it.  At gauss = 1/2 the off-diagonal entries are
    -K exactly; the second row factor varies from row to row."""
    p, head = fr._kernel_generators(n, h)
    kernel = _shift_kernel_reference(n, h)
    rng = np.random.default_rng(n)
    for gauss in (np.full(n, 0.5), rng.uniform(0.5, 2.0, n)):
        b = gauss[:, None] * kernel
        want = -2.0 * b
        d = np.diagonal(b)
        want[np.diag_indices(n)] = (1.0 - d) - d
        got = fr._dense_block(gauss, p, head)
        assert got.tobytes() == want.tobytes()


class TestShiftKernel:
    @pytest.mark.parametrize("h", (0.1, 1.0 / 3.0, fr.MAX_LOG_STEP))
    def test_small_sizes_bitwise_equal_reference(self, h):
        for n in range(2, 41):
            _assert_dense_block_is_reference(n, h)

    @pytest.mark.parametrize("n,h",
                             ((1024, 12.0 / 1023), (2560, 16.0 / 2047)))
    def test_ladder_sizes_bitwise_equal_reference(self, n, h):
        _assert_dense_block_is_reference(n, h)


class TestOracle:
    def test_asymptotic_slopes(self, grid8):
        orc = fr.ode_kernel_oracle(grid8)
        assert abs(orc.slope_near_zero - 2.0) < 0.05
        assert abs(orc.slope_at_infinity + 2.0) < 0.05
        assert orc.window_ratio_zero < 0.05
        assert orc.window_ratio_infinity < 0.05

    def test_oracle_annihilated_by_operators(self, grid8, op1_8):
        # the profile lifts to the parity sector of each operator, where
        # the operator acts as its block on each half
        orc = fr.ode_kernel_oracle(grid8)
        n = grid8.N
        w = np.sqrt(grid8.weights[:n])
        op2 = fr.assemble_operator(2, grid8)
        for op in (op1_8, op2):
            f = orc.as_kernel_vector(op.which)
            assert fr.parity_check([f], op.which)[0].residual == 0.0
            res = np.linalg.norm(w * (op.matrix @ f[:n])) \
                / np.linalg.norm(w * f[:n])
            assert res < 1e-6


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

    def test_identity_has_zero_index(self, monkeypatch):
        # gauss = 0 makes B = 0 and the block the identity
        _patch_generators(monkeypatch, gauss=lambda grid: np.zeros(grid.N))
        ident = fr.DiscreteOperator(grid=fr.build_grid(1.0, 16), which=1)
        assert np.array_equal(ident.matrix, np.eye(16))
        # every row is a unit row: nothing is left to iterate on
        assert _dense_deflated_size(ident.matrix) == 0
        assert fr._sector_block(ident.grid).shape == (0, 0)
        r = fr.numerical_index(ident)
        assert (r.dim_ker, r.dim_coker, r.index) == (0, 0, 0)
        assert r.sigma_max == 1.0

    def test_coarse_64_still_resolves(self):
        # N=64 passes the step gate; the index is already clean there
        r = fr.numerical_index(fr.assemble_operator(1, fr.build_grid(8.0, 64)))
        assert (r.dim_ker, r.dim_coker) == (1, 0)
        assert r.gap_ratio > 1e2

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

    @pytest.mark.parametrize("which", (0, 3))
    def test_kernel_cosine_rejects_unknown_which(self, which):
        grid = fr.build_grid(8.0, 64)
        with pytest.raises(fr.BadParams, match="which"):
            fr.kernel_cosine(grid, np.ones(2 * grid.N), np.ones(grid.N),
                             which)

    def test_checks_independent_of_blas_threads(self):
        # At N = 16384 every sum of both checks runs over more than the
        # 10000 elements where OpenBLAS splits a ddot over threads; the
        # values must be byte for byte the same under 1 and 2 threads.
        assert child_json(_CHECKS_CHILD, 1) == child_json(_CHECKS_CHILD, 2)


# Prints kernel_cosine and the parity residuals of one seeded vector at
# N = 16384, for both operators.
_CHECKS_CHILD = """
import json
import numpy as np
from orbiton import fredholm as fr
grid = fr.build_grid(8.0, 16384)
rng = np.random.default_rng(16384)
v = rng.standard_normal(2 * grid.N)
samples = rng.standard_normal(grid.N)
print(json.dumps([[fr.kernel_cosine(grid, v, samples, which),
                   fr.parity_check([v], which)[0].residual]
                  for which in (1, 2)]))
"""


def _sector_spectrum(op, monkeypatch):
    """The 8 smallest singular values of the sector path, all converged.

    numerical_index only waits for the values that feed the gap gate;
    watching all 8 (gate = inf) with a tighter step rule settles the
    slowly converging ones near 1 as well.
    """
    monkeypatch.setattr(fr, "_ITER_CAP", 20000)
    monkeypatch.setattr(fr, "_ITER_RTOL", 1e-13)
    sig = fr._sector_triples(fr._sector_block(op.grid), 8, np.inf)[0]
    return np.sort(np.concatenate([sig, np.ones(8)]))[:8]


_MP_STEPS = 4


@functools.lru_cache(maxsize=None)
def _kernel_value_mp(sector_bytes: bytes, n: int) -> float:
    """Smallest singular value of a lower-triangular n x n float block.

    Inverse iteration on M^T M in 40-digit mpmath, with the float entries
    taken exactly, from a seeded start.  The gap ratio of the sectors is
    about 1e6, so each step gains about 12 digits and _MP_STEPS = 4 steps
    settle the value far below double precision; the last step must move
    it by less than 1e-30.  Cached on the block's bytes, so the two
    operators, whose sectors are bitwise equal, share one reference.
    """
    m = np.frombuffer(sector_bytes).reshape(n, n)
    with mpmath.workdps(40):
        a = [[mpmath.mpf(float(v)) for v in row[:i + 1]]
             for i, row in enumerate(m)]
        x = [mpmath.mpf(float(v))
             for v in np.random.default_rng(n).standard_normal(n)]
        sigma = prev = None
        for _ in range(_MP_STEPS):
            y = []  # y = M^{-T} x by back substitution
            for i in reversed(range(n)):
                acc = x[i] - mpmath.fsum(a[j][i] * y[n - 1 - j]
                                         for j in range(i + 1, n))
                y.append(acc / a[i][i])
            y.reverse()
            x = []  # x = M^{-1} y by forward substitution
            for i in range(n):
                acc = y[i] - mpmath.fsum(a[i][j] * x[j] for j in range(i))
                x.append(acc / a[i][i])
            norm = mpmath.sqrt(mpmath.fsum(v * v for v in x))
            x = [v / norm for v in x]
            mx = [mpmath.fsum(a[i][j] * x[j] for j in range(i + 1))
                  for i in range(n)]
            prev, sigma = sigma, mpmath.sqrt(mpmath.fsum(v * v for v in mx))
        assert abs(sigma - prev) < mpmath.mpf("1e-30") * sigma
        return float(sigma)


class TestSector:
    @pytest.mark.parametrize("N", (64, 128))
    @pytest.mark.parametrize("which", (1, 2))
    def test_smallest_values_match_dense_svd(self, which, N, monkeypatch):
        # A dense SVD resolves the kernel value (about 7e-8) only to about
        # eps * sigma_max absolute, so that value is compared with the
        # 40-digit reference instead; the values near 1 with the dense SVD.
        grid = fr.build_grid(8.0, N)
        op = fr.assemble_operator(which, grid)
        sector = _weighted_sector(op)
        assert not np.triu(sector, 1).any()
        kernel = _kernel_value_mp(sector.tobytes(), N)
        dense = np.linalg.svd(_full_weighted(which, grid),
                              compute_uv=False)[::-1]
        r = fr.numerical_index(op)
        # the values the gap gate reads: the kernel value and the next one
        assert len(r.sing_vals_near_zero) == 1
        sigma = r.sing_vals_near_zero[0]
        assert np.isclose(sigma, kernel, rtol=1e-12, atol=0.0)
        assert np.isclose(sigma * r.gap_ratio, dense[1], rtol=1e-9, atol=0.0)
        got = _sector_spectrum(op, monkeypatch)
        assert np.isclose(got[0], kernel, rtol=1e-12, atol=0.0)
        assert np.allclose(got[1:], dense[1:8], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("which", (1, 2))
    def test_full_spectrum_is_sector_plus_ones(self, which):
        grid = fr.build_grid(8.0, 64)
        op = fr.assemble_operator(which, grid)
        full = np.linalg.svd(_full_weighted(which, grid), compute_uv=False)
        sector = _weighted_sector(op)
        split = np.sort(np.concatenate([
            np.linalg.svd(sector, compute_uv=False), np.ones(64)]))[::-1]
        assert np.allclose(full, split, rtol=1e-12, atol=1e-13)

    def test_s1_and_s2_sectors_bitwise_equal(self, grid6):
        s1 = fr.assemble_operator(1, grid6).matrix
        s2 = fr.assemble_operator(2, grid6).matrix
        assert s1.tobytes() == s2.tobytes()
        assert not np.any(np.triu(s1, 1))

    def test_exactly_singular_sector(self, monkeypatch):
        # gauss = 1/2 on a unit kernel diagonal makes the block strictly
        # lower-triangular
        _patch_generators(monkeypatch, gauss=lambda grid: np.full(grid.N, 0.5),
                          unit_diagonal=True)
        op = fr.DiscreteOperator(grid=fr.build_grid(8.0, 64), which=1)
        assert not np.triu(op.matrix).any()
        assert np.count_nonzero(op.matrix) == 64 * 63 // 2
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


class TestDenseReference:
    """The stored block against the 2N x 2N matrix I - kron(B_i, V)."""

    @pytest.fixture(scope="class", params=(64, 1024))
    def grid(self, request):
        return fr.build_grid(8.0 if request.param == 64 else 6.0,
                             request.param)

    @pytest.mark.parametrize("which", (1, 2))
    def test_parity_split(self, grid, which):
        n = grid.N
        a = _dense_reference(which, grid)
        a11, a12 = a[:n, :n], a[:n, n:]
        # the reflection swaps the halves: the matrix commutes with it
        assert np.array_equal(a11, a[n:, n:])
        assert np.array_equal(a12, a[n:, :n])
        s = 1.0 if which == 1 else -1.0
        other = a11 - s * a12
        other[np.diag_indices_from(other)] -= 1.0
        tol = 16.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(a12)))
        assert np.max(np.abs(other)) <= tol
        op = fr.assemble_operator(which, grid)
        assert (a11 + s * a12).tobytes() == op.matrix.tobytes()


class TestStreamedSector:
    """The block against the former streamed sector pass, on N = 131 rows:
    two whole 64-row blocks of that pass and a short one."""

    N = 131

    @pytest.fixture(scope="class")
    def grid(self):
        return fr.build_grid(8.0, self.N)

    @pytest.mark.parametrize("which", (1, 2))
    def test_weighted_sector_bitwise_whole_matrix_formula(self, grid, which):
        # the dense weighted reference of the tests below
        op = fr.assemble_operator(which, grid)
        n = grid.N
        a = _dense_reference(which, grid)
        a11, a12 = a[:n, :n], a[:n, n:]
        want = a11 + a12 if which == 1 else a11 - a12
        assert op.matrix.tobytes() == want.tobytes()
        root = np.sqrt(grid.weights[:n])
        want *= root[:, None]
        want /= root[None, :]
        assert _weighted_sector(op).tobytes() == want.tobytes()


class TestBlock:
    """What the constructor refuses, and the read-only block."""

    @pytest.fixture(scope="class")
    def op(self):
        return fr.assemble_operator(2, fr.build_grid(8.0, 64))

    def test_unknown_which(self, op):
        with pytest.raises(fr.BadParams, match="which"):
            fr.DiscreteOperator(grid=op.grid, which=3)

    def test_matrix_is_read_only(self, op):
        with pytest.raises(ValueError):
            op.matrix[5, 2] = 0.0
        with pytest.raises(ValueError):
            op.matrix *= 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.matrix = np.eye(64)


def test_assemble_peak_memory(grid6):
    """Assembling and reading the block allocate the N x N block and
    vectors, no more."""
    n = grid6.N
    tracemalloc.start()
    try:
        fr.assemble_operator(1, grid6).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * n * n, peak / 2 ** 20


def test_index_peak_memory(grid6):
    """numerical_index allocates the diagonal blocks of the deflated block
    and O(N) vectors: no k x k copy, no N x N temporary, no window
    kernel."""
    op = fr.assemble_operator(1, grid6)
    n = grid6.N
    k = fr._sector_block(grid6).shape[0]
    assert k < n
    # The solve's triangular blocks (k x _BLOCK) and the products' one
    # Toeplitz block; 8 * _PROBE columns of the solves and their QR, a few
    # vectors of the padded window: 64 vectors of length 2N covers both.
    bound = 8 * k * fr._BLOCK + 8 * fr._BLOCK ** 2 + 64 * 8 * 2 * n
    assert bound < 8 * k * k
    tracemalloc.start()
    try:
        fr.numerical_index(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "matrix" not in vars(op)
    assert peak <= bound, (peak / 2 ** 20, bound / 2 ** 20)


class TestStructuredBlock:
    """The block the index path applies and solves, built from its
    generators, against the dense weighted copy of op.matrix: deflated
    (k < N) on the ladder grids, undeflated (k = N) at L = 3, where
    exp(-x^2/2) stays above 1e-88, and cut into short blocks at N = 64."""

    CASES = ((8.0, 64, 256), (8.0, 64, 5), (8.0, 64, 16), (3.0, 64, 7),
             (6.0, 1024, 256), (8.0, 2048, 256))

    @pytest.fixture(scope="class", params=CASES,
                    ids=lambda c: "L{:g}-N{}-B{}".format(*c))
    def case(self, request):
        L, N, rows = request.param
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fr, "_BLOCK", rows)
            grid = fr.build_grid(L, N)
            block = fr._sector_block(grid)
        op = fr.assemble_operator(1, grid)
        return op, block

    def test_deflated_size_from_generators(self, case):
        op, block = case
        k = block.shape[0]
        assert k == _dense_deflated_size(op.matrix)
        assert (k == op.grid.N) == (op.grid.L == 3.0)

    def test_products_and_solves_match_dense(self, case):
        op, block = case
        k = block.shape[0]
        a = _weighted_sector(op, k)
        x = np.random.default_rng(3).standard_normal((k, 3))

        def close(got, want, rtol):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)

        for v in (x, x[:, 0]):
            close(block.matvec(v), a @ v, 1e-13)
            close(block.rmatvec(v), a.T @ v, 1e-13)
            close(block.solve(v), scipy.linalg.solve_triangular(
                a, v, lower=True), 1e-12)
            close(block.rsolve(v), scipy.linalg.solve_triangular(
                a, v, lower=True, trans="T"), 1e-12)

    def test_solve_factors_are_the_dense_diagonal_blocks(self, case):
        op, block = case
        a = 0
        for factor in block._factors:
            e = a + factor.shape[0]
            assert factor.tobytes() == op.matrix[a:e, a:e].tobytes()
            a = e
        assert a == block.shape[0]


def _dense_window(grid):
    """The padded window's I - 2 B as a matrix, and its weights."""
    window = fr._Window(grid)
    a = -2.0 * _volterra_reference(window.grid)
    a[np.diag_indices_from(a)] += 1.0
    return window, a, window.weights


class TestWindow:
    """The window's block applied from its generators against the dense
    I - 2 V of the window grid."""

    @pytest.mark.parametrize("L,N", ((6.0, 1024), (8.0, 64)))
    def test_apply_and_adjoint_match_dense(self, L, N):
        window, a, w = _dense_window(fr.build_grid(L, N))
        assert window.grid.N == N + 2 * window.offset
        rng = np.random.default_rng(5)
        for f in rng.standard_normal((3, window.grid.N)):
            want = a @ f
            got = window.apply(f)
            assert np.linalg.norm(got - want) <= \
                1e-13 * np.linalg.norm(want)
            # the adjoint in the weighted geometry, W^-1 A^T W
            want = (a.T @ (w * f)) / w
            got = window.apply_adjoint(f)
            assert np.linalg.norm(got - want) <= \
                1e-13 * np.linalg.norm(want)

    def test_head_columns_carry_the_corrections(self):
        # the first four columns are where the window differs from the
        # convolution: a unit vector there sees only its column, and the
        # adjoint's first four entries read those columns
        window, a, w = _dense_window(fr.build_grid(8.0, 64))
        for c in range(4):
            e = np.zeros(window.grid.N)
            e[c] = 1.0
            assert np.allclose(window.apply(e), a[:, c], rtol=0.0,
                               atol=1e-15)
        g = np.random.default_rng(6).standard_normal(window.grid.N)
        want = (a[:, :4].T @ (w * g)) / w[:4]
        assert np.allclose(window.apply_adjoint(g)[:4], want, rtol=1e-13,
                           atol=0.0)


class TestDeflation:
    @pytest.mark.parametrize("L,N,unit", ((6.0, 1024, 201),
                                          (8.0, 2048, 557)))
    def test_unit_rows_are_where_gauss_underflows(self, L, N, unit):
        grid = fr.build_grid(L, N)
        op = fr.assemble_operator(1, grid)
        k = fr._sector_block(grid).shape[0]
        assert k == _dense_deflated_size(op.matrix)
        assert N - k == unit
        assert np.array_equal(np.flatnonzero(fr._gauss(grid) == 0.0),
                              np.arange(k, N))
        tail = op.matrix[k:]
        assert np.array_equal(tail[:, k:], np.eye(N - k))
        assert not np.any(tail[:, :k])

    @pytest.mark.parametrize("last,unit", ((5e-324, True), (1e-320, False),
                                           (1e-310, False), (0.0, True)))
    def test_subnormal_row_factor_matches_dense_scan(self, last, unit,
                                                     monkeypatch):
        # gauss[-1] = 5e-324 rounds every product left of the diagonal to
        # 0, so that row is a unit row with a nonzero factor; larger
        # subnormals leave some products nonzero
        gauss = fr._gauss

        def patched(g):
            out = gauss(g)
            out[-1] = last
            return out

        _patch_generators(monkeypatch, gauss=patched)
        op = fr.DiscreteOperator(grid=fr.build_grid(8.0, 64), which=1)
        k = fr._sector_block(op.grid).shape[0]
        assert k == _dense_deflated_size(op.matrix)
        assert (k < 64) == unit

    @pytest.mark.parametrize("which", (1, 2))
    def test_vectors_vanish_on_deflated_rows(self, grid6, which):
        op = fr.assemble_operator(which, grid6)
        k = fr._sector_block(grid6).shape[0]
        n = grid6.N
        r = fr.numerical_index(op)
        assert len(r.ker_vectors) == len(r.coker_vectors) == 1
        for v in r.ker_vectors + r.coker_vectors:
            assert np.all(v[k:n] == 0.0) and np.all(v[n + k:] == 0.0)
            assert np.all(v[:k] != 0.0)

    @pytest.mark.parametrize("perturb", (False, True))
    def test_deflated_and_undeflated_match_dense_svd(self, perturb,
                                                     monkeypatch):
        grid = fr.build_grid(8.0, 64)
        if perturb:
            gauss = fr._gauss

            def perturbed(g):
                # a row factor where exp(-x^2/2) underflows: the last row
                # is no unit row
                out = gauss(g)
                out[-1] = 5e-4
                return out

            _patch_generators(monkeypatch, gauss=perturbed)
        op = fr.DiscreteOperator(grid=grid, which=1)
        k = fr._sector_block(grid).shape[0]
        assert k == _dense_deflated_size(op.matrix)
        assert (k == 64) if perturb else (k < 64)
        assert (op.matrix[-1, 5] != 0.0) == perturb
        full = _weighted_sector(op)
        dense = np.sort(np.concatenate([
            np.linalg.svd(full, compute_uv=False), np.ones(64)]))
        r = fr.numerical_index(op)
        assert len(r.sing_vals_near_zero) == 1
        gate = [r.sing_vals_near_zero[0],
                r.sing_vals_near_zero[0] * r.gap_ratio]
        # a dense SVD finds a value near 7e-8 to about eps * sigma_max
        # absolute, not to 1e-9 relative
        atol = 8 * np.finfo(float).eps * dense[-1]
        assert np.allclose(gate, dense[:2], rtol=1e-9, atol=atol)
        assert np.isclose(r.sigma_max, dense[-1], rtol=1e-9, atol=0.0)

    def test_sigma_max_cap_fails_closed(self, monkeypatch):
        op = fr.assemble_operator(1, fr.build_grid(8.0, 64))
        block = fr._sector_block(op.grid)
        sector = _weighted_sector(op, block.shape[0])
        want = np.linalg.svd(sector, compute_uv=False)[0]
        assert np.isclose(fr._sigma_max(block), want, rtol=1e-9, atol=0.0)
        monkeypatch.setattr(fr, "_SIGMA_CAP", 2)
        with pytest.raises(fr.NotConverged, match="sigma_max") as info:
            fr._sigma_max(block)
        assert info.value.iterations == 2
        with pytest.raises(fr.NotConverged, match="sigma_max"):
            fr.numerical_index(op)

    @pytest.mark.parametrize("row", (10, 63))
    def test_zero_diagonal_raises_before_iterating(self, row, monkeypatch):
        def no_iteration(*args):
            raise AssertionError("iterated before the diagonal check")

        monkeypatch.setattr(fr, "_sigma_max", no_iteration)
        monkeypatch.setattr(fr, "_sector_triples", no_iteration)
        # unit rows after the zero stay deflated; the zero is in the
        # leading block either way.  b = 1/2 there makes (1 - b) - b = 0.
        def gauss(grid):
            out = np.zeros(grid.N)
            out[row] = 0.5
            return out

        _patch_generators(monkeypatch, gauss=gauss, unit_diagonal=True)
        op = fr.DiscreteOperator(grid=fr.build_grid(8.0, 64), which=1)
        a = np.eye(64)
        a[row, row] = 0.0
        assert np.array_equal(np.delete(op.matrix, row, 0),
                              np.delete(a, row, 0))
        assert op.matrix[row, row] == 0.0
        assert np.all(op.matrix[row, :row] != 0.0)
        with pytest.raises(fr.BadParams,
                           match=f"exactly singular.*row {row}"):
            fr.numerical_index(op)


def _count_solves(monkeypatch) -> list:
    """Record the size of each sector solved."""
    calls = []
    inner = fr._sector_triples

    def counted(m, *args):
        calls.append(m.shape[0])
        return inner(m, *args)

    monkeypatch.setattr(fr, "_sector_triples", counted)
    return calls


def _count_blocks(monkeypatch, n) -> list:
    """Record the size of each full-size (n x n) dense block built; the
    blocked solve's diagonal blocks are smaller on a deflated grid."""
    calls = []
    inner = fr._dense_block

    def counted(gauss, *args):
        if gauss.size == n:
            calls.append(n)
        return inner(gauss, *args)

    monkeypatch.setattr(fr, "_dense_block", counted)
    return calls


def _result_bytes(r) -> tuple:
    """The sorted to_json text and the ker-then-coker vector bytes."""
    return (json.dumps(r.to_json(), sort_keys=True),
            b"".join(v.tobytes() for v in r.ker_vectors + r.coker_vectors))


class TestSharedSolve:
    """S_1 and S_2 on one grid share one sector solve, and nothing else."""

    @pytest.fixture(scope="class")
    def grid(self):
        return fr.build_grid(8.0, 64)

    def test_s2_after_s1_equals_fresh_solve(self, grid6, grid, monkeypatch):
        # S_2 on a separately built, equal grid, as the benchmark asks
        calls = _count_solves(monkeypatch)
        fr.numerical_index(fr.assemble_operator(1, grid6))
        op2 = fr.assemble_operator(2, fr.build_grid(6.0, 1024))
        hit = fr.numerical_index(op2)
        assert len(calls) == 1
        fr.numerical_index(fr.assemble_operator(1, grid))
        fresh = fr.numerical_index(op2)
        assert len(calls) == 3
        assert _result_bytes(hit) == _result_bytes(fresh)

    def test_hit_builds_no_block(self, grid, monkeypatch):
        fr.numerical_index(fr.assemble_operator(1, grid))
        built = _count_blocks(monkeypatch, grid.N)
        op2 = fr.assemble_operator(2, fr.build_grid(8.0, 64))
        r = fr.numerical_index(op2)
        assert (r.dim_ker, r.dim_coker) == (1, 0)
        assert "matrix" not in vars(op2)
        assert built == []

    def test_miss_builds_no_dense_block(self, grid, monkeypatch):
        built = _count_blocks(monkeypatch, grid.N)
        op = fr.assemble_operator(1, grid)
        r = fr.numerical_index(op)
        assert (r.dim_ker, r.dim_coker) == (1, 0)
        assert "matrix" not in vars(op)
        assert built == []
        # the dense reference is still built once, on first read
        assert op.matrix is vars(op)["matrix"]
        assert built == [64]

    def test_one_ulp_change_is_a_miss(self, grid, monkeypatch):
        calls = _count_solves(monkeypatch)
        fr.numerical_index(fr.assemble_operator(1, grid))
        # an equal grid is a hit
        fr.numerical_index(fr.assemble_operator(2, fr.build_grid(8.0, 64)))
        assert len(calls) == 1
        w = grid.weights.copy()
        w[3] = np.nextafter(w[3], 0.0)
        others = (
            # one weight moved by one ulp
            fr.LogGrid(L=grid.L, N=grid.N, s=grid.s, nodes=grid.nodes,
                       weights=w),
            # L moved by one ulp, s and the weights kept
            fr.LogGrid(L=np.nextafter(grid.L, np.inf), N=grid.N, s=grid.s,
                       nodes=grid.nodes, weights=grid.weights),
            fr.build_grid(8.0, 66))
        for i, other in enumerate(others):
            # each a miss after a solve on the grid, and the grid after it
            fr.numerical_index(fr.assemble_operator(1, other))
            assert len(calls) == 2 * i + 2
            fr.numerical_index(fr.assemble_operator(1, grid))
            assert len(calls) == 2 * i + 3

    @pytest.mark.parametrize("name,value", (
        ("_PROBE", 7), ("_ITER_RTOL", 1e-11), ("_ITER_CAP", 59),
        ("_SIGMA_CAP", 39), ("_BLOCK", 16)))
    def test_constants_are_read_at_call_time(self, grid, name, value,
                                             monkeypatch):
        op = fr.assemble_operator(1, grid)
        calls = _count_solves(monkeypatch)
        fr.numerical_index(op)
        monkeypatch.setattr(fr, name, value)
        fr.numerical_index(op)
        assert len(calls) == 2

    def test_iteration_cap_after_cached_solve(self, grid, monkeypatch):
        op = fr.assemble_operator(1, grid)
        calls = _count_solves(monkeypatch)
        fr.numerical_index(op)
        cap = fr._ITER_CAP
        monkeypatch.setattr(fr, "_ITER_CAP", 1)
        with pytest.raises(fr.NotConverged) as info:
            fr.numerical_index(fr.assemble_operator(2, grid))
        assert info.value.iterations == 1
        # the failed solve is not kept: the converged one still is
        monkeypatch.setattr(fr, "_ITER_CAP", cap)
        fr.numerical_index(op)
        assert len(calls) == 2

    def test_index_pair_solves_once(self, monkeypatch):
        calls = _count_solves(monkeypatch)
        pair = fr.index_pair(8.0, 64)
        assert len(calls) == 1
        assert (pair[1].index, pair[2].index) == (1, 1)

    def test_cached_arrays_are_read_only(self, grid, monkeypatch):
        _count_solves(monkeypatch)
        fr.numerical_index(fr.assemble_operator(1, grid))
        _, (_, _, *arrays, _) = fr._last_solve
        assert len(arrays) == 3
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_hit_allocates_less_than_the_weighted_copy(self, grid6,
                                                       monkeypatch):
        op1 = fr.assemble_operator(1, grid6)
        op2 = fr.assemble_operator(2, grid6)
        k = fr._sector_block(grid6).shape[0]
        calls = _count_solves(monkeypatch)
        fr.numerical_index(op1)
        tracemalloc.start()
        try:
            fr.numerical_index(op2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 1
        assert peak < 8 * k * k, (peak / 2 ** 20, 8 * k * k / 2 ** 20)


# numpy's LAPACK wrappers; numpy's wheel ships an OpenBLAS of its own.
_NUMPY_LAPACK = ("qr", "svd", "solve", "lstsq", "inv", "eig", "det",
                 "cholesky")


class _FirstSolve(Exception):
    """Stops _sector_triples at its first block solve."""


class TestOnePool:
    """Every LAPACK call of the index path on a sector-sized array goes
    through scipy.linalg, so the solve wakes one OpenBLAS thread pool."""

    def test_no_numpy_lapack_on_sector_sized_arrays(self, monkeypatch):
        def guarded(name, inner):
            def call(a, *args, **kwargs):
                if max(np.shape(a), default=0) >= 64:
                    raise AssertionError(
                        f"np.linalg.{name} on shape {np.shape(a)}")
                return inner(a, *args, **kwargs)
            return call

        for name in _NUMPY_LAPACK:
            monkeypatch.setattr(
                np.linalg, name, guarded(name, getattr(np.linalg, name)))
        grid = fr.build_grid(6.0, 1024)
        for which in (1, 2):
            r = fr.numerical_index(fr.assemble_operator(which, grid))
            assert (r.dim_ker, r.dim_coker) == (1, 0)

    @pytest.mark.parametrize("L, N, k", ((6.0, 1024, 823),
                                         (8.0, 2048, 1491),
                                         (10.0, 4096, 2795)))
    def test_start_block_is_numpys_qr(self, L, N, k, monkeypatch):
        # The deflated sizes of criterion 7's rungs.
        seen = []

        def first_rsolve(self, x):
            seen.append(x)
            raise _FirstSolve

        monkeypatch.setattr(fr._Block, "rsolve", first_rsolve)
        block = fr._sector_block(fr.build_grid(L, N))
        assert block.shape == (k, k)
        with pytest.raises(_FirstSolve):
            fr._sector_triples(block, fr._PROBE, 0.0)
        rng = np.random.default_rng(12345)
        want = np.linalg.qr(rng.standard_normal((k, fr._PROBE)))[0]
        assert seen[0].tobytes() == want.tobytes()
