"""Discretized convolution-type operators on the punctured line.

The two operators act on L2(R*, dx/|x|) as

    (S_i f)(x) = f(x) - 2 exp(-x^2/2) * I_i[f](x),
    I_i[f](x) = int_0^inf exp(-2u) * (f(x e^-u) + (-1)^(i-1) f(-x e^-u)) du,

which is the a-integral int_{-1}^{1} f(xa) |a| (sgn a)^(i-1) da after the
substitution a = +-e^-u.  On a log-uniform grid the substitution makes every
sample point land on a grid node, so the discretization is a weighted sum of
shift matrices with no interpolation step.  Both operators are identity plus
compact; the numerical index machinery recovers (dim ker, dim coker) = (1, 0)
for each, with an independent ODE oracle for the kernel function.

The reflection x -> -x swaps the two half-lines, so each operator splits
into its parity sectors: on one (even for S_1, odd for S_2) it acts as
the N x N block I - 2 B, with B the lower-triangular Volterra-type
quadrature of one half-line, and on the other as the identity.  The
block is the same for both operators; which only fixes the parity
[r, s r] of the sector it acts on.  The index is computed from the
block: exp(-x^2/2) underflows to exactly 0 far out, so the block's
trailing rows are exact unit rows and it is exactly diag(M, I); M's
smallest singular triples come from inverse subspace iteration
(Golub & Van Loan, Matrix Computations), the identity rows and the
identity sector contribute unit singular values, and kernel vectors are
zero-padded and lifted back to the 2N layout by parity.

B has the finite-section structure of a Wiener-Hopf operator (Boettcher &
Silbermann, Analysis of Toeplitz Operators): diag(gauss) times a
lower-triangular Toeplitz matrix of the interior quadrature weights, with
corrections in its first four columns.  The weights are
p[d] = h q^d - (h/3) (-q)^d off the diagonal, q = exp(-2h), so every
block below the diagonal has rank 2 outside those columns.  The index
path never forms B: _Block applies and solves I - 2 B from these
generators by blocks of rows, a dense diagonal block each and two
running sums carrying the rest, in O(N) storage and work per vector.
The same _Block applies the operator on the enlarged window of the
stability test.  Every dense piece of I - 2 B comes from one builder,
_dense_block: _Block's diagonal blocks, and DiscreteOperator.matrix, the
whole N x N block, a reference for tests built only when read.

Since S_1 and S_2 have the same block, they share one sector solve: the
deflated size, sigma_max and the smallest singular triples of the block
are kept in a one-slot memo.  The block is a function of the grid, so the
memo is keyed by the grid (L, N and the bytes of its s and weights, which
are read-only) and the constants the solve reads at call time.  Asking
for S_2 right after S_1 on an equal grid reuses the solve; the gap logic,
the parity lift and the stability residuals run for each operator.  The
index data are the same bit for bit as those of a fresh solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "FredholmError",
    "BadParams",
    "GridTooCoarse",
    "GapTooSmall",
    "AsymptoticMismatch",
    "NotConverged",
    "UnplacedCandidate",
    "LogGrid",
    "DiscreteOperator",
    "IndexResult",
    "ParityCheck",
    "OracleResult",
    "build_grid",
    "assemble_operator",
    "numerical_index",
    "parity_check",
    "ode_kernel_oracle",
    "kernel_cosine",
    "index_pair",
    "MAX_LOG_STEP",
    "STABILITY_TOL",
    "GAP_MIN",
    "NEAR_ZERO_FACTOR",
    "PARITY_TOL",
]

# Largest admissible log step: past one half e-folding of the exp(-2u)
# kernel per node the composite rule no longer tracks the integrand and
# near-zero singular values stop being meaningful.
MAX_LOG_STEP = 0.5
# A padded candidate kernel vector must keep its residual below this on the
# enlarged window to count as a genuine (co)kernel direction.
STABILITY_TOL = 1e-4
GAP_MIN = 100.0
NEAR_ZERO_FACTOR = 1e-3
PARITY_TOL = 1e-6
WINDOW_TOL = 0.05

_PROBE = 8
# Inverse iteration stops once every singular value that feeds the gap
# gate has moved less than _ITER_RTOL (relative) in one step, and fails
# closed after _ITER_CAP steps; the power iteration for sigma_max stops on
# the same rule and fails closed after _SIGMA_CAP steps.
_ITER_RTOL = 1e-10
_ITER_CAP = 60
_SIGMA_CAP = 40
# Rows per diagonal block of the structured sector solve and products;
# at least 4, so that the head columns sit in the first block.
_BLOCK = 256


class FredholmError(Exception):
    """Base class for operator-discretization failures."""


class BadParams(FredholmError):
    pass


class GridTooCoarse(FredholmError):
    pass


class GapTooSmall(FredholmError):
    pass


class AsymptoticMismatch(FredholmError):
    pass


class NotConverged(FredholmError):
    """An iteration reached its cap before its values settled."""

    def __init__(self, iterations: int, change: float,
                 what: str = "inverse iteration"):
        self.iterations = iterations
        self.change = change
        super().__init__(
            f"{what} stopped at its cap of {iterations} steps "
            f"with relative change {change:.3g} (needs < {_ITER_RTOL:g})")


class UnplacedCandidate(FredholmError):
    """A singular value under the cut that neither stability test places."""

    def __init__(self, value: float, ker_residual: float,
                 coker_residual: float):
        self.value = value
        self.ker_residual = ker_residual
        self.coker_residual = coker_residual
        super().__init__(
            f"singular value {value:.3g} is under the cut, but its kernel "
            f"residual {ker_residual:.3g} and its cokernel residual "
            f"{coker_residual:.3g} are both at least STABILITY_TOL = "
            f"{STABILITY_TOL:g}")


@dataclass(frozen=True, eq=False)
class LogGrid:
    """Log-uniform grid on e^-L <= |x| <= e^L, both signs.

    nodes holds the positive half first (x = e^s, s ascending), then the
    negative half (x = -e^s, same s order).  weights are trapezoid weights
    in s, the flat coordinate of the measure dx/|x|; they are positive,
    x -> -x symmetric, and sum to 4L.  The arrays are made read-only, so
    a block built from the grid stays the grid's block.
    """

    L: float
    N: int
    s: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for a in (self.s, self.nodes, self.weights):
            a.setflags(write=False)

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N - 1)

    def to_json(self) -> dict:
        return {"L": self.L, "N": self.N, "h": self.h}


def build_grid(L: float, N: int) -> LogGrid:
    """Two uniform s-grids on [-L, L], mapped to x = +-e^s."""
    try:
        L = float(L)
        N = int(N)
    except (TypeError, ValueError) as exc:
        raise BadParams(f"grid parameters must be numeric: {exc}") from None
    if not math.isfinite(L) or L <= 0.0:
        raise BadParams(f"need L > 0, got {L}")
    if N < 16:
        raise BadParams(f"need N >= 16 points per half-line, got {N}")
    s = np.linspace(-L, L, N)
    half = np.exp(s)
    nodes = np.concatenate([half, -half])
    w = np.full(N, 2.0 * L / (N - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    weights = np.concatenate([w, w])
    return LogGrid(L=L, N=N, s=s, nodes=nodes, weights=weights)


def _kernel_generators(n: int, h: float):
    """Generators of the shift kernel K: int_0^inf exp(-2u) f(|x| e^-u) du
    on one half-line as a matrix.

    Row k integrates over the on-grid range u in [0, kh] with positive
    weights: composite Simpson, a 3/8 block absorbing an odd panel count,
    the trapezoid for a single panel; fourth order for k >= 2.  The
    remaining tail int_{kh}^inf exp(-2u) f du is charged to the innermost
    sample with its exact weight exp(-2kh)/2 (constant extrapolation below
    the cutoff); for kernel-class functions, |f| ~ x^2 near 0, the induced
    error is below 1e-7 relative once L >= 6.

    Entry (k, c) weights the node u = (k - c) h.  Away from the Simpson
    end nodes that weight is p[k - c] (h/3 for d = 0, then 4h/3 and 2h/3
    alternating, times exp(-2u)), so K is lower-triangular Toeplitz in p.
    The rule's far end lands in columns 0-3 only: column 0 for every row
    (end weight plus the tail), columns 1-3 for the 3/8 block of odd k,
    and the diagonal of rows 1 and 3.  head holds those columns (fewer
    when n < 4), each entry computed with the expression the per-row rule
    uses, so K is that rule's value bit for bit.
    """
    decay = np.exp(-2.0 * h * np.arange(n))
    inner = np.full(n, 2.0 * h / 3.0)
    inner[1::2] = 4.0 * h / 3.0
    inner[0] = h / 3.0
    p = inner * decay
    head = np.zeros((n, min(n, 4)))
    for c in range(head.shape[1]):
        head[c:, c] = p[:n - c]
    # End weight at u = kh: 0 for the empty row 0, h/2 for the trapezoid,
    # 3h/8 closing a 3/8 block (odd k), h/3 closing Simpson (even k).
    end = np.full(n, h / 3.0)
    end[1::2] = 3.0 * h / 8.0
    end[0] = 0.0
    if n > 1:
        end[1] = 0.5 * h
        head[1, 1] = 0.5 * h * decay[0]
    head[:, 0] = end * decay + 0.5 * decay
    if n > 3:
        odd = np.arange(3, n, 2)
        head[odd, 1] = 9.0 * h / 8.0 * decay[odd - 1]
        head[odd, 2] = 9.0 * h / 8.0 * decay[odd - 2]
        head[3, 3] = 3.0 * h / 8.0 * decay[0]
        # Where Simpson's last node meets the 3/8 block both weights add.
        odd = odd[1:]
        head[odd, 3] = (h / 3.0 + 3.0 * h / 8.0) * decay[odd - 3]
    return p, head


def _toeplitz(p: np.ndarray, n: int) -> np.ndarray:
    """The n x n lower-triangular Toeplitz matrix with p[i - j] at (i, j)."""
    # Row i is window n - 1 - i of [p[n-1], ..., p[0], 0, ..., 0]; the
    # last slice only matters at n = 0, where there is one empty window.
    padded = np.zeros(max(2 * n - 1, 0))
    padded[:n] = p[:n][::-1]
    windows = np.lib.stride_tricks.sliding_window_view(padded, n)
    return windows[::-1][:n].copy()


def _dense_block(gauss: np.ndarray, p: np.ndarray,
                 head: Optional[np.ndarray] = None) -> np.ndarray:
    """The dense diagonal block I - 2 diag(gauss) K on the rows whose row
    factors gauss holds; lower-triangular.

    K is the _toeplitz copy of p, with head (for a block that starts at
    row 0) over its first columns.  The entries are formed as -2 b off
    the diagonal and (1 - b) - b on it, b = gauss K: the sums A11 + s A12
    of the 2N x 2N matrix I - [[B, s B], [s B, B]] bit for bit.  No other
    function forms a dense entry of the parity block.
    """
    m = _toeplitz(p, gauss.size)
    if head is not None:
        m[:, :head.shape[1]] = head
    m *= gauss[:, None]
    b = np.diagonal(m).copy()
    m *= -2.0
    np.fill_diagonal(m, (1.0 - b) - b)
    return m


def _gauss(grid: LogGrid) -> np.ndarray:
    """Row factor 2 exp(-x^2/2) of the half-line block, x = e^s."""
    # Rows with x beyond e^L would carry exp(-x^2/2) < 1e-14 once L >= 3,
    # so cutting the domain there only perturbs identity rows.
    x = np.exp(grid.s)
    return 2.0 * np.exp(-0.5 * x * x)


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """S_i on a LogGrid: its grid and its parity.

    On the 2N grid layout the operator maps [r, s r] to [m r, s m r] with
    m = matrix and s = +1 for which=1, -1 for which=2, and is the identity
    on the other parity sector.
    """

    grid: LogGrid
    which: int

    def __post_init__(self):
        if self.which not in (1, 2):
            raise BadParams(f"which must be 1 or 2, got {self.which!r}")
        grid = self.grid
        if grid.h > MAX_LOG_STEP:
            need = int(math.ceil(2.0 * grid.L / MAX_LOG_STEP)) + 1
            raise GridTooCoarse(
                f"log step h={grid.h:.4f} exceeds {MAX_LOG_STEP}; "
                f"use N >= {need} at L={grid.L:g}")

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The N x N parity block I - 2 B, built from the grid on first read.

        A dense reference: no index path reads it.  B = diag(gauss) K is
        the half-line Volterra block, lower-triangular by construction,
        formed by _dense_block on the whole grid.  The block is read-only.
        """
        p, head = _kernel_generators(self.grid.N, self.grid.h)
        m = _dense_block(_gauss(self.grid), p, head)
        m.setflags(write=False)
        return m


def assemble_operator(which: int, grid: LogGrid) -> DiscreteOperator:
    """S_which on the grid: f -> f - 2 exp(-x^2/2) * quadrature of I_i[f].

    The u-nodes are grid-aligned multiples of h, so f(x e^-u) is read off
    the grid directly and the quadrature has no interpolation component.
    """
    return DiscreteOperator(grid=grid, which=which)


@dataclass(frozen=True, eq=False)
class ParityCheck:
    ok: bool
    residual: float
    degenerate: bool = False

    def __bool__(self) -> bool:
        return self.ok


def parity_check(kernel_vectors: Sequence[np.ndarray],
                 which: int) -> list:
    """Even-reflection residuals for which=1, odd for which=2.

    Vectors use the grid layout (positive half then negative half, shared
    s order), so x -> -x swaps the halves elementwise.
    """
    if which not in (1, 2):
        raise BadParams(f"which must be 1 or 2, got {which!r}")
    out = []
    for v in kernel_vectors:
        v = np.asarray(v, dtype=float)
        if v.ndim != 1 or v.size % 2:
            raise BadParams("kernel vectors must be flat with even length")
        n = v.size // 2
        scale = _norm(v)
        if scale == 0.0:
            out.append(ParityCheck(ok=True, residual=0.0, degenerate=True))
            continue
        sign = 1.0 if which == 1 else -1.0
        residual = _norm(v[:n] - sign * v[n:]) / scale
        out.append(ParityCheck(ok=residual < PARITY_TOL, residual=residual))
    return out


@dataclass(frozen=True, eq=False)
class IndexResult:
    dim_ker: int
    dim_coker: int
    index: int
    sing_vals_near_zero: tuple
    threshold: float
    gap_ratio: float
    sigma_max: float
    ker_vectors: tuple = ()
    coker_vectors: tuple = ()
    ker_residuals: tuple = ()
    coker_residuals: tuple = ()
    # Inverse iteration steps taken; kept out of to_json so reports stay
    # byte-stable.
    iterations: int = 0

    def to_json(self) -> dict:
        return {
            "dim_ker": self.dim_ker,
            "dim_coker": self.dim_coker,
            "index": self.index,
            "sing_vals_near_zero": [float(v) for v in
                                    self.sing_vals_near_zero],
            "threshold": float(self.threshold),
            "gap_ratio": (None if math.isinf(self.gap_ratio)
                          else float(self.gap_ratio)),
            "sigma_max": float(self.sigma_max),
            "ker_stability_residuals": [float(r) for r in
                                        self.ker_residuals],
            "coker_stability_residuals": [float(r) for r in
                                          self.coker_residuals],
        }


def _deflated_size(gauss: np.ndarray, p: np.ndarray,
                   head: np.ndarray) -> int:
    """Start k of the trailing run of exact unit rows of the parity block.

    Read from the generators: row i of I - 2 diag(gauss) K is a unit row
    when gauss[i] * max|K[i, :i]| == 0, which holds exactly when every
    product gauss[i] K[i, j] left of the diagonal is 0 (rounding is
    monotone, so subnormal gauss rows count as the dense block does), and
    its diagonal (1 - b) - b, b = gauss[i] K[i, i], is 1.  So the block is
    exactly diag(M, I) with M its leading k x k block; k = N when the last
    row is not a unit row.  A zero on the diagonal of M raises BadParams,
    before any iteration runs.
    """
    n = gauss.size
    cols = head.shape[1]
    # Left of the diagonal, row i reads head[i, :min(i, cols)] and p[d]
    # for 1 <= d <= i - cols.
    off = np.abs(np.tril(head, -1)).max(axis=1, initial=0.0)
    far = np.maximum.accumulate(np.abs(p[1:n - cols]))
    off[cols + 1:] = np.maximum(off[cols + 1:], far)
    kdiag = np.full(n, p[0])
    kdiag[:cols] = np.diagonal(head)
    b = gauss * kdiag
    diag = (1.0 - b) - b
    live = np.flatnonzero((gauss * off != 0.0) | (diag != 1.0))
    k = int(live[-1]) + 1 if live.size else 0
    if not np.all(diag[:k]):
        raise BadParams(
            f"parity sector is exactly singular (zero diagonal at row "
            f"{int(np.argmin(np.abs(diag[:k])))})")
    return k


def _norm(v: np.ndarray) -> float:
    """Euclidean norm by a pairwise sum, with no BLAS call.

    np.linalg.norm of a vector sums through BLAS ddot, which OpenBLAS
    splits over threads above 10000 elements; this sum does not depend on
    the thread count.
    """
    return math.sqrt(float(np.sum(v * v)))


def _lower_solve(factor: np.ndarray, rhs: np.ndarray,
                 transposed: bool) -> np.ndarray:
    """factor^-1 rhs (factor^-T rhs when transposed) for a C-ordered
    lower-triangular factor.

    The LAPACK call that scipy.linalg.solve_triangular(factor, rhs,
    lower=True, check_finite=False) makes on such a factor: dtrtrs on
    factor.T, which is upper-triangular in Fortran order, with the
    transpose flag flipped.  It keeps that function's errors and its
    empty result for an empty rhs, which dtrtrs rejects.
    """
    from scipy.linalg.lapack import dtrtrs

    if rhs.size == 0:
        return np.empty_like(rhs)
    x, info = dtrtrs(factor.T, rhs, lower=0, trans=0 if transposed else 1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(
            f"illegal value in {-info}-th argument of internal trtrs")
    return x


class _Block:
    """The k x k parity block A = R (I - 2 diag(gauss) K) R^-1, from its
    generators.

    K is the shift kernel: lower-triangular Toeplitz with p[d] =
    h q^d - (h/3) (-q)^d for d >= 1, q = exp(-2h), except in its head
    columns 0-3.  So every block of K below the diagonal has rank 2 away
    from those columns (a quasiseparable matrix of order 2; Eidelman &
    Gohberg, IEOT 34, 1999).  The rows are cut into blocks of _BLOCK rows
    (at least 4); each diagonal block is dense, and two running sums per
    right-hand side, of q^d x and of (-q)^d x, carry the Toeplitz far
    field from block to block.  The head columns are a rank-4 update.  A
    solve, a transposed solve and a product with A or A^T then cost O(k)
    work per right-hand side.  R is diag(root), the square root of the
    weights, applied as row and column scalings (R = I when root is None).

    Products share one _BLOCK x _BLOCK Toeplitz block, the _toeplitz
    copy that _dense_block starts from; the solves form the triangular
    diagonal blocks of I - 2 diag(gauss) K on first use with _dense_block,
    as DiscreteOperator.matrix forms the whole block, so they are that
    matrix's diagonal blocks by construction (the tests still check it).
    Their triangular solves call scipy's LAPACK (_lower_solve), the one
    OpenBLAS of the sector solve (see _sector_triples).  Every method takes
    a (k,) or (k, m) array.
    """

    def __init__(self, gauss: np.ndarray, p: np.ndarray, head: np.ndarray,
                 h: float, root: Optional[np.ndarray] = None):
        k = gauss.size
        self.shape = (k, k)
        self.gauss = gauss[:, None]
        self.head = head[:k, :min(k, head.shape[1])]
        self.root = None if root is None else root[:, None]
        self.rows = _BLOCK
        self.p = p
        self.toeplitz = _toeplitz(p, min(_BLOCK, k))
        # powers[t] = (q^t, (-q)^t), scaled by coef = (h, -h/3) where a
        # sum meets p.
        decay = np.exp(-2.0 * h * np.arange(self.toeplitz.shape[0] + 1))
        self.powers = np.stack([decay, decay], axis=1)
        self.powers[1::2, 1] *= -1.0
        self.coef = np.array([[h], [-h / 3.0]])

    def _starts(self) -> range:
        return range(0, self.shape[0], self.rows)

    @functools.cached_property
    def _factors(self) -> list:
        """The diagonal blocks of I - 2 diag(gauss) K, lower-triangular."""
        return [_dense_block(self.gauss[a:a + self.rows, 0], self.p,
                             None if a else self.head[:self.rows])
                for a in self._starts()]

    def _sweep(self, state: np.ndarray, n: int, forward: bool):
        """The far field on a block of n rows, and the weights that move
        the two sums past it.

        Forward, state sums (+-q)^(a-j) x_j over the columns j < a left of
        the block, which row a + r reads times (+-q)^r; backward, it sums
        (+-q)^(i-e) w_i over the rows i >= e after the block, which column
        a + r reads times (+-q)^(n-r).
        """
        near, far = self.powers[:n], self.powers[n:0:-1]
        if not forward:
            near, far = far, near
        return near @ (self.coef * state), far

    def _push(self, state, weights, x):
        n = x.shape[0]
        return self.powers[n][:, None] * state + weights.T @ x

    def _head_t(self, w: np.ndarray, start: int = 0) -> np.ndarray:
        """head[start:]^T w[start:], each column summed pairwise."""
        return np.stack([np.sum(col[start:, None] * w[start:], axis=0)
                         for col in self.head.T])

    def _kernel(self, x: np.ndarray) -> np.ndarray:
        """K x."""
        toeplitz_part = x.copy()
        toeplitz_part[:self.head.shape[1]] = 0.0
        out = np.empty_like(x)
        state = np.zeros((2, x.shape[1]))
        for a in self._starts():
            xa = toeplitz_part[a:a + self.rows]
            n = xa.shape[0]
            field, weights = self._sweep(state, n, True)
            out[a:a + n] = self.toeplitz[:n, :n] @ xa + field
            state = self._push(state, weights, xa)
        for c, col in enumerate(self.head.T):
            out += col[:, None] * x[c]
        return out

    def _kernel_t(self, w: np.ndarray) -> np.ndarray:
        """K^T w."""
        out = np.empty_like(w)
        state = np.zeros((2, w.shape[1]))
        for a in reversed(self._starts()):
            wa = w[a:a + self.rows]
            n = wa.shape[0]
            field, weights = self._sweep(state, n, False)
            out[a:a + n] = self.toeplitz[:n, :n].T @ wa + field
            state = self._push(state, weights, wa)
        out[:self.head.shape[1]] = self._head_t(w)
        return out

    def _forward(self, y: np.ndarray) -> np.ndarray:
        """(I - 2 diag(gauss) K)^-1 y, block by block from the top."""
        x = np.empty_like(y)
        state = np.zeros((2, y.shape[1]))
        for a, factor in zip(self._starts(), self._factors):
            n = factor.shape[0]
            field, weights = self._sweep(state, n, True)
            rhs = y[a:a + n]
            if a:
                for c, col in enumerate(self.head[a:a + n].T):
                    field += col[:, None] * x[c]
                rhs = rhs + 2.0 * (self.gauss[a:a + n] * field)
            xa = x[a:a + n]
            xa[:] = _lower_solve(factor, rhs, transposed=False)
            if a == 0:
                xa = xa.copy()
                xa[:self.head.shape[1]] = 0.0
            state = self._push(state, weights, xa)
        return x

    def _backward(self, y: np.ndarray) -> np.ndarray:
        """(I - 2 diag(gauss) K)^-T y, block by block from the bottom."""
        z = np.empty_like(y)
        w = np.empty_like(y)
        state = np.zeros((2, y.shape[1]))
        for a, factor in zip(reversed(self._starts()),
                             reversed(self._factors)):
            n = factor.shape[0]
            field, weights = self._sweep(state, n, False)
            if a == 0:
                field[:self.head.shape[1]] = self._head_t(w, n)
            z[a:a + n] = _lower_solve(factor, y[a:a + n] + 2.0 * field,
                                      transposed=True)
            w[a:a + n] = self.gauss[a:a + n] * z[a:a + n]
            state = self._push(state, weights, w[a:a + n])
        return z

    def _apply(self, f, x, transposed: bool):
        """f on x as a (k, m) array, between R^-1 and R (between R and
        R^-1 when transposed)."""
        x = np.asarray(x, dtype=float)
        y = x[:, None] if x.ndim == 1 else x
        if self.root is not None:
            y = y * self.root if transposed else y / self.root
        y = f(y)
        if self.root is not None:
            y = y / self.root if transposed else y * self.root
        return y[:, 0] if x.ndim == 1 else y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x."""
        return self._apply(
            lambda y: y - 2.0 * (self.gauss * self._kernel(y)), x, False)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """A^T x."""
        return self._apply(
            lambda y: y - 2.0 * self._kernel_t(self.gauss * y), x, True)

    def solve(self, x: np.ndarray) -> np.ndarray:
        """A^-1 x."""
        return self._apply(self._forward, x, False)

    def rsolve(self, x: np.ndarray) -> np.ndarray:
        """A^-T x."""
        return self._apply(self._backward, x, True)


def _sigma_max(block: _Block) -> float:
    """Largest singular value by power iteration on A^T A.

    The estimate is |A v| for the unit iterate v.  It stops once that
    moved less than _ITER_RTOL relative in one step, and raises
    NotConverged after _SIGMA_CAP steps.
    """
    if not block.shape[0]:
        return 0.0
    rng = np.random.default_rng(54321)
    v = rng.standard_normal(block.shape[1])
    v /= _norm(v)
    prev = 0.0
    change = math.inf
    for _ in range(_SIGMA_CAP):
        w = block.matvec(v)
        est = _norm(w)
        if est == 0.0:
            return 0.0
        change = abs(est - prev) / est
        if change < _ITER_RTOL:
            return est
        prev = est
        v = block.rmatvec(w)
        v /= _norm(v)
    raise NotConverged(_SIGMA_CAP, change, "power iteration for sigma_max")


def _sector_triples(block: _Block, k: int, gate: float):
    """Smallest k singular triples of the block A.

    Inverse subspace iteration: each step applies (A^T A)^-1 by a
    transposed and a plain block solve, re-orthonormalizes, and takes Ritz
    values from the block.  It stops once the values under `gate`, plus
    the next one, all moved less than _ITER_RTOL relative; after
    _ITER_CAP steps it raises NotConverged.  Returns (sigmas ascending,
    right vectors, left vectors, steps taken).

    Every LAPACK call on a k-sized array, here and in the block solves,
    goes through scipy.linalg, so the solve uses one OpenBLAS thread pool.
    The numpy and scipy wheels each ship their own OpenBLAS; a numpy
    LAPACK call (np.linalg.qr of the start block did) wakes numpy's pool,
    whose threads then spin beside scipy's and slow the solves after it.
    numpy's products here, on 8 columns or one 256-row block, are small
    enough that OpenBLAS keeps them on the calling thread.  The start
    block is bit for bit np.linalg.qr's.  scipy is imported here and in
    the block solves, on first use, so that importing this package and
    the orbit side never load it.
    """
    import scipy.linalg

    rng = np.random.default_rng(12345)
    v = scipy.linalg.qr(rng.standard_normal((block.shape[0], k)),
                        mode="economic", check_finite=False)[0]
    prev = None
    change = math.inf
    for step in range(1, _ITER_CAP + 1):
        z = block.rsolve(v)
        y = block.solve(z)
        v, r = scipy.linalg.qr(y, mode="economic", check_finite=False)
        # v = y r^-1 and A y = z, so A v = z r^-1: the Ritz block costs a
        # k x k solve instead of another pass over A.
        c = scipy.linalg.solve_triangular(r, z.T, trans="T",
                                          check_finite=False).T
        evals, basis = np.linalg.eigh(c.T @ c)
        vals = np.sqrt(np.maximum(evals, 0.0))
        if prev is not None:
            watch = min(k, int(np.count_nonzero(vals < gate)) + 1)
            moved = np.abs(vals[:watch] - prev[:watch])
            change = float(np.max(moved / np.maximum(prev[:watch], 1e-300),
                                  initial=0.0))
            if change < _ITER_RTOL:
                break
        prev = vals
    else:
        raise NotConverged(_ITER_CAP, change)
    rights = v @ basis
    # A^-T r = u / sigma, so normalizing the solve reproduces the left
    # vector for any sigma > 0 without dividing by a tiny sigma.
    lefts = block.rsolve(rights)
    lefts /= np.linalg.norm(lefts, axis=0)
    return vals, rights, lefts, step


# The last sector solve as (key, solve); see _sector_solve.
_last_solve = None


def _solve_key(grid: LogGrid) -> tuple:
    """Everything the sector solve reads.

    The block is a function of the grid, so the grid stands for it: L, N
    and the bytes of s and of the weights, all read-only.  Then _PROBE,
    _ITER_RTOL, _ITER_CAP, _SIGMA_CAP and _BLOCK as they stand at call
    time.  A block built any other way (a test that patches _gauss or
    _kernel_generators) must start from an empty memo.
    """
    return (grid.L, grid.N, grid.s.tobytes(), grid.weights.tobytes(),
            _PROBE, _ITER_RTOL, _ITER_CAP, _SIGMA_CAP, _BLOCK)


def _sector_block(grid: LogGrid) -> _Block:
    """The deflated k x k parity block in the weighted geometry.

    Built from the generators: the deflated size first (BadParams on a
    zero diagonal), then the block with R = W^(1/2) of the leading k
    nodes.  Conjugating by W^(1/2) turns the weighted L2 geometry into the
    plain Euclidean one, so ordinary singular values are the operator's.
    """
    gauss = _gauss(grid)
    p, head = _kernel_generators(grid.N, grid.h)
    k = _deflated_size(gauss, p, head)
    return _Block(gauss[:k], p, head, grid.h,
                  root=np.sqrt(grid.weights[:k]))


def _sector_solve(op: DiscreteOperator) -> tuple:
    """Deflated size, sigma_max and smallest singular triples of the block.

    Returns (k, sigma_max, values, right vectors, left vectors, steps),
    the arrays read-only.  The block comes from _sector_block and is
    never formed.  S_1 and S_2 on equal
    grids have the same block, so the last solve is kept in a one-slot
    memo under _solve_key and the second operator reuses it; a solve that
    raises leaves the slot as it was.
    """
    global _last_solve
    grid = op.grid
    key = _solve_key(grid)
    # One read of the slot: another thread may replace it meanwhile.
    last = _last_solve
    if last is not None and last[0] == key:
        return last[1]
    block = _sector_block(grid)
    k = block.shape[0]
    sigma_max = max(_sigma_max(block), 1.0)
    sig, rights, lefts, iterations = _sector_triples(
        block, min(_PROBE, k), NEAR_ZERO_FACTOR * sigma_max)
    for a in (sig, rights, lefts):
        a.setflags(write=False)
    solve = (k, sigma_max, sig, rights, lefts, iterations)
    _last_solve = (key, solve)
    return solve


class _Window:
    """The sector block I - 2 B on a window enlarged by 2 in L, same step.

    B = diag(gauss) K is applied as a _Block of the window grid, from its
    generators, and never formed: O(n) storage and work per apply, and no
    sum that BLAS splits over threads, so the results do not depend on
    the thread count at any window length.
    """

    def __init__(self, grid: LogGrid):
        self.offset = int(math.ceil(2.0 / grid.h))
        self.grid = build_grid(grid.L + self.offset * grid.h,
                               grid.N + 2 * self.offset)
        n = self.grid.N
        p, head = _kernel_generators(n, self.grid.h)
        self.block = _Block(_gauss(self.grid), p, head, self.grid.h)
        self.weights = self.grid.weights[:n]

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self.block.matvec(f)

    def apply_adjoint(self, g: np.ndarray) -> np.ndarray:
        # Adjoint in the weighted geometry: W^-1 A^T W.
        return self.block.rmatvec(self.weights * g) / self.weights


def _stability_residual(window: _Window, v: np.ndarray,
                        adjoint: bool) -> float:
    # v lives on the small grid's half-line; zero-pad it onto the window.
    padded = np.zeros(window.grid.N)
    padded[window.offset:window.offset + v.size] = v
    image = window.apply_adjoint(padded) if adjoint else window.apply(padded)
    root = np.sqrt(window.weights)
    return _norm(root * image) / _norm(root * padded)


def numerical_index(op: DiscreteOperator) -> IndexResult:
    """Fredholm data of a discretized operator.

    Singular values are taken in the weighted geometry.  The operator is
    its lower-triangular parity block on one sector and the identity on
    the other.  The block's trailing run of exact unit rows (where
    exp(-x^2/2) underflows to 0) is deflated: the block is exactly
    diag(M, I), and the size of M and the zero-diagonal check are read
    from the generators before any iteration.  M is never formed: it is
    applied and solved by blocks from its generators (_Block), with the
    W^(1/2) weighting as row and column scalings.  sigma_max comes from
    power iteration on M, stopped once it settles (NotConverged at its
    cap), and is at least 1.  M's smallest singular triples come from
    inverse subspace iteration with block solves (NotConverged if the
    values that feed the gap gate do not settle) and are merged with the
    unit singular values of the deflated rows and of the identity sector.
    The cut sits at the largest ratio jump among singular values below
    1e-3 * sigma_max, and that jump must exceed 100 (GapTooSmall
    otherwise).  Candidate kernel directions are the singular vectors
    under the cut, zero on the deflated rows and lifted to the 2N layout
    as [r, s r] / sqrt(2); each must stay a near-null vector after
    zero-padding onto a window enlarged by 2 in L (same step) to count,
    which is what separates dim_ker from dim_coker on a square
    truncation; a candidate that neither test places raises
    UnplacedCandidate.  The window's block is a _Block too.  No step sums
    through a BLAS call that splits a sum over threads, so the data do
    not depend on the thread count.

    The deflated size, sigma_max and the sector's singular triples are
    computed once per grid: the last solve is kept in a one-slot memo
    keyed by the grid (L, N and the bytes of its read-only s and weights)
    and the constants (_PROBE, _ITER_RTOL, _ITER_CAP, _SIGMA_CAP, _BLOCK)
    as they stand at the call.  So S_2 right after S_1 on an equal grid
    reuses S_1's solve and gives the same data as a fresh solve; a
    changed constant or a one-ulp change of a weight is a miss, and a
    solve that raises is not kept.  The gap logic, the parity lift and
    the stability residuals run on every call.
    """
    half = op.grid.N
    n = 2 * half
    root = np.sqrt(op.grid.weights[:half])
    k, sigma_max, sig, rights, lefts, iterations = _sector_solve(op)
    cap = NEAR_ZERO_FACTOR * sigma_max
    take = min(_PROBE, n)
    # A pool only holds values under 1: a cut above 1 takes in every unit
    # value, fills all `take` slots and raises GapTooSmall below.  So the
    # pool is a prefix of the sector's values and of its vectors.
    sig_low = np.sort(np.concatenate([sig, np.ones(take)]))[:take]
    pool = int(np.count_nonzero(sig_low < cap))
    if pool == 0:
        return IndexResult(
            dim_ker=0, dim_coker=0, index=0, sing_vals_near_zero=(),
            threshold=cap, gap_ratio=math.inf, sigma_max=sigma_max,
            iterations=iterations)
    if pool >= len(sig_low):
        raise GapTooSmall(
            "no spectral gap visible under 1e-3 * sigma_max; "
            "refine the grid (double N)")
    ratios = []
    for i in range(pool):
        low = float(sig_low[i])
        ratios.append(math.inf if low == 0.0
                      else float(sig_low[i + 1] / low))
    cut = int(np.argmax(ratios))
    gap_ratio = ratios[cut]
    if gap_ratio <= GAP_MIN:
        raise GapTooSmall(
            f"singular value gap ratio {gap_ratio:.3g} is under "
            f"{GAP_MIN:g}; refine the grid (double N)")
    if sig_low[cut] == 0.0:
        threshold = float(sig_low[cut + 1]) / GAP_MIN
    else:
        threshold = float(math.sqrt(sig_low[cut] * sig_low[cut + 1]))
    pool = cut + 1
    near = tuple(float(v) for v in sig_low[:pool])

    sign = 1.0 if op.which == 1 else -1.0
    window = _Window(op.grid)
    ker_vecs = []
    coker_vecs = []
    ker_res = []
    coker_res = []
    for i in range(pool):
        vfun = np.zeros(half)
        ufun = np.zeros(half)
        vfun[:k] = rights[:, i] / root[:k]
        ufun[:k] = lefts[:, i] / root[:k]
        ker_res.append(_stability_residual(window, vfun, False))
        coker_res.append(_stability_residual(window, ufun, True))
        if min(ker_res[-1], coker_res[-1]) >= STABILITY_TOL:
            raise UnplacedCandidate(near[i], ker_res[-1], coker_res[-1])
        ker_vecs.append(np.concatenate([vfun, sign * vfun]) / math.sqrt(2.0))
        coker_vecs.append(np.concatenate([ufun, sign * ufun]) /
                          math.sqrt(2.0))
    dim_ker = sum(1 for r in ker_res if r < STABILITY_TOL)
    dim_coker = sum(1 for r in coker_res if r < STABILITY_TOL)
    return IndexResult(
        dim_ker=dim_ker, dim_coker=dim_coker, index=dim_ker - dim_coker,
        sing_vals_near_zero=near, threshold=float(threshold),
        gap_ratio=float(gap_ratio), sigma_max=sigma_max,
        ker_vectors=tuple(ker_vecs), coker_vectors=tuple(coker_vecs),
        ker_residuals=tuple(ker_res), coker_residuals=tuple(coker_res),
        iterations=iterations)


_GL3_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def _gl3(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-segment 3-point Gauss-Legendre of 4 exp(-e^(2s)/2)."""
    lo = np.atleast_1d(lo)
    hi = np.atleast_1d(hi)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * _GL3_NODES[None, :]
    vals = 4.0 * np.exp(-0.5 * np.exp(2.0 * pts))
    return (vals @ _GL3_WEIGHTS) * half


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Kernel profile from the first-order ODE, on the positive half."""

    x: np.ndarray
    f: np.ndarray
    log_f: np.ndarray
    slope_near_zero: float
    slope_at_infinity: float
    window_ratio_zero: float
    window_ratio_infinity: float

    def as_kernel_vector(self, which: int) -> np.ndarray:
        """Extend the radial profile to both half-lines by parity."""
        if which == 1:
            return np.concatenate([self.f, self.f])
        if which == 2:
            return np.concatenate([self.f, -self.f])
        raise BadParams(f"which must be 1 or 2, got {which!r}")

    def to_json(self) -> dict:
        return {
            "slope_near_zero": self.slope_near_zero,
            "slope_at_infinity": self.slope_at_infinity,
            "window_ratio_zero": self.window_ratio_zero,
            "window_ratio_infinity": self.window_ratio_infinity,
        }


def ode_kernel_oracle(grid: LogGrid) -> OracleResult:
    """Solve (ln F)'(x) = 4 exp(-x^2/2)/x from x0 = 1 and set f = F'/x.

    Everything is integrated in s = ln x, where the equation reads
    (ln F)'(s) = 4 exp(-e^(2s)/2); cumulative per-segment Gauss-Legendre
    keeps the quadrature error near 1e-12.  f is reported on the grid's
    positive half.  The two power-law windows (f ~ x^2 at 0, and
    f * x^2 * exp(x^2/2) ~ const at infinity) must be flat to 5% over the
    outermost decades, else AsymptoticMismatch.
    """
    s = grid.s
    seg = _gl3(s[:-1], s[1:])
    q = np.concatenate([[0.0], np.cumsum(seg)])
    # Anchor at s = 0, which sits between nodes when N is even.
    j = int(np.searchsorted(s, 0.0))
    q0 = q[j - 1] + float(_gl3(s[j - 1], 0.0)[0]) if j > 0 else q[0]
    log_f_ref = math.log(4.0)
    log_f = log_f_ref + (q - q0) - 0.5 * np.exp(2.0 * s) - 2.0 * s
    f = np.exp(log_f)

    dec = math.log(10.0)
    near = s <= (-grid.L + dec)
    far = s >= (grid.L - dec)
    slope0 = float(np.polyfit(s[near], log_f[near], 1)[0])
    tail = log_f[far] + 0.5 * np.exp(2.0 * s[far]) + 2.0 * s[far]
    slope_inf = float(np.polyfit(
        s[far], log_f[far] + 0.5 * np.exp(2.0 * s[far]), 1)[0])
    ratio0 = float(math.expm1(np.ptp(log_f[near] - 2.0 * s[near])))
    ratio_inf = float(math.expm1(np.ptp(tail)))
    if ratio0 > WINDOW_TOL:
        raise AsymptoticMismatch(
            f"f/x^2 varies by {ratio0:.3g} over the inner decade")
    if ratio_inf > WINDOW_TOL:
        raise AsymptoticMismatch(
            f"f x^2 exp(x^2/2) varies by {ratio_inf:.3g} over the outer "
            f"decade")
    return OracleResult(
        x=np.exp(s), f=f, log_f=log_f, slope_near_zero=slope0,
        slope_at_infinity=slope_inf, window_ratio_zero=ratio0,
        window_ratio_infinity=ratio_inf)


def kernel_cosine(grid: LogGrid, vector: np.ndarray,
                  oracle_samples: np.ndarray, which: int = 1) -> float:
    """Weighted cosine between a kernel vector and the oracle profile.

    The vector is first projected onto its parity sector (even for
    which=1, odd for which=2) and reduced to the positive half.  The sums
    are pairwise, with no BLAS call, as in _norm.
    """
    if which not in (1, 2):
        raise BadParams(f"which must be 1 or 2, got {which!r}")
    v = np.asarray(vector, dtype=float)
    n = grid.N
    sign = 1.0 if which == 1 else -1.0
    profile = 0.5 * (v[:n] + sign * v[n:])
    w = grid.weights[:n]
    num = abs(float(np.sum(w * profile * oracle_samples)))
    den = (math.sqrt(float(np.sum(w * profile * profile))) *
           math.sqrt(float(np.sum(w * oracle_samples * oracle_samples))))
    if den == 0.0:
        return 0.0
    return num / den


def index_pair(L: float = 8.0, N: int = 2048) -> dict:
    """Index results for both operators on a shared grid."""
    grid = build_grid(L, N)
    out = {}
    for which in (1, 2):
        op = assemble_operator(which, grid)
        out[which] = numerical_index(op)
    return out
