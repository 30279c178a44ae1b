"""Integer-matrix K-theory bookkeeping.

Finitely generated abelian groups, Smith normal form, exactness of
six-term sequences, winding numbers of matrix loops, and the
connecting-map fixtures of the orbit-space extensions.

A matrix loop is sampled a whole grid at a time: its sampler takes a 1-D
array of m parameters and returns an (m, n, n) stack (a scalar parameter
gives one (n, n) matrix), so a winding number costs one sampler call.
The library loops are written with numpy elementwise operations.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "KIndexError",
    "ShapeMismatch", "SingularLoop", "NonIntegerResult", "UnknownSpace",
    "AbelianGroup", "GroupHom", "SixTermDiagram", "KPair", "MatrixLoop",
    "WindingResult", "Z", "ZERO", "free_group",
    "smith_normal_form", "integer_kernel", "integer_det", "lattice_contains",
    "check_exact", "six_term_check",
    "winding_number", "idempotent_residual", "delta0_via_winding",
    "connes_thom_shift", "k_table",
    "load_fixture", "hexagon", "hexagon_names",
    "idempotent_p", "u_plus_loop", "constant_loop",
    "half_line_lift_loops", "vertex_lift_loops", "vertex_lift_interval_count",
]


class KIndexError(Exception):
    """Base class for K-theoretic bookkeeping failures."""


class ShapeMismatch(KIndexError, ValueError):
    """Matrix shape does not match the declared source/target ranks."""


class SingularLoop(KIndexError, ValueError):
    """A loop sample has |det| at or below the invertibility floor."""


class NonIntegerResult(KIndexError, ValueError):
    """Winding quadrature did not land within tolerance of an integer."""


class UnknownSpace(KIndexError, KeyError):
    """Name not present in the K-group table."""


# ---------------------------------------------------------------------------
# Groups and homomorphisms.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus invariant factors."""
    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
        for t in self.torsion:
            if t < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def is_free(self) -> bool:
        return not self.torsion

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}


ZERO = AbelianGroup(0)
Z = AbelianGroup(1)


def free_group(rank: int) -> AbelianGroup:
    return AbelianGroup(rank)


@dataclass(frozen=True)
class GroupHom:
    """Integer matrix acting on column vectors of source coordinates."""
    src: AbelianGroup
    dst: AbelianGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        if len(rows) != self.dst.rank:
            raise ShapeMismatch(
                f"matrix has {len(rows)} rows, target rank is {self.dst.rank}")
        for row in rows:
            if len(row) != self.src.rank:
                raise ShapeMismatch(
                    f"row length {len(row)} does not match source rank "
                    f"{self.src.rank}")

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=np.int64).reshape(
            self.dst.rank, self.src.rank)

    @classmethod
    def zero(cls, src: AbelianGroup, dst: AbelianGroup) -> "GroupHom":
        return cls(src, dst, tuple(tuple(0 for _ in range(src.rank))
                                   for _ in range(dst.rank)))

    def to_json(self) -> dict:
        return {"src": self.src.to_json(), "dst": self.dst.to_json(),
                "matrix": [list(r) for r in self.matrix]}


@dataclass(frozen=True)
class SixTermDiagram:
    """Cyclic six-node diagram; maps[i] goes nodes[i] -> nodes[i+1 mod 6]."""
    nodes: tuple[AbelianGroup, ...]
    maps: tuple[GroupHom, ...]

    def __post_init__(self):
        if len(self.nodes) != 6 or len(self.maps) != 6:
            raise ShapeMismatch("six-term diagram needs 6 nodes and 6 maps")
        for i, m in enumerate(self.maps):
            if m.src != self.nodes[i] or m.dst != self.nodes[(i + 1) % 6]:
                raise ShapeMismatch(f"map {i} is not composable with its nodes")


@dataclass(frozen=True)
class KPair:
    k0: AbelianGroup
    k1: AbelianGroup

    def to_json(self) -> dict:
        return {"k0": self.k0.to_json(), "k1": self.k1.to_json()}


# ---------------------------------------------------------------------------
# Smith normal form and lattice arithmetic (exact integer work).
# ---------------------------------------------------------------------------

def smith_normal_form(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U @ m @ V = D with U, V unimodular and D diagonal, d_i | d_{i+1}.

    Computed exactly over Python integers, so intermediate growth cannot
    overflow; results are returned as int64 arrays.
    """
    m_in = np.atleast_2d(np.asarray(m, dtype=object))
    nr, nc = m_in.shape
    A = [[int(m_in[i, j]) for j in range(nc)] for i in range(nr)]
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):  # row_dst += q * row_src
        for k in range(nc):
            A[dst][k] += q * A[src][k]
        for k in range(nr):
            U[dst][k] += q * U[src][k]

    def add_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def nearest_q(a: int, p: int) -> int:
        q, r = divmod(a, p)
        if 2 * abs(r) > abs(p):
            q += 1  # balanced remainder: |a - q*p| <= |p| / 2
        return q

    t = 0
    while t < min(nr, nc):
        while True:
            # Bring the smallest nonzero entry of the block to (t, t); any
            # later non-divisible remainder replaces it, at most half as
            # large, so this loop terminates quickly.
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if A[i][j] != 0 and (
                            best is None
                            or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            swap_rows(t, best[0])
            swap_cols(t, best[1])
            p = A[t][t]
            if any(A[i][t] % p != 0 for i in range(t + 1, nr)) or \
                    any(A[t][j] % p != 0 for j in range(t + 1, nc)):
                for i in range(t + 1, nr):
                    if A[i][t] != 0:
                        add_row(i, t, -nearest_q(A[i][t], p))
                for j in range(t + 1, nc):
                    if A[t][j] != 0:
                        add_col(j, t, -nearest_q(A[t][j], p))
                continue
            for i in range(t + 1, nr):
                if A[i][t] != 0:
                    add_row(i, t, -(A[i][t] // p))
            for j in range(t + 1, nc):
                if A[t][j] != 0:
                    add_col(j, t, -(A[t][j] // p))
            # The pivot must divide the remaining block for the invariant
            # factor chain; fold an offending row in and reduce again.
            offender = None
            for i in range(t + 1, nr):
                if any(A[i][j] % p != 0 for j in range(t + 1, nc)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if A[t][t] == 0:
            break
        if A[t][t] < 0:
            for k in range(nc):
                A[t][k] = -A[t][k]
            for k in range(nr):
                U[t][k] = -U[t][k]
        t += 1

    def to_arr(rows: list[list[int]]) -> np.ndarray:
        arr = np.array(rows, dtype=object)
        try:
            return arr.astype(np.int64)
        except OverflowError:
            return arr  # exact Python ints; callers stay in object dtype
    return to_arr(U), to_arr(A), to_arr(V)


def integer_det(m) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = np.atleast_2d(np.asarray(m, dtype=object))
    n, nc = a.shape
    if n != nc:
        raise ShapeMismatch("determinant needs a square matrix")
    if n == 0:
        return 1
    rows = [[int(a[i, j]) for j in range(n)] for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k]
                              - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return sign * rows[-1][-1]


def integer_kernel(m: np.ndarray) -> np.ndarray:
    """Columns generating the integer kernel lattice of m."""
    m = np.atleast_2d(np.asarray(m, dtype=object))
    nr, nc = m.shape
    if nc == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if nr == 0:
        return np.eye(nc, dtype=np.int64)
    _, D, V = smith_normal_form(m)
    cols = [j for j in range(nc) if j >= min(nr, nc) or D[j, j] == 0]
    return V[:, cols]


def lattice_contains(gens: np.ndarray, vecs: np.ndarray) -> bool:
    """Do the columns of vecs lie in the lattice spanned by gens' columns?"""
    gens = np.atleast_2d(np.asarray(gens, dtype=object))
    vecs = np.atleast_2d(np.asarray(vecs, dtype=object))
    if vecs.shape[1] == 0:
        return True
    if not vecs.any():
        return True
    if gens.shape[1] == 0:
        return not vecs.any()
    U, D, _ = smith_normal_form(gens)
    c = U.astype(object) @ vecs.astype(object)
    k = min(gens.shape)
    for col in range(vecs.shape[1]):
        for i in range(gens.shape[0]):
            ci = int(c[i, col])
            di = int(D[i, i]) if i < k else 0
            if di == 0:
                if ci != 0:
                    return False
            elif ci % di != 0:
                return False
    return True


def check_exact(seq: Sequence[GroupHom]) -> list[bool]:
    """Exactness at each interior node of a composable chain of maps."""
    for a, b in zip(seq, seq[1:]):
        if a.dst != b.src:
            raise ShapeMismatch("consecutive maps are not composable")
        if not a.dst.is_free:
            raise ValueError("exactness checking supports free groups only")
    out = []
    for a, b in zip(seq, seq[1:]):
        fa, fb = a.as_array(), b.as_array()
        comp_zero = not (fb.astype(object) @ fa.astype(object)).any()
        ker = integer_kernel(fb)
        out.append(bool(comp_zero and lattice_contains(fa, ker)))
    return out


def six_term_check(d: SixTermDiagram) -> dict:
    """Exactness report around the six-term cycle."""
    labels = ["K0(J)", "K0(E)", "K0(A)", "K1(J)", "K1(E)", "K1(A)"]
    chain = [d.maps[(i - 1) % 6] for i in range(7)]
    node_ok = check_exact(chain)[:6]
    return {
        "exact_at": {labels[i]: node_ok[i] for i in range(6)},
        "all_exact": all(node_ok),
        "nodes": {labels[i]: str(d.nodes[i]) for i in range(6)},
    }


# ---------------------------------------------------------------------------
# Matrix loops and winding numbers.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixLoop:
    """Parametrized invertible complex matrix on a closed interval.

    ``sampler`` takes the parameter as a scalar or as a 1-D array of m
    values and returns an (n, n) matrix or an (m, n, n) stack, entry k
    belonging to parameter k.  :meth:`sample` checks that shape and raises
    ValueError on any other; it never broadcasts.
    """
    sampler: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float]
    endpoints_equal: bool = True

    def sample(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if t.ndim > 1:
            raise ValueError(
                f"loop parameters must be a scalar or 1-D, got shape {t.shape}")
        mats = np.asarray(self.sampler(t), dtype=complex)
        shape = mats.shape
        if (len(shape) != t.ndim + 2 or shape[:t.ndim] != t.shape
                or shape[-1] != shape[-2]):
            want = ", ".join([*map(str, t.shape), "n", "n"])
            raise ValueError(
                f"sampler returned shape {shape}, expected ({want})")
        return np.ascontiguousarray(mats)


@dataclass(frozen=True)
class WindingResult:
    integer: int
    raw: float


MIN_LOOP_DET = 1e-8
WINDING_INT_ATOL = 1e-6


def winding_number(loop: MatrixLoop, grid: int = 4001) -> WindingResult:
    """(1/2pi i) * integral of Tr(f' f^{-1}), f' by central differences.

    The loop is sampled on the whole grid in one call of its sampler.  The
    raw quadrature value must land within 1e-6 of an integer, which is
    returned alongside it.
    """
    if grid < 5:
        raise ValueError("grid must have at least 5 points")
    a, b = loop.domain
    ts = np.linspace(a, b, grid)
    h = ts[1] - ts[0]
    mats = loop.sample(ts)
    dets = np.linalg.det(mats)
    if np.abs(dets).min() <= MIN_LOOP_DET:
        raise SingularLoop("loop determinant at or below 1e-8 on the grid")
    dmats = np.empty_like(mats)
    dmats[1:-1] = (mats[2:] - mats[:-2]) / (2.0 * h)
    dmats[0] = (-3.0 * mats[0] + 4.0 * mats[1] - mats[2]) / (2.0 * h)
    dmats[-1] = (3.0 * mats[-1] - 4.0 * mats[-2] + mats[-3]) / (2.0 * h)
    integrand = np.trace(np.linalg.solve(mats, dmats),
                         axis1=-2, axis2=-1)
    raw = complex(np.trapezoid(integrand, dx=h)) / (2.0j * math.pi)
    value = raw.real
    nearest = round(value)
    if abs(value - nearest) > WINDING_INT_ATOL:
        raise NonIntegerResult(
            f"winding {value!r} is {abs(value - nearest):.2e} from an "
            "integer; refine the grid")
    return WindingResult(int(nearest), float(value))


def idempotent_residual(p_sampler: Callable, grid) -> float:
    """Max Frobenius norm of p^2 - p over the parameter grid."""
    worst = 0.0
    for theta in grid:
        p = np.atleast_2d(np.asarray(
            p_sampler(*theta) if isinstance(theta, tuple) else p_sampler(theta),
            dtype=complex))
        worst = max(worst, float(np.linalg.norm(p @ p - p)))
    return worst


def delta0_via_winding(lift_family: Sequence[Sequence[MatrixLoop]],
                       grid: int = 4001) -> GroupHom:
    """Connecting map from winding numbers of exponentiated lifts.

    lift_family[j] lists, for generator j, the loops obtained by
    restricting exp(2 pi i * lift_j) to each complement interval; entry
    (i, j) of the result is the winding of generator j on interval i.
    """
    if not lift_family:
        raise ValueError("need at least one generator")
    n_int = len(lift_family[0])
    if any(len(loops) != n_int for loops in lift_family):
        raise ShapeMismatch("generators disagree on the interval count")
    cols = []
    for loops in lift_family:
        cols.append([winding_number(lp, grid).integer for lp in loops])
    matrix = tuple(tuple(cols[j][i] for j in range(len(lift_family)))
                   for i in range(n_int))
    return GroupHom(free_group(len(lift_family)), free_group(n_int), matrix)


def connes_thom_shift(k: KPair, n: int) -> KPair:
    """K-pair of the crossed product by R^n: swap components iff n is odd."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return KPair(k.k1, k.k0) if n % 2 else KPair(k.k0, k.k1)


# ---------------------------------------------------------------------------
# Fixtures.
# ---------------------------------------------------------------------------

def load_fixture(name: str) -> dict:
    path = resources.files("orbiton").joinpath("fixtures").joinpath(
        f"{name}.json")
    return json.loads(path.read_text())


def k_table(space_name: str) -> KPair:
    table = load_fixture("k_table")["spaces"]
    if space_name not in table:
        raise UnknownSpace(space_name)
    entry = table[space_name]
    return KPair(AbelianGroup(entry["k0"]["rank"],
                              tuple(entry["k0"].get("torsion", ()))),
                 AbelianGroup(entry["k1"]["rank"],
                              tuple(entry["k1"].get("torsion", ()))))


def hexagon_names() -> list[str]:
    return sorted(load_fixture("hexagons")["diagrams"])


def hexagon(name: str) -> SixTermDiagram:
    data = load_fixture("hexagons")["diagrams"]
    if name not in data:
        raise UnknownSpace(name)
    entry = data[name]
    nodes = tuple(AbelianGroup(r) for r in entry["nodes"])
    maps = []
    for i, rows in enumerate(entry["maps"]):
        src, dst = nodes[i], nodes[(i + 1) % 6]
        if len(rows) != dst.rank or any(len(r) != src.rank for r in rows):
            raise ShapeMismatch(f"fixture map {i} of {name} has a bad shape")
        maps.append(GroupHom(src, dst, tuple(tuple(r) for r in rows)))
    return SixTermDiagram(nodes, tuple(maps))


def idempotent_p(phi: float, r: float) -> np.ndarray:
    """Rank-one idempotent built from the angle phi and radius r."""
    c, s = math.cos(r * math.pi), math.sin(r * math.pi)
    e = cmath.exp(1j * phi)
    return 0.5 * np.array([[1.0 - c, e * s],
                           [e.conjugate() * s, 1.0 + c]], dtype=complex)


def constant_loop(mat, domain=(0.0, 1.0)) -> MatrixLoop:
    """The loop that stays at mat; its sampler broadcasts mat to every t."""
    m = np.atleast_2d(np.asarray(mat, dtype=complex))
    return MatrixLoop(lambda t: np.broadcast_to(m, np.shape(t) + m.shape),
                      domain)


def _phase_matrices(phase: np.ndarray) -> np.ndarray:
    """exp(2 pi i * phase) as a stack of 1 x 1 matrices."""
    return np.exp(2j * np.pi * phase)[..., None, None]


def u_plus_loop(eps: float = 5e-5) -> MatrixLoop:
    """Phase loop exp(2 pi i * t/sqrt(1+t^2)) on [0, inf), compactified.

    The substitution t = s/(1-s) maps [0, 1-eps] onto [0, (1-eps)/eps];
    the tail phase change beyond that is below 1e-8 for eps = 5e-5.
    """
    def sampler(s: np.ndarray) -> np.ndarray:
        t = s / (1.0 - s)
        return _phase_matrices(t / np.sqrt(1.0 + t * t))
    return MatrixLoop(sampler, (0.0, 1.0 - eps))


def _idempotent_exp_loop(p: np.ndarray,
                         phase_fn: Callable[[np.ndarray], np.ndarray],
                         domain: tuple[float, float]) -> MatrixLoop:
    eye = np.eye(p.shape[0], dtype=complex)

    def sampler(t: np.ndarray) -> np.ndarray:
        # exp(2 pi i g p) = I + (e^{2 pi i g} - 1) p for an idempotent p.
        return eye + (_phase_matrices(phase_fn(t)) - 1.0) * p
    return MatrixLoop(sampler, domain)


def half_line_lift_loops(eps: Optional[float] = None
                         ) -> list[list[MatrixLoop]]:
    """Lift family for the punctured-plane idempotent difference class.

    One generator, lifted as g(t) * p with g(t) = t/sqrt(1+t^2) on each of
    the two half-lines (both compactified); expected winding column (1, 1).
    """
    fx = load_fixture("lifts")["half_line"]
    if eps is None:
        eps = float(fx["eps"])
    p = idempotent_p(float(fx["p_phi_over_pi"]) * math.pi, float(fx["p_r"]))

    def g(t: np.ndarray) -> np.ndarray:
        return t / np.sqrt(1.0 + t * t)

    hi = 1.0 - eps
    plus = _idempotent_exp_loop(p, lambda s: g(s / (1.0 - s)), (0.0, hi))

    def t_minus(s: np.ndarray) -> np.ndarray:
        u = hi - s
        return -u / (1.0 - u)

    minus = _idempotent_exp_loop(p, lambda s: g(t_minus(s)), (0.0, hi))
    return [[plus, minus]]


def vertex_lift_interval_count() -> int:
    fx = load_fixture("lifts")["vertex_lifts"]
    return len(fx["breakpoints_over_pi"]) - 1


def vertex_lift_loops() -> list[list[MatrixLoop]]:
    """Piecewise-linear lifts of the marked-point indicator functions.

    Generator j interpolates the j-th vertex indicator on the circle;
    restricted to each complement interval, exp(2 pi i * lift) is a loop
    whose winding is the lift's endpoint difference.
    """
    fx = load_fixture("lifts")["vertex_lifts"]
    bps = [b * math.pi for b in fx["breakpoints_over_pi"]]
    fams: list[list[MatrixLoop]] = []
    for values in fx["values"]:
        loops = []
        for i in range(len(bps) - 1):
            a, b = bps[i], bps[i + 1]
            va, vb = float(values[i]), float(values[i + 1])

            def sampler(t: np.ndarray, a=a, b=b, va=va, vb=vb) -> np.ndarray:
                return _phase_matrices(va + (vb - va) * (t - a) / (b - a))
            loops.append(MatrixLoop(sampler, (a, b)))
        fams.append(loops)
    return fams
