"""Finite-dimensional real Lie algebras given by structure constants.

An algebra is stored as a dense rank-3 array ``c`` with
``[X_i, X_j] = sum_k c[i, j, k] X_k``.  Everything downstream (coadjoint
action, classification, orbit models) consumes this representation.
Vectors and functionals are plain float arrays of length ``dim``;
coordinates are the only semantics, labels are cosmetic.

A ``LieAlgebra`` is frozen and its ``c`` is read-only, so its derived
series is walked once per algebra object, on first use, and cached on it.
:func:`derived_series`, :func:`derived_series_length` and
:func:`derived_subalgebra` read that walk; its stage bases are read-only.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LieAlgebraError",
    "AntisymmetryViolation",
    "JacobiViolation",
    "DimensionMismatch",
    "NonFiniteInput",
    "LieAlgebra",
    "Subspace",
    "validate_algebra",
    "bracket",
    "change_basis",
    "ad_matrix",
    "exp_ad",
    "expm",
    "derived_subalgebra",
    "derived_series",
    "derived_series_length",
    "numeric_rank",
    "singular_value_rank",
    "noise_floor",
    "load_algebra_json",
    "algebra_to_json",
]

# Uniform rank rule: singular values below dim * sigma_max * RANK_RTOL are zero.
RANK_RTOL = 1e-10
VALIDATION_ATOL = 1e-12

# Coefficients b_0 .. b_13 of the [13/13] Pade approximant to exp, and the
# largest 1-norm theta_13 at which it meets double precision (Higham, SIAM
# J. Matrix Anal. Appl. 26 (2005), Table 2.3 and eq. 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


class LieAlgebraError(Exception):
    pass


class AntisymmetryViolation(LieAlgebraError):
    def __init__(self, i: int, j: int, k: int, residual: float):
        self.triple = (i, j, k)
        self.residual = residual
        super().__init__(
            f"c[{i},{j},{k}] + c[{j},{i},{k}] = {residual:.3e} (must vanish)"
        )


class JacobiViolation(LieAlgebraError):
    def __init__(self, i: int, j: int, k: int, residual: float):
        self.triple = (i, j, k)
        self.residual = residual
        super().__init__(
            f"Jacobi identity fails on (X_{i}, X_{j}, X_{k}): residual {residual:.3e}"
        )


class DimensionMismatch(LieAlgebraError):
    pass


class NonFiniteInput(LieAlgebraError):
    """A coordinate of a functional or a point, or a structure constant, is
    NaN or infinite."""


def _jacobiator(c: np.ndarray) -> np.ndarray:
    # J[i,j,l,:] = [[X_i,X_j],X_l] + [[X_j,X_l],X_i] + [[X_l,X_i],X_j]
    t1 = np.einsum("ijm,mlk->ijlk", c, c)
    t2 = np.einsum("jlm,mik->ijlk", c, c)
    t3 = np.einsum("lim,mjk->ijlk", c, c)
    return t1 + t2 + t3


@dataclass(frozen=True)
class LieAlgebra:
    """Validated structure-constant algebra.  Use :func:`validate_algebra`."""

    dim: int
    c: np.ndarray
    basis_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.c.shape != (self.dim, self.dim, self.dim):
            raise DimensionMismatch(
                f"structure array shape {self.c.shape} != ({self.dim},)*3"
            )
        if not self.basis_labels:
            object.__setattr__(
                self, "basis_labels", tuple(f"X{i}" for i in range(self.dim))
            )
        if len(self.basis_labels) != self.dim:
            raise DimensionMismatch("label count != dim")
        self.c.setflags(write=False)

    @functools.cached_property
    def _derived(self) -> tuple[tuple[Subspace, ...], int | None]:
        """Stages and length of the derived series; see :func:`derived_series`."""
        floor = noise_floor(self)
        series = [Subspace.full(self.dim)]
        while series[-1].dim:
            series.append(_derived_step(self, series[-1], floor))
            if series[-1].dim >= series[-2].dim:
                break
        for stage in series:
            stage.basis_matrix.setflags(write=False)
        return tuple(series), len(series) - 1 if not series[-1].dim else None

    def vector(self, coords) -> np.ndarray:
        v = np.asarray(coords, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"vector shape {v.shape}, expected ({self.dim},)")
        return v


def validate_algebra(c, basis_labels=None, atol: float = VALIDATION_ATOL) -> LieAlgebra:
    """Check antisymmetry and the Jacobi identity, then wrap the constants.

    Raises :class:`NonFiniteInput` naming the first NaN or infinite entry
    (every comparison with NaN is false, so neither check below would see
    it), then :class:`AntisymmetryViolation` or :class:`JacobiViolation`
    carrying the worst offending triple and its residual.
    """
    c = np.array(c, dtype=float)
    if c.ndim != 3 or len(set(c.shape)) != 1:
        raise DimensionMismatch(f"expected a cubic rank-3 array, got shape {c.shape}")
    n = c.shape[0]
    if not np.isfinite(c).all():
        i, j, k = np.argwhere(~np.isfinite(c))[0]
        raise NonFiniteInput(f"structure constant c[{i},{j},{k}] is {c[i, j, k]}")

    anti = c + np.swapaxes(c, 0, 1)
    if np.abs(anti).max() > atol:
        i, j, k = np.unravel_index(np.abs(anti).argmax(), anti.shape)
        raise AntisymmetryViolation(int(i), int(j), int(k), float(anti[i, j, k]))

    jac = _jacobiator(c)
    worst = np.abs(jac).sum(axis=3)
    if worst.max() > atol:
        i, j, l = np.unravel_index(worst.argmax(), worst.shape)
        raise JacobiViolation(int(i), int(j), int(l), float(worst[i, j, l]))

    labels = tuple(basis_labels) if basis_labels is not None else ()
    return LieAlgebra(dim=n, c=c, basis_labels=labels)


def bracket(g: LieAlgebra, u, v) -> np.ndarray:
    """[u, v] in basis coordinates."""
    u = g.vector(u)
    v = g.vector(v)
    return np.einsum("i,j,ijk->k", u, v, g.c)


def change_basis(g: LieAlgebra, p: np.ndarray) -> LieAlgebra:
    """Structure constants in the basis whose j-th vector is column j of p.

    The result is antisymmetrized exactly; Jacobi holds automatically for
    an exact change of basis, so no re-validation is performed (rounding
    noise scales with cond(p) and would trip a fixed tolerance).
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (g.dim, g.dim):
        raise DimensionMismatch(f"basis matrix shape {p.shape} != ({g.dim},{g.dim})")
    d = g.dim
    pinv = np.linalg.inv(p)
    # c_new[a, b, m] = sum p[i, a] p[j, b] c[i, j, k] pinv[m, k], contracted
    # over i, then j, then k: the order is part of the result's last bits.
    # Each step is the one np.dot that np.tensordot would make.
    c_new = np.dot(p.T, g.c.reshape(d, d * d)).reshape(d, d, d)  # [a, j, k]
    c_new = np.dot(p.T, c_new.transpose(1, 0, 2).reshape(d, d * d))
    c_new = c_new.reshape(d, d, d).transpose(2, 0, 1)  # [k, b, a]
    c_new = np.dot(pinv, c_new.reshape(d, d * d)).reshape(d, d, d)
    c_new = c_new.transpose(2, 1, 0)
    c_new = 0.5 * (c_new - np.swapaxes(c_new, 0, 1))
    return LieAlgebra(dim=g.dim, c=c_new)


def ad_matrix(g: LieAlgebra, u) -> np.ndarray:
    """Matrix of ad_u = [u, .]; column j holds the coordinates of [u, X_j]."""
    u = g.vector(u)
    return np.einsum("i,ijk->kj", u, g.c)


def exp_ad(g: LieAlgebra, u) -> np.ndarray:
    """exp(ad_u) by :func:`expm` (relative accuracy well below 1e-12)."""
    return expm(ad_matrix(g, u))


def expm(a) -> np.ndarray:
    """Matrix exponential of every slice of a (..., d, d) stack.

    Scaling and squaring with the [13/13] Pade approximant, evaluated for
    the whole stack at once, but with nothing shared between slices: each
    slice takes its own s = max(0, ceil(log2(||A||_1 / theta_13))), and the
    k-th squaring round touches only the slices with s > k.  A slice's
    result therefore does not depend on the rest of the stack.

    Exact results stay exact.  A diagonal slice, zero included, returns
    diag(exp(diag(A))), and a nilpotent one (A^d = 0 in floating point)
    its terminating series I + A + ... + A^(d-1)/(d-1)!, both without any
    Pade step.  Entry (i, j) of exp(A) vanishes when no chain of nonzero
    entries of A leads from i to j, and is set to 0.0 there; this zeroes
    the other triangle of a triangular slice.
    """
    # One memory layout for every caller, so that a slice's bits do not
    # depend on how its stack was built.
    a = np.ascontiguousarray(a, dtype=float)
    shape = a.shape
    if len(shape) < 2 or shape[-1] != shape[-2]:
        raise DimensionMismatch(f"expected a (..., d, d) stack, got {shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix exponential of a non-finite matrix")
    d = shape[-1]
    a = a.reshape(-1, d, d)
    eye = np.eye(d, dtype=bool)
    full = (a[:, ~eye] != 0.0).any(axis=1)
    out = np.zeros_like(a)
    i = np.arange(d)
    out[:, i, i] = np.exp(a[:, i, i])

    af = a[full]
    r = np.eye(d) + af
    term = af
    for k in range(2, d):
        term = term @ af / k
        r += term
    # Products keep the zeros of the pattern exact, so the series needs no
    # mask; the Pade solve can fill them, so its result is masked with the
    # reachability of the graph of A (paths of length <= d - 1).
    pade = (term @ af).any(axis=(1, 2))
    ap = af[pade]
    reach = (ap != 0.0) | eye
    for _ in range(max(d - 2, 0).bit_length()):
        reach = reach @ reach
    r[pade] = np.where(reach, _pade13_squared(ap), 0.0)
    out[full] = r
    return out.reshape(shape)


def _pade13_squared(a: np.ndarray) -> np.ndarray:
    """Scaling and squaring with the [13/13] Pade approximant, per slice."""
    norm = np.einsum("nij->nj", np.abs(a)).max(axis=1)
    # ceil(log2(x)) from the binary exponent, without log2(0) = -inf.
    mant, expo = np.frexp(norm / _THETA13)
    s = np.maximum(expo - (mant == 0.5), 0)
    x = np.ldexp(a, -s[:, None, None])

    b = _PADE13
    ident = np.eye(a.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        sel = s > k
        rs = r[sel]
        r[sel] = rs @ rs
    return r


def noise_floor(g: LieAlgebra) -> float:
    """Absolute singular-value floor for columns that may be pure roundoff."""
    return 1e-10 * (1.0 + float(np.abs(g.c).max()))


def numeric_rank(m: np.ndarray) -> int:
    """Rank by singular values with tolerance dim * sigma_max * 1e-10."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return 0
    return singular_value_rank(np.linalg.svd(m, compute_uv=False), m.shape)


def singular_value_rank(s: np.ndarray, shape: tuple) -> int:
    """numeric_rank of a matrix of this shape from its singular values s
    (descending), for callers that need the values too."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = max(shape) * s[0] * RANK_RTOL
    return int((s > tol).sum())


@dataclass(frozen=True)
class Subspace:
    """Column span with an orthonormal basis, produced by :meth:`from_columns`."""

    ambient_dim: int
    basis_matrix: np.ndarray  # ambient_dim x r, orthonormal columns

    @property
    def dim(self) -> int:
        return self.basis_matrix.shape[1]

    @classmethod
    def from_columns(cls, cols: np.ndarray, ambient_dim: int | None = None,
                     atol: float = 0.0) -> "Subspace":
        """Span of the columns, with the uniform SVD rank rule.

        ``atol`` is an absolute singular-value floor for callers whose
        columns may consist entirely of roundoff noise; the relative rule
        alone would promote such noise to full rank.
        """
        cols = np.atleast_2d(np.asarray(cols, dtype=float))
        if ambient_dim is None:
            ambient_dim = cols.shape[0]
        if cols.size == 0 or cols.shape[1] == 0:
            return cls(ambient_dim, np.zeros((ambient_dim, 0)))
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            return cls(ambient_dim, np.zeros((ambient_dim, 0)))
        tol = max(ambient_dim * s[0] * RANK_RTOL, atol)
        r = int((s > tol).sum())
        return cls(ambient_dim, u[:, :r].copy())

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis_matrix @ (self.basis_matrix.T @ v)

    def residual(self, v: np.ndarray) -> float:
        """Distance of v from the subspace."""
        return float(np.linalg.norm(v - self.project(v)))

    def orthogonal_complement(self) -> "Subspace":
        if self.dim == 0:
            return Subspace.full(self.ambient_dim)
        u, _, _ = np.linalg.svd(self.basis_matrix, full_matrices=True)
        return Subspace(self.ambient_dim, u[:, self.dim:].copy())


def _derived_step(g: LieAlgebra, stage: Subspace, floor: float) -> Subspace:
    """[h, h] for the stage h: the span of the pairwise brackets of its basis."""
    b = stage.basis_matrix
    i, j = _pairs(b.shape[1])
    cols = np.einsum("in,jn,ijk->kn", b[:, i], b[:, j], g.c)
    return Subspace.from_columns(cols, g.dim, atol=floor)


@functools.cache
def _pairs(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs a < b of r basis vectors, in row-major order."""
    i, j = np.triu_indices(r, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def derived_subalgebra(g: LieAlgebra, k: int = 1) -> Subspace:
    """k-th derived ideal g^(k); k=0 returns the whole algebra.

    Stage k of the derived series, which is walked once per algebra
    object and cached on it, with read-only stage bases.  Each stage is
    the span of all pairwise brackets of a basis of the previous one.
    Bracket columns of an abelian stage are pure roundoff, so the rank
    rule gets an absolute floor tied to the size of the structure
    constants on top of the relative SVD rule.  Past the end of the walk
    the last stage is returned: zero, or the stage the series stabilizes
    at.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    series = g._derived[0]
    return series[min(k, len(series) - 1)]


def derived_series(g: LieAlgebra) -> tuple[tuple[Subspace, ...], int | None]:
    """Stages g^(0), g^(1), ... of the derived series, and its length.

    The series is walked once per algebra object, on first use, and cached
    on it; every call returns the same tuple of read-only stages, and
    stage k is derived_subalgebra(g, k).  The walk stops at the first zero
    stage, whose index is the length, or at the first stage that does not
    shrink, with length None.
    """
    return g._derived


def derived_series_length(g: LieAlgebra) -> int | None:
    """Steps until the derived series reaches 0, or None if it stabilizes nonzero.

    Read off the cached walk of :func:`derived_series`.
    """
    return g._derived[1]


def load_algebra_json(source) -> LieAlgebra:
    """Load an algebra from the JSON bracket-table format.

    ``{"dim": n, "labels": [...], "brackets": [{"i": 0, "j": 1,
    "coeffs": {"1": 1.0}}, ...]}``; omitted entries are zero.  Only one of
    (i,j)/(j,i) may be given per pair; the loader fills the mirror image by
    antisymmetry and validates the result.
    """
    if isinstance(source, (str, bytes)):
        data = json.loads(source)
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        data = source
    n = int(data["dim"])
    labels = data.get("labels")
    c = np.zeros((n, n, n))
    seen: set[tuple[int, int]] = set()
    for entry in data.get("brackets", []):
        i, j = int(entry["i"]), int(entry["j"])
        if not (0 <= i < n and 0 <= j < n):
            raise DimensionMismatch(f"bracket index ({i},{j}) out of range for dim {n}")
        if i == j:
            raise AntisymmetryViolation(i, j, 0, 0.0)
        if (i, j) in seen or (j, i) in seen:
            raise LieAlgebraError(f"duplicate bracket entry for pair ({i},{j})")
        seen.add((i, j))
        for k_str, val in entry.get("coeffs", {}).items():
            k = int(k_str)
            if not 0 <= k < n:
                raise DimensionMismatch(f"coefficient index {k} out of range")
            c[i, j, k] = float(val)
            c[j, i, k] = -float(val)
    return validate_algebra(c, basis_labels=labels)


def algebra_to_json(g: LieAlgebra) -> dict:
    """Inverse of :func:`load_algebra_json` (upper pairs only, zeros omitted)."""
    brackets = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            coeffs = {
                str(k): float(g.c[i, j, k])
                for k in range(g.dim)
                if g.c[i, j, k] != 0.0
            }
            if coeffs:
                brackets.append({"i": i, "j": j, "coeffs": coeffs})
    return {
        "schema": 1,
        "dim": g.dim,
        "labels": list(g.basis_labels),
        "brackets": brackets,
    }
