"""Coadjoint action, Kirillov form, orbit sampling and stratification.

Conventions.  A linear functional F on the algebra is a plain coordinate
array in the dual basis; for the four-dimensional families the entries
are written (alpha, beta, gamma, delta).  The coadjoint action of
exp(U) sends F to the row vector F @ exp(ad_U): coordinate j of the
image is <F, exp(ad_U) X_j>.  Orbits as point sets agree with the usual
Ad*(g^{-1}) definition because U runs over the whole algebra.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .lie_core import (
    DimensionMismatch,
    LieAlgebra,
    LieAlgebraError,
    Subspace,
    exp_ad,
    numeric_rank,
)

__all__ = [
    "OddKirillovRank",
    "KirillovForm",
    "GroupWord",
    "OrbitSample",
    "kirillov_form",
    "orbit_dimension",
    "stabilizer_algebra",
    "flow_tangent",
    "coadjoint_flow",
    "random_word",
    "sample_orbit",
    "stratify",
]


class OddKirillovRank(LieAlgebraError):
    """The Kirillov form has odd numerical rank, so it is not skew."""


@dataclass(frozen=True)
class KirillovForm:
    """Skew form B_F(u, v) = <F, [u, v]> in matrix coordinates."""

    matrix: np.ndarray
    functional: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.functional.setflags(write=False)

    @property
    def rank(self) -> int:
        return numeric_rank(self.matrix)

    def kernel(self) -> Subspace:
        """Null space of the form; equals the stabilizer subalgebra at F."""
        n = self.matrix.shape[0]
        u, s, vt = np.linalg.svd(self.matrix)
        r = numeric_rank(self.matrix)
        basis = vt[r:].T if r < n else np.zeros((n, 0))
        return Subspace(ambient_dim=n, basis_matrix=basis)

    def evaluate(self, u: Sequence[float], v: Sequence[float]) -> float:
        return float(np.asarray(u, dtype=float) @ self.matrix
                     @ np.asarray(v, dtype=float))


@dataclass(frozen=True)
class GroupWord:
    """Product exp(t_1 X_{i_1}) ... exp(t_m X_{i_m}) acting step by step."""

    steps: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "steps",
            tuple((int(i), float(t)) for i, t in self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((i, -t) for i, t in reversed(self.steps)))


@dataclass(frozen=True)
class OrbitSample:
    """Numerically sampled points of one coadjoint orbit."""

    base: np.ndarray
    points: np.ndarray          # shape (n, dim), one functional per row
    est_dim: int
    seed: Optional[int] = None

    def __post_init__(self):
        self.base.setflags(write=False)
        self.points.setflags(write=False)

    def to_csv(self, labels: Optional[Sequence[str]] = None) -> str:
        """One row per point; columns are the dual coordinates."""
        dim = self.points.shape[1]
        names = list(labels) if labels is not None else [
            f"F{k}" for k in range(dim)]
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(names)
        for row in self.points:
            w.writerow([repr(float(v)) for v in row])
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "base": [float(v) for v in self.base],
            "est_dim": int(self.est_dim),
            "seed": self.seed,
            "points": [[float(v) for v in row] for row in self.points],
        }


def _as_functional(g: LieAlgebra, F: Sequence[float]) -> np.ndarray:
    arr = np.asarray(F, dtype=float)
    if arr.shape != (g.dim,):
        raise DimensionMismatch(
            f"functional has shape {arr.shape}, algebra dim {g.dim}")
    return arr


def kirillov_form(g: LieAlgebra, F: Sequence[float]) -> KirillovForm:
    """Matrix with entry (i, j) = <F, [X_i, X_j]>."""
    f = _as_functional(g, F)
    m = np.einsum("ijk,k->ij", g.c, f)
    return KirillovForm(matrix=m, functional=f)


def orbit_dimension(g: LieAlgebra, F: Sequence[float]) -> int:
    """Rank of the Kirillov form at F.  Always even."""
    r = kirillov_form(g, F).rank
    # Skew forms have even rank; an odd one means the structure constants
    # are not antisymmetric or the rank tolerance split a conjugate
    # singular-value pair, which the uniform SVD rule is designed to avoid.
    if r % 2:
        raise OddKirillovRank(f"odd numerical rank {r} for a skew form")
    return r


def stabilizer_algebra(g: LieAlgebra, F: Sequence[float]) -> Subspace:
    """Lie algebra of the stabilizer of F: the kernel of the Kirillov form."""
    return kirillov_form(g, F).kernel()


def flow_tangent(g: LieAlgebra, F: Sequence[float], k: int) -> np.ndarray:
    """Derivative at t=0 of t -> K(exp(t X_k)) F.

    Row k of the Kirillov form: coordinate j is <F, [X_k, X_j]>.
    """
    f = _as_functional(g, F)
    return np.einsum("jk,k->j", g.c[k], f)


def coadjoint_flow(g: LieAlgebra, F: Sequence[float],
                   word: GroupWord | Sequence[tuple[int, float]]) -> np.ndarray:
    """Apply K(exp(t X_i)) for each step of the word, in order."""
    if not isinstance(word, GroupWord):
        word = GroupWord(tuple(word))
    f = _as_functional(g, F)
    for idx, t in word.steps:
        if not 0 <= idx < g.dim:
            raise IndexError(f"generator index {idx} out of range for dim {g.dim}")
        u = np.zeros(g.dim)
        u[idx] = t
        f = f @ exp_ad(g, u)
    return f


def random_word(g: LieAlgebra, rng: np.random.Generator,
                length: Optional[int] = None,
                step_scale: float = 1.0) -> GroupWord:
    if length is None:
        length = 2 * g.dim
    idx = rng.integers(0, g.dim, size=length)
    ts = rng.uniform(-step_scale, step_scale, size=length)
    return GroupWord(tuple(zip(idx.tolist(), ts.tolist())))


def sample_orbit(g: LieAlgebra, F: Sequence[float], n: int,
                 step_scale: float = 1.0,
                 seed: Optional[int] = None,
                 word_length: Optional[int] = None) -> OrbitSample:
    """Sample n orbit points by random words of one-parameter subgroups.

    Words have length 2*dim by default; parameters are uniform in
    (-step_scale, step_scale).  est_dim is the rank of the tangent span
    at the base point, which coincides with orbit_dimension(g, F).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    f = _as_functional(g, F)
    rng = np.random.default_rng(seed)
    pts = np.empty((n, g.dim))
    for row in range(n):
        w = random_word(g, rng, length=word_length, step_scale=step_scale)
        pts[row] = coadjoint_flow(g, f, w)
    # Tangent span at the base: rows of B_F, whose rank is the orbit
    # dimension.
    est = orbit_dimension(g, f)
    return OrbitSample(base=f, points=pts, est_dim=est, seed=seed)


def stratify(g: LieAlgebra,
             functionals: Iterable[Sequence[float]]) -> dict[int, list[np.ndarray]]:
    """Partition functionals by orbit dimension."""
    out: dict[int, list[np.ndarray]] = {}
    for F in functionals:
        f = _as_functional(g, F)
        out.setdefault(orbit_dimension(g, f), []).append(f)
    return out
