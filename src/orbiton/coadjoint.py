"""Coadjoint action, Kirillov form, orbit sampling and stratification.

Conventions.  A linear functional F on the algebra is a plain coordinate
array in the dual basis; for the four-dimensional families the entries
are written (alpha, beta, gamma, delta).  The coadjoint action of
exp(U) sends F to the row vector F @ exp(ad_U): coordinate j of the
image is <F, exp(ad_U) X_j>.  Orbits as point sets agree with the usual
Ad*(g^{-1}) definition because U runs over the whole algebra.

Orbit samples are words of one-parameter steps,
F·exp(t_1 ad_{X_i1})···exp(t_m ad_{X_im}).  Draw order: row by row, each
row takes its m generator indices from ``rng.integers`` and then its m
times from ``rng.uniform``, exactly as ``random_word`` does, so a seed
fixes every point.  ``_draw_words`` rebuilds a block of such rows from one
``bit_generator.random_raw`` call, bit for bit, by numpy's draw contract
for the PCG64 generator of ``default_rng``:

- ``integers(0, dim)`` with 2 <= dim <= 2**32 maps a 32-bit value x to
  (x·dim) >> 32 (Lemire's method).  The 32-bit values are the halves of
  raw 64-bit words, low half first; the high half waits in the bit
  generator's buffer, so a row of odd length leaves it to the next row.
  dim = 1 draws no bits.
- The value is rejected, and another drawn, when the low 32 bits of x·dim
  fall below (2**32 - dim) mod dim.  That never happens for a power of two
  and has probability below 6/2**32 for dim <= 8; a block that meets a
  rejection is drawn again row by row with ``_draw_word``.
- ``uniform(low, high)`` reads one raw word per time, as
  low + (high - low)·((raw >> 11)·2**-53).

Evaluation is batched: the steps of a block of rows
are stacked into one (rows, m, d, d) array of t·ad_{X_i} and exponentiated
by one call of the batched Pade kernel behind ``lie_core.expm`` and
``exp_ad``, then each row is composed left to right.  The kernel treats
every slice on its own (its own scaling, its own squarings), so a row's
point does not depend on the block it was evaluated in: row r of a sample
is bit for bit ``coadjoint_flow`` of the r-th word.

``sample_orbit`` keeps the step stack and the kernel's temporaries in a
per-thread workspace, reused from call to call and never larger than one
block needs (about 1.2 MB at 200 points, at most about 6 MB).  At 200
points each of these arrays is about 200 KB, above glibc's default 128 KB
mmap and trim thresholds, so arrays made afresh go back to the kernel when
freed (unmapped, or trimmed off the top of the heap) and the next call
faults their pages in again: about 9,900 minor faults per ``orbit-atlas``
benchmark pass, against 1 on the workspace.  The workspace changes where
results are stored, not which operations run, so samples are bit for bit
those of fresh arrays.
"""

from __future__ import annotations

import csv
import io
import json
import math
import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .lie_core import (
    DimensionMismatch,
    LieAlgebra,
    LieAlgebraError,
    NonFiniteInput,
    Subspace,
    _expm_into,
    _fresh_array,
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

# Steps exponentiated per stacked expm call (128 bytes each in dimension
# 4, times the kernel's few temporaries), so sampling memory does not
# grow with the number of points.
_BLOCK_STEPS = 8192


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
    if not np.isfinite(arr).all():
        i = int(np.argmin(np.isfinite(arr)))
        raise NonFiniteInput(f"coordinate {i} of the functional is {arr[i]}")
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


class _Workspace(threading.local):
    """One array per slot, kept by each thread and reused from call to
    call: requests return a view of it, grown when a request needs more.
    """

    def __init__(self):
        self.arrays = {}

    def __call__(self, slot: str, shape: tuple, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        array = self.arrays.get(slot)
        if array is None or array.size < size:
            array = self.arrays[slot] = np.empty(size, dtype)
        return array[:size].reshape(shape)


_workspace = _Workspace()


def _step_exponentials(g: LieAlgebra, idx: np.ndarray, ts: np.ndarray,
                       work=_fresh_array) -> np.ndarray:
    """exp(t·ad_{X_i}) for every (i, t) pair of two equal-shape arrays.

    Every array of the step stack comes from work (see
    ``lie_core._expm_into``); by default each is new, so the caller owns
    the result.  With ``_workspace`` the result is only valid until the
    thread's next such call.
    """
    d = g.dim
    gens = np.swapaxes(g.c, 1, 2)            # gens[i] = ad_matrix(g, X_i)
    steps = np.take(gens, idx, axis=0, out=work("steps", idx.shape + (d, d)),
                    mode="clip")
    # ad_matrix(g, t·X_i) sums t·c[i] with zeros, which turns each -0.0
    # into +0.0; adding 0.0 does the same and changes nothing else.
    np.multiply(ts[..., None, None], steps, out=steps)
    np.add(steps, 0.0, out=steps)
    out = work("exps", steps.shape)
    _expm_into(steps.reshape(-1, d, d), out.reshape(-1, d, d), work)
    return out


def _compose(f: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """Rows f @ exps[r, 0] @ ... @ exps[r, m-1], multiplied left to right."""
    v = np.tile(f, (exps.shape[0], 1, 1))
    for step in range(exps.shape[1]):
        v = v @ exps[:, step]
    return v[:, 0]


def coadjoint_flow(g: LieAlgebra, F: Sequence[float],
                   word: GroupWord | Sequence[tuple[int, float]]) -> np.ndarray:
    """Apply K(exp(t X_i)) for each step of the word, in order."""
    if not isinstance(word, GroupWord):
        word = GroupWord(tuple(word))
    f = _as_functional(g, F)
    for idx, _ in word.steps:
        if not 0 <= idx < g.dim:
            raise IndexError(f"generator index {idx} out of range for dim {g.dim}")
    idx = np.array([[i for i, _ in word.steps]], dtype=np.int64)
    ts = np.array([[t for _, t in word.steps]], dtype=float)
    return _compose(f, _step_exponentials(g, idx, ts))[0]


def _draw_word(rng: np.random.Generator, dim: int, length: int,
               step_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Generator indices, then times: the draw order of every orbit word."""
    idx = rng.integers(0, dim, size=length)
    ts = rng.uniform(-step_scale, step_scale, size=length)
    return idx, ts


def _draw_words(rng: np.random.Generator, rows: int, dim: int, length: int,
                step_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(rows, length) indices and times of ``rows`` calls of ``_draw_word``.

    One ``random_raw`` call gives the row loop's draws bit for bit and
    leaves the bit generator in the row loop's state (see the module
    docstring).  A generator other than PCG64, a dim above 2**32 and a
    block that meets a Lemire rejection run the row loop itself.
    """
    bg = rng.bit_generator
    start = bg.state
    if isinstance(bg, np.random.PCG64) and 1 <= dim <= 2 ** 32:
        r = np.arange(rows)
        pending = start["has_uint32"] if dim > 1 else 0
        # Integer words fetched by the end of row r: the halves of rows
        # 0..r, less the one pending at the start, in whole words.
        ints = (((r + 1) * length - pending + 1) // 2 if dim > 1
                else np.zeros_like(r))
        # Row r reads its new integer words, then its `length` time words.
        times = (ints + r * length)[:, None] + np.arange(length)
        raw = bg.random_raw(int(ints[-1]) + rows * length)
        low = -float(step_scale)
        u = (raw[times] >> 11) * 2.0 ** -53
        ts = low + (float(step_scale) - low) * u
        if dim == 1:
            return np.zeros((rows, length), dtype=np.int64), ts
        is_int = np.ones(raw.size, dtype=bool)
        is_int[times] = False
        words = raw[is_int]
        halves = np.empty(pending + 2 * words.size, dtype=np.uint64)
        halves[:pending] = start["uinteger"]
        halves[pending::2] = words & 0xFFFFFFFF
        halves[pending + 1::2] = words >> 32
        m = halves[:rows * length] * np.uint64(dim)
        threshold = (2 ** 32 - dim) % dim
        if not (threshold and ((m & 0xFFFFFFFF) < threshold).any()):
            if halves.size:
                # The last high half is pending, or stale, as numpy leaves it.
                state = bg.state
                state["has_uint32"] = halves.size - rows * length
                state["uinteger"] = int(halves[-1])
                bg.state = state
            return (m >> 32).astype(np.int64).reshape(rows, length), ts
        bg.state = start
    idx = np.empty((rows, length), dtype=np.int64)
    ts = np.empty((rows, length))
    for r in range(rows):
        idx[r], ts[r] = _draw_word(rng, dim, length, step_scale)
    return idx, ts


def random_word(g: LieAlgebra, rng: np.random.Generator,
                length: Optional[int] = None,
                step_scale: float = 1.0) -> GroupWord:
    if length is None:
        length = 2 * g.dim
    idx, ts = _draw_word(rng, g.dim, length, step_scale)
    return GroupWord(tuple(zip(idx.tolist(), ts.tolist())))


def sample_orbit(g: LieAlgebra, F: Sequence[float], n: int,
                 step_scale: float = 1.0,
                 seed: Optional[int] = None,
                 word_length: Optional[int] = None) -> OrbitSample:
    """Sample n orbit points by random words of one-parameter subgroups.

    Words have length 2*dim by default; parameters are uniform in
    (-step_scale, step_scale).  Row r is coadjoint_flow(g, F, w_r), bit for
    bit, where w_r is the r-th random_word drawn from default_rng(seed):
    the words are drawn in that order, so the first m rows do not depend
    on n.  Each block of rows is drawn from one raw call of the bit
    generator, which reproduces numpy's integers-then-uniform draws row by
    row (see the module docstring), and evaluated by one batched
    exponential.  est_dim is the rank of the tangent span at the base
    point, which coincides with orbit_dimension(g, F).

    Raises ValueError for n < 1, word_length < 0, and a step_scale that
    numpy's uniform(-step_scale, step_scale) rejects: negative (-0.0
    included), NaN, or with 2·step_scale not finite; NonFiniteInput for a
    non-finite F.  Nothing is drawn before these checks.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    span = 2.0 * float(step_scale)
    if not math.isfinite(span) or math.copysign(1.0, span) < 0:
        raise ValueError(f"step_scale must be finite and >= 0, "
                         f"got {step_scale!r}")
    length = 2 * g.dim if word_length is None else word_length
    if length < 0:
        raise ValueError(f"word_length must be >= 0, got {length}")
    f = _as_functional(g, F)
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_STEPS // max(1, length))
    pts = np.empty((n, g.dim))
    for start in range(0, n, block):
        rows = min(block, n - start)
        idx, ts = _draw_words(rng, rows, g.dim, length, step_scale)
        pts[start:start + rows] = _compose(
            f, _step_exponentials(g, idx, ts, _workspace))
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
