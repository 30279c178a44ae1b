"""Normal forms for the solvable Lie algebras handled by this package.

Each four-dimensional family is realized on the ordered basis
``(X, Y, Z, T)`` (indices 0..3).  Only the nonzero brackets are listed;
antisymmetric counterparts are filled in automatically and the Jacobi
identity is checked on construction, so a typo in a table fails fast.

Families whose normal form carries continuous parameters admit more than
one parameter value per isomorphism class (rescaling T, reordering
eigenvectors).  ``canonical_params`` maps any admissible value to the
representative this package reports, so classification output is
basis-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .lie_core import LieAlgebra, validate_algebra

__all__ = [
    "FamilyInfo",
    "FAMILIES",
    "FAMILY_ORDER",
    "BUILTIN_ALIASES",
    "abelian",
    "aff_r",
    "aff_c",
    "heisenberg3",
    "build_family",
    "builtin",
    "builtin_names",
    "canonical_params",
    "default_params",
]

_LABELS4 = ("X", "Y", "Z", "T")
_X, _Y, _Z, _T = 0, 1, 2, 3


def _make(dim: int, table: Sequence[tuple[int, int, int, float]],
          labels: Sequence[str]) -> LieAlgebra:
    """Assemble structure constants from a list of (i, j, k, coeff) with i < j."""
    c = np.zeros((dim, dim, dim))
    for i, j, k, v in table:
        c[i, j, k] += v
        c[j, i, k] -= v
    return validate_algebra(c, basis_labels=tuple(labels))


# ---------------------------------------------------------------------------
# The thirteen four-dimensional families.
#
# Trailing digit pairs in the names encode (dim of derived subalgebra,
# case number), e.g. g421 has two-dimensional derived subalgebra, case 1.
# ---------------------------------------------------------------------------

def g411() -> LieAlgebra:
    """[T, X] = Z.  Decomposable: Heisenberg h3 plus a line."""
    return _make(4, [(_T, _X, _Z, 1.0)], _LABELS4)


def g412() -> LieAlgebra:
    """[T, Z] = Z.  Decomposable: aff(R) plus a plane."""
    return _make(4, [(_T, _Z, _Z, 1.0)], _LABELS4)


def g421(lam: float = 2.0) -> LieAlgebra:
    """[T, Y] = lam*Y, [T, Z] = Z with lam != 0."""
    if lam == 0.0:
        raise ValueError("g421 requires lam != 0")
    return _make(4, [(_T, _Y, _Y, lam), (_T, _Z, _Z, 1.0)], _LABELS4)


def g422() -> LieAlgebra:
    """[T, Y] = Y, [T, Z] = Y + Z (nontrivial Jordan block)."""
    return _make(4, [(_T, _Y, _Y, 1.0), (_T, _Z, _Y, 1.0), (_T, _Z, _Z, 1.0)],
                 _LABELS4)


def g423(phi: float = math.pi / 3) -> LieAlgebra:
    """[T, Y] = cos(phi) Y - sin(phi) Z, [T, Z] = sin(phi) Y + cos(phi) Z.

    phi must lie in (0, pi); the rotation part is then genuinely complex.
    """
    if not 0.0 < phi < math.pi:
        raise ValueError("g423 requires phi in (0, pi)")
    cp, sp = math.cos(phi), math.sin(phi)
    return _make(4, [
        (_T, _Y, _Y, cp), (_T, _Y, _Z, -sp),
        (_T, _Z, _Y, sp), (_T, _Z, _Z, cp),
    ], _LABELS4)


def g424() -> LieAlgebra:
    """[X, Y] = -Z, [X, Z] = Y, [T, Y] = Y, [T, Z] = Z.

    Isomorphic to the real form of aff(C); the only family whose generic
    coadjoint orbit is four-dimensional.
    """
    return _make(4, [
        (_X, _Y, _Z, -1.0), (_X, _Z, _Y, 1.0),
        (_T, _Y, _Y, 1.0), (_T, _Z, _Z, 1.0),
    ], _LABELS4)


def g431(lam1: float = 2.0, lam2: float = 3.0) -> LieAlgebra:
    """[T, X] = lam1*X, [T, Y] = lam2*Y, [T, Z] = Z with lam1*lam2 != 0."""
    if lam1 == 0.0 or lam2 == 0.0:
        raise ValueError("g431 requires lam1 != 0 and lam2 != 0")
    return _make(4, [(_T, _X, _X, lam1), (_T, _Y, _Y, lam2),
                     (_T, _Z, _Z, 1.0)], _LABELS4)


def g432(lam: float = 2.0) -> LieAlgebra:
    """[T, X] = lam*X, [T, Y] = X + lam*Y, [T, Z] = Z with lam != 0."""
    if lam == 0.0:
        raise ValueError("g432 requires lam != 0")
    return _make(4, [(_T, _X, _X, lam), (_T, _Y, _X, 1.0), (_T, _Y, _Y, lam),
                     (_T, _Z, _Z, 1.0)], _LABELS4)


def g433() -> LieAlgebra:
    """[T, X] = X, [T, Y] = X + Y, [T, Z] = Y + Z (single Jordan block)."""
    return _make(4, [(_T, _X, _X, 1.0), (_T, _Y, _X, 1.0), (_T, _Y, _Y, 1.0),
                     (_T, _Z, _Y, 1.0), (_T, _Z, _Z, 1.0)], _LABELS4)


def g434(lam: float = 2.0, phi: float = math.pi / 3) -> LieAlgebra:
    """Rotation by phi on span(X, Y) plus scaling lam on Z.

    [T, X] = cos(phi) X - sin(phi) Y, [T, Y] = sin(phi) X + cos(phi) Y,
    [T, Z] = lam*Z, with lam != 0 and phi in (0, pi).
    """
    if lam == 0.0:
        raise ValueError("g434 requires lam != 0")
    if not 0.0 < phi < math.pi:
        raise ValueError("g434 requires phi in (0, pi)")
    cp, sp = math.cos(phi), math.sin(phi)
    return _make(4, [
        (_T, _X, _X, cp), (_T, _X, _Y, -sp),
        (_T, _Y, _X, sp), (_T, _Y, _Y, cp),
        (_T, _Z, _Z, lam),
    ], _LABELS4)


def g441() -> LieAlgebra:
    """[X, Y] = Z, [T, X] = -Y, [T, Y] = X (rotation on a Heisenberg)."""
    return _make(4, [(_X, _Y, _Z, 1.0), (_T, _X, _Y, -1.0),
                     (_T, _Y, _X, 1.0)], _LABELS4)


def g442() -> LieAlgebra:
    """[X, Y] = Z, [T, X] = -X, [T, Y] = Y.  The real diamond algebra."""
    return _make(4, [(_X, _Y, _Z, 1.0), (_T, _X, _X, -1.0),
                     (_T, _Y, _Y, 1.0)], _LABELS4)


# ---------------------------------------------------------------------------
# Smaller companions used by the classification and index suites.
# ---------------------------------------------------------------------------

def abelian(n: int = 4) -> LieAlgebra:
    """The abelian algebra R^n."""
    if n < 1:
        raise ValueError("abelian requires n >= 1")
    return LieAlgebra(dim=n, c=np.zeros((n, n, n)))


def aff_r() -> LieAlgebra:
    """The two-dimensional algebra of affine transformations of R: [X, Y] = Y."""
    return _make(2, [(0, 1, 1, 1.0)], ("X", "Y"))


def aff_c() -> LieAlgebra:
    """aff(C) viewed as a real four-dimensional algebra (same table as g424)."""
    return g424()


def heisenberg3() -> LieAlgebra:
    """The three-dimensional Heisenberg algebra: [X, Y] = Z."""
    return _make(3, [(0, 1, 2, 1.0)], ("X", "Y", "Z"))


# ---------------------------------------------------------------------------
# Registry and metadata.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyInfo:
    """Static description of one four-dimensional family.

    topo_type groups families whose generic-orbit foliations are leafwise
    homeomorphic (nine types F1..F9 in all); topo_model describes the base
    of the fibration, or the group action when the foliation is not a
    fibration.
    """

    name: str
    param_names: tuple[str, ...]
    defaults: tuple[float, ...]
    builder: Callable[..., LieAlgebra]
    derived_dim: int
    topo_type: str
    topo_model: str


FAMILIES: dict[str, FamilyInfo] = {
    info.name: info for info in [
        FamilyInfo("g411", (), (), g411, 1,
                   "F1", "trivial fibration over R x R*"),
        FamilyInfo("g412", (), (), g412, 1,
                   "F2", "trivial fibration over R^2 disjoint-union R^2"),
        FamilyInfo("g421", ("lam",), (2.0,), g421, 2,
                   "F3", "fibration over R x S^1"),
        FamilyInfo("g422", (), (), g422, 2,
                   "F3", "fibration over R x S^1"),
        FamilyInfo("g423", ("phi",), (math.pi / 3,), g423, 2,
                   "F4", "fibration over R_+ x R"),
        FamilyInfo("g424", (), (), g424, 2,
                   "F5", "trivial fibration over a point"),
        FamilyInfo("g431", ("lam1", "lam2"), (2.0, 3.0), g431, 3,
                   "F6", "fibration over S^2"),
        FamilyInfo("g432", ("lam",), (2.0,), g432, 3,
                   "F6", "fibration over S^2"),
        FamilyInfo("g433", (), (), g433, 3,
                   "F6", "fibration over S^2"),
        FamilyInfo("g434", ("lam", "phi"), (2.0, math.pi / 3), g434, 3,
                   "F7", "R^2-action on (C x R)* x R"),
        FamilyInfo("g441", (), (), g441, 3,
                   "F8", "R^2-action on (R^3)* x R"),
        FamilyInfo("g442", (), (), g442, 3,
                   "F9", "R^2-action on (R^3)* x R"),
    ]
}

FAMILY_ORDER: tuple[str, ...] = tuple(FAMILIES)

# Builtin names accepted by the command line in addition to the family names.
BUILTIN_ALIASES: dict[str, Callable[[], LieAlgebra]] = {
    "real-diamond": g442,
    "aff-r": aff_r,
    "aff-c": aff_c,
    "h3": heisenberg3,
    "abelian2": lambda: abelian(2),
    "abelian3": lambda: abelian(3),
    "abelian4": lambda: abelian(4),
}


def default_params(name: str) -> tuple[float, ...]:
    return FAMILIES[name].defaults


def build_family(name: str, *params: float) -> LieAlgebra:
    """Construct a family member by name, using defaults for omitted params."""
    if name not in FAMILIES:
        raise KeyError(f"unknown family {name!r}; known: {sorted(FAMILIES)}")
    info = FAMILIES[name]
    if len(params) > len(info.param_names):
        raise ValueError(
            f"{name} takes at most {len(info.param_names)} parameters "
            f"{info.param_names}, got {len(params)}")
    full = tuple(params) + info.defaults[len(params):]
    return info.builder(*full)


def builtin_names() -> list[str]:
    return sorted(set(FAMILIES) | set(BUILTIN_ALIASES))


def builtin(name: str) -> LieAlgebra:
    """Look up a builtin algebra by registry name (family name or alias)."""
    if name in BUILTIN_ALIASES:
        return BUILTIN_ALIASES[name]()
    if name in FAMILIES:
        return build_family(name)
    raise KeyError(
        f"unknown builtin algebra {name!r}; known: {builtin_names()}")


def canonical_params(name: str, params: Sequence[float]) -> tuple[float, ...]:
    """Reduce family parameters to the canonical representative.

    The normal forms are not rigid: rescaling T, permuting eigenvectors or
    flipping orientation identifies different parameter values.  The rules
    below pick one member of each identification class:

      g421   lam and 1/lam give isomorphic algebras; keep min(lam, 1/lam).
      g423   phi and pi - phi give isomorphic algebras; keep phi <= pi/2.
      g431   the eigenvalue triple {lam1, lam2, 1} may be scaled by any of
             its members and reordered; keep the lexicographically smallest
             (lam1', lam2') over all six normalizations.
      g432   pinned by the Jordan structure (double eigenvalue over simple);
             nothing to reduce.
      g434   (lam, phi) and (-lam, pi - phi) give isomorphic algebras
             (send T to -T); keep lam > 0.

    Families without parameters return ().
    """
    info = FAMILIES[name]
    ps = tuple(float(p) for p in params)
    if len(ps) != len(info.param_names):
        raise ValueError(f"{name} expects {len(info.param_names)} parameters")

    if name == "g421":
        lam = ps[0]
        return (min(lam, 1.0 / lam),)
    if name == "g423":
        phi = ps[0]
        return (min(phi, math.pi - phi),)
    if name == "g431":
        lam1, lam2 = ps
        eigs = (lam1, lam2, 1.0)
        candidates = []
        for d in range(3):
            rest = [eigs[i] / eigs[d] for i in range(3) if i != d]
            candidates.append((rest[0], rest[1]))
            candidates.append((rest[1], rest[0]))
        return min(candidates)
    if name == "g434":
        lam, phi = ps
        if lam < 0.0:
            return (-lam, math.pi - phi)
        return (lam, phi)
    return ps
