"""Closed-form coadjoint orbit models, foliation systems, polarizations.

Orbit models live in the standard basis of each normal-form family: the
base functional has coordinates (alpha, beta, gamma, delta) against the
dual basis, an orbit point has coordinates (x, y, z, t).  Equality defects
are normalized by the size of their operands so that membership residuals
stay meaningful for points far from the origin.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import families
from .classify import MD4Label, NotSolvableError, DegenerateJordanError, classify_md4
from .coadjoint import (
    OrbitSample,
    kirillov_form,
    orbit_dimension,
    sample_orbit,
    stabilizer_algebra,
)
from .lie_core import (
    DimensionMismatch,
    LieAlgebra,
    LieAlgebraError,
    NonFiniteInput,
    Subspace,
    bracket,
    derived_subalgebra,
    numeric_rank,
    span_rank,
)

__all__ = [
    "UnknownFamily",
    "StratumMismatch",
    "OrbitModel",
    "LinearField",
    "DistributionSpec",
    "PolarizationReport",
    "STRATUM_ZERO_RTOL",
    "strata_names",
    "stratum_of",
    "random_base",
    "orbit_model",
    "orbit_membership",
    "distribution_spec",
    "distribution_rank_at",
    "check_tangency",
    "check_polarization",
    "orbit_cloud",
    "atlas_bases",
    "family_atlas",
]

STRATUM_ZERO_RTOL = 1e-9

# Points of F + h-perp tested for orbit membership in check_polarization,
# drawn from a generator seeded with _PUKANSZKY_SEED.
_PUKANSZKY_SAMPLES = 100
_PUKANSZKY_SEED = 0


class UnknownFamily(LieAlgebraError):
    """Label does not name one of the twelve normal-form families."""


class StratumMismatch(LieAlgebraError):
    """A point sits on a stratum the operation does not cover."""


def _coord_is_zero(value: float, fnorm: float) -> bool:
    return abs(value) < STRATUM_ZERO_RTOL * (1.0 + fnorm)


def _resolve_label(label, params):
    """Accept an MD4Label or family-name string; return (family, params)."""
    if isinstance(label, MD4Label):
        name = label.family
        got = label.params if label.params is not None else ()
    else:
        name = str(label)
        got = tuple(params) if params is not None else ()
    if name not in families.FAMILIES:
        raise UnknownFamily(f"no orbit atlas for {name!r}")
    want = len(families.FAMILIES[name].param_names)
    if len(got) != want:
        if params is None and want > 0:
            raise UnknownFamily(
                f"{name} needs {want} parameter(s); pass an MD4Label with "
                f"params or the params argument")
        raise UnknownFamily(f"{name} takes {want} parameter(s), got {len(got)}")
    return name, tuple(float(p) for p in got)


# ---------------------------------------------------------------------------
# Strata.
# ---------------------------------------------------------------------------

_POINT_STRATUM = "fixed-points"

# Every family has the fixed points and one generic stratum, except the two
# whose generic orbits fall into several strata.
_STRATA = {
    **{name: (_POINT_STRATUM, "generic") for name in families.FAMILY_ORDER},
    "g441": (_POINT_STRATUM, "cylinders", "paraboloids"),
    "g442": (_POINT_STRATUM, "half-planes-x", "half-planes-y",
             "hyperbolic-cylinders", "hyperbolic-paraboloids"),
}


def _derived_coords(name: str) -> range:
    """Coordinates of F on [g, g]: the last derived_dim of (X, Y, Z).

    F is a fixed point of the coadjoint action exactly when they all vanish.
    """
    return range(3 - families.FAMILIES[name].derived_dim, 3)


def strata_names(label, params=None) -> tuple[str, ...]:
    name, _ = _resolve_label(label, params)
    return _STRATA[name]


def stratum_of(label, F, params=None) -> str:
    """Name of the orbit-space stratum containing the functional F."""
    name, _ = _resolve_label(label, params)
    F = np.asarray(F, dtype=float)
    if F.shape != (4,):
        raise DimensionMismatch(f"functional must have shape (4,), got {F.shape}")
    fn = float(np.linalg.norm(F))
    live = [not _coord_is_zero(v, fn) for v in F[:3].tolist()]
    if not any(live[i] for i in _derived_coords(name)):
        return _POINT_STRATUM
    a, b, c = live
    if name == "g441":
        return "paraboloids" if c else "cylinders"
    if name == "g442":
        if c:
            return "hyperbolic-paraboloids"
        if a and b:
            return "hyperbolic-cylinders"
        return "half-planes-x" if a else "half-planes-y"
    return "generic"


def random_base(label, stratum: str, rng: np.random.Generator,
                params=None) -> np.ndarray:
    """Random functional inside the named stratum (coords O(1))."""
    name, fam_params = _resolve_label(label, params)
    if stratum not in _STRATA[name]:
        raise StratumMismatch(f"{name} has no stratum {stratum!r}")

    def nz() -> float:
        u = rng.standard_normal()
        return math.copysign(0.2 + abs(u), u)

    F = rng.standard_normal(4)
    if stratum == _POINT_STRATUM:
        F[list(_derived_coords(name))] = 0.0
    elif name == "g441":
        if stratum == "cylinders":
            F[2] = 0.0
            F[0], F[1] = nz(), nz()
        else:
            F[2] = nz()
    elif name == "g442":
        if stratum == "half-planes-x":
            F[0], F[1], F[2] = nz(), 0.0, 0.0
        elif stratum == "half-planes-y":
            F[0], F[1], F[2] = 0.0, nz(), 0.0
        elif stratum == "hyperbolic-cylinders":
            F[0], F[1], F[2] = nz(), nz(), 0.0
        else:
            F[2] = nz()
    elif name == "g424" and rng.random() < 0.5:
        # Half of g424's open orbit draws pin only Y away from zero.
        F[1] = nz()
    else:
        for i in _derived_coords(name):
            F[i] = nz()
    return F


# ---------------------------------------------------------------------------
# Orbit models.
# ---------------------------------------------------------------------------

_MODEL_DIMS = {
    "Point": 0, "HalfPlane": 2, "Plane2D": 2, "Cylinder": 2,
    "Paraboloid": 2, "HyperbolicParaboloid": 2, "HyperbolicCylinder": 2,
    "OpenDense4D": 4, "ParamCurveCylinder": 2,
}


@dataclass(frozen=True)
class OrbitModel:
    kind: str
    base: np.ndarray
    family: str
    params: tuple[float, ...]
    stratum: str
    predicate_coeffs: Mapping[str, float] = dc_field(default_factory=dict)
    fixed_coords: Mapping[int, float] = dc_field(default_factory=dict)
    sign_coords: Mapping[int, float] = dc_field(default_factory=dict)

    @property
    def dim(self) -> int:
        return _MODEL_DIMS[self.kind]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.family,
            "params": [float(p) for p in self.params],
            "stratum": self.stratum,
            "base": [float(v) for v in self.base],
            "dim": self.dim,
            "predicate_coeffs": {k: float(v)
                                 for k, v in self.predicate_coeffs.items()},
            "fixed_coords": {str(i): float(v)
                             for i, v in self.fixed_coords.items()},
            "sign_coords": {str(i): float(s)
                            for i, s in self.sign_coords.items()},
        }


def orbit_model(label, F, params=None) -> OrbitModel:
    """Closed-form surface model of the coadjoint orbit through F."""
    name, fam_params = _resolve_label(label, params)
    F = np.asarray(F, dtype=float)
    stratum = stratum_of(name, F, fam_params)
    al, be, ga, de = (float(v) for v in F)

    if stratum == _POINT_STRATUM:
        return OrbitModel("Point", F.copy(), name, fam_params, stratum)
    if name == "g411":
        return OrbitModel("Plane2D", F.copy(), name, fam_params, stratum,
                          fixed_coords={1: be, 2: ga})
    if name == "g412":
        return OrbitModel("HalfPlane", F.copy(), name, fam_params, stratum,
                          fixed_coords={0: al, 1: be},
                          sign_coords={2: math.copysign(1.0, ga)})
    if name == "g424":
        return OrbitModel("OpenDense4D", F.copy(), name, fam_params, stratum)
    if name in ("g421", "g422", "g423", "g431", "g432", "g433", "g434"):
        return OrbitModel("ParamCurveCylinder", F.copy(), name, fam_params,
                          stratum,
                          predicate_coeffs={"alpha": al, "beta": be,
                                            "gamma": ga})
    if name == "g441":
        if stratum == "cylinders":
            return OrbitModel("Cylinder", F.copy(), name, fam_params, stratum,
                              predicate_coeffs={"r_squared": al * al + be * be},
                              fixed_coords={2: 0.0})
        return OrbitModel("Paraboloid", F.copy(), name, fam_params, stratum,
                          predicate_coeffs={
                              "gamma": ga,
                              "level": al * al + be * be - 2.0 * ga * de},
                          fixed_coords={2: ga})
    # g442
    if stratum == "half-planes-x":
        return OrbitModel("HalfPlane", F.copy(), name, fam_params, stratum,
                          fixed_coords={1: 0.0, 2: 0.0},
                          sign_coords={0: math.copysign(1.0, al)})
    if stratum == "half-planes-y":
        return OrbitModel("HalfPlane", F.copy(), name, fam_params, stratum,
                          fixed_coords={0: 0.0, 2: 0.0},
                          sign_coords={1: math.copysign(1.0, be)})
    if stratum == "hyperbolic-cylinders":
        return OrbitModel("HyperbolicCylinder", F.copy(), name, fam_params,
                          stratum,
                          predicate_coeffs={"product": al * be},
                          fixed_coords={2: 0.0},
                          sign_coords={0: math.copysign(1.0, al),
                                       1: math.copysign(1.0, be)})
    return OrbitModel("HyperbolicParaboloid", F.copy(), name, fam_params,
                      stratum,
                      predicate_coeffs={"product": al * be, "gamma": ga,
                                        "delta": de},
                      fixed_coords={2: ga})


def _norm_defect(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def _curve_point(name: str, params: tuple, base: np.ndarray,
                 s: float) -> tuple[float, float, float]:
    """Constrained (x, y, z) coordinates of the orbit curve at parameter s."""
    al, be, ga = float(base[0]), float(base[1]), float(base[2])
    if name == "g421":
        lam = params[0]
        return (al, be * math.exp(s * lam), ga * math.exp(s))
    if name == "g422":
        es = math.exp(s)
        return (al, be * es, (be * s + ga) * es)
    if name == "g423":
        phi = params[0]
        w = (be + 1j * ga) * np.exp(s * complex(math.cos(phi), math.sin(phi)))
        return (al, w.real, w.imag)
    if name == "g431":
        l1, l2 = params
        return (al * math.exp(s * l1), be * math.exp(s * l2),
                ga * math.exp(s))
    if name == "g432":
        lam = params[0]
        esl = math.exp(s * lam)
        return (al * esl, (al * s + be) * esl, ga * math.exp(s))
    if name == "g433":
        es = math.exp(s)
        return (al * es, (al * s + be) * es,
                (al * s * s / 2.0 + be * s + ga) * es)
    if name == "g434":
        lam, phi = params
        w = (al + 1j * be) * np.exp(s * complex(math.cos(phi), math.sin(phi)))
        return (w.real, w.imag, ga * math.exp(s * lam))
    raise UnknownFamily(name)


def _curve_defect(name: str, params: tuple, base: np.ndarray,
                  p: Sequence[float], s: float) -> float:
    """Normalized defect of p against the curve point at parameter s.

    1.0, the ceiling, where that point overflows: an anchor far out on the
    curve (a point well off the orbit) places nothing.
    """
    try:
        c = _curve_point(name, params, base, s)
    except OverflowError:
        return 1.0
    return max(map(_norm_defect, p[:3], c))


# |cos(phi)| below which the rotating block of g423 and g434 is also
# anchored by its angle (see _angle_anchor).
_ANGLE_ANCHOR_COS = 1e-4


def _log_anchor(value: float, ref: float, exponent: float) -> Optional[float]:
    """Solve value = ref * exp(s * exponent) for s, if well posed."""
    if abs(exponent) < 1e-12 or ref == 0.0 or value * ref <= 0.0:
        return None
    return math.log(value / ref) / exponent


def _angle_anchor(w: complex, w0: complex, phi: float,
                  s_r: Optional[float]) -> Optional[float]:
    """Solve w = w0 * exp(s * e^{i phi}) for s by arg(w / w0) = s sin(phi).

    The radius anchor s_r = log|w / w0| / cos(phi) amplifies the rounding
    of |w / w0| by 1/|cos(phi)| (member residuals of 4e-6 at cos(phi) =
    1e-10), but it is still close enough to pick the branch of the angle;
    without it (a pure rotation: a circle) the principal branch is taken.
    Only for |cos(phi)| < _ANGLE_ANCHOR_COS: above it the radius anchor
    alone keeps members below about 5e-12, and their residuals keep its
    bits.  None when w0 = 0: the block then stays at the origin.
    """
    if w0 == 0.0 or abs(math.cos(phi)) >= _ANGLE_ANCHOR_COS:
        return None
    sp = math.sin(phi)
    theta = cmath.phase(w / w0)
    k = 0 if s_r is None else round((s_r * sp - theta) / (2.0 * math.pi))
    return (theta + 2.0 * math.pi * k) / sp


def _curve_anchors(name: str, params: tuple, base: np.ndarray,
                   p: Sequence[float]) -> list[float]:
    al, be, ga = float(base[0]), float(base[1]), float(base[2])
    x, y, z = p[:3]
    out: list[float] = []

    def add(s: Optional[float]):
        if s is not None and math.isfinite(s):
            out.append(s)

    if name == "g421":
        add(_log_anchor(z, ga, 1.0))
        add(_log_anchor(y, be, params[0]))
    elif name == "g422":
        add(_log_anchor(y, be, 1.0))
        if be == 0.0:
            add(_log_anchor(z, ga, 1.0))
    elif name == "g423":
        phi = params[0]
        s_r = _log_anchor(math.hypot(y, z), math.hypot(be, ga), math.cos(phi))
        add(s_r)
        add(_angle_anchor(complex(y, z), complex(be, ga), phi, s_r))
    elif name == "g431":
        l1, l2 = params
        add(_log_anchor(z, ga, 1.0))
        add(_log_anchor(x, al, l1))
        add(_log_anchor(y, be, l2))
    elif name == "g432":
        lam = params[0]
        add(_log_anchor(z, ga, 1.0))
        add(_log_anchor(x, al, lam))
        if al == 0.0:
            add(_log_anchor(y, be, lam))
    elif name == "g433":
        add(_log_anchor(x, al, 1.0))
        if al == 0.0:
            add(_log_anchor(y, be, 1.0))
        if al == 0.0 and be == 0.0:
            add(_log_anchor(z, ga, 1.0))
    elif name == "g434":
        lam, phi = params
        add(_log_anchor(z, ga, lam))
        s_r = _log_anchor(math.hypot(x, y), math.hypot(al, be), math.cos(phi))
        add(s_r)
        add(_angle_anchor(complex(x, y), complex(al, be), phi, s_r))
    return out


def _curve_membership(model: OrbitModel, p: Sequence[float]) -> float:
    name, params, base = model.family, model.params, model.base
    # 1.0, the ceiling of a normalized defect, when no anchor places p.
    return min((_curve_defect(name, params, base, p, s)
                for s in _curve_anchors(name, params, base, p)), default=1.0)


def orbit_membership(model: OrbitModel, p) -> float:
    """Residual of p against the model; 0 means membership.

    Equality defects are normalized by operand size; strict inequalities
    contribute hinge terms max(0, -sign * value).  A NaN or infinite
    coordinate raises NonFiniteInput: no residual can place it.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise DimensionMismatch(f"point must have shape (4,), got {p.shape}")
    x = p.tolist()
    for i, v in enumerate(x):
        if not math.isfinite(v):
            raise NonFiniteInput(f"coordinate {i} of the point is {v}")
    kind = model.kind
    parts: list[float] = [0.0]

    for i, v in model.fixed_coords.items():
        parts.append(_norm_defect(x[i], float(v)))
    for i, sign in model.sign_coords.items():
        parts.append(max(0.0, -sign * x[i]) / (1.0 + abs(x[i])))

    if kind == "Point":
        parts.append(max(map(_norm_defect, x, model.base.tolist())))
    elif kind in ("Plane2D", "HalfPlane"):
        pass  # fully covered by fixed and sign coordinates
    elif kind == "OpenDense4D":
        scale = float(np.linalg.norm(model.base)) + float(np.linalg.norm(p))
        if _coord_is_zero(x[1], scale) and _coord_is_zero(x[2], scale):
            parts.append(1.0)
    elif kind == "ParamCurveCylinder":
        parts.append(_curve_membership(model, x))
    elif kind == "Cylinder":
        r2 = model.predicate_coeffs["r_squared"]
        parts.append(_norm_defect(x[0] * x[0] + x[1] * x[1], r2))
    elif kind == "Paraboloid":
        ga = model.predicate_coeffs["gamma"]
        level = model.predicate_coeffs["level"]
        lhs = x[0] * x[0] + x[1] * x[1] - 2.0 * ga * x[3]
        parts.append(_norm_defect(lhs, level))
    elif kind == "HyperbolicCylinder":
        parts.append(_norm_defect(x[0] * x[1],
                                  model.predicate_coeffs["product"]))
    elif kind == "HyperbolicParaboloid":
        prod = model.predicate_coeffs["product"]
        ga = model.predicate_coeffs["gamma"]
        de = model.predicate_coeffs["delta"]
        parts.append(_norm_defect(x[0] * x[1] - prod, ga * (x[3] - de)))
    else:
        raise UnknownFamily(f"unknown model kind {kind!r}")
    return float(max(parts))


# ---------------------------------------------------------------------------
# Foliation systems.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearField:
    """Affine vector field p -> matrix @ p + offset on R^4."""
    matrix: np.ndarray
    offset: np.ndarray

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(p, dtype=float) + self.offset

    def to_json(self) -> dict:
        return {"matrix": [[float(v) for v in row] for row in self.matrix],
                "offset": [float(v) for v in self.offset]}


@dataclass(frozen=True)
class DistributionSpec:
    family: str
    params: tuple[float, ...]
    system: str
    fields_: tuple[LinearField, ...]
    invariant_multivector: tuple[tuple[int, ...], ...]
    generic_rank: int

    def to_json(self) -> dict:
        return {"family": self.family,
                "params": [float(p) for p in self.params],
                "system": self.system,
                "fields": [f.to_json() for f in self.fields_],
                "invariant_multivector": [list(t)
                                          for t in self.invariant_multivector],
                "generic_rank": self.generic_rank}


def _lf(entries: Sequence[tuple[int, int, float]],
        const: Sequence[tuple[int, float]] = ()) -> LinearField:
    m = np.zeros((4, 4))
    for i, j, v in entries:
        m[i, j] = v
    b = np.zeros(4)
    for i, v in const:
        b[i] = v
    return LinearField(m, b)


def distribution_spec(label, params=None) -> DistributionSpec:
    """Polynomial vector fields spanning the orbit foliation of the family."""
    name, fp = _resolve_label(label, params)
    pair_1 = ((0, 1), (0, 2))
    pair_3 = ((0, 1), (0, 2), (0, 3))
    pair_4 = ((0, 1), (0, 2), (1, 2))

    if name == "g411":
        fields = (_lf([(0, 0, 1.0)]), _lf([(3, 2, -1.0)]))
        return DistributionSpec(name, fp, "S_{1,1}", fields, ((0, 1),), 2)
    if name == "g412":
        fields = (_lf([(2, 2, 1.0)]), _lf([(3, 2, -1.0)]))
        return DistributionSpec(name, fp, "S_{1,2}", fields, ((0, 1),), 2)
    if name == "g421":
        lam = fp[0]
        fields = (_lf([(1, 1, lam), (2, 2, 1.0)]),
                  _lf([(3, 1, -lam)]),
                  _lf([(3, 2, -1.0)]))
        return DistributionSpec(name, fp, "S_{2,1}", fields, pair_1, 2)
    if name == "g422":
        fields = (_lf([(1, 1, 1.0), (2, 1, 1.0), (2, 2, 1.0)]),
                  _lf([(3, 1, -1.0)]),
                  _lf([(3, 1, -1.0), (3, 2, -1.0)]))
        return DistributionSpec(name, fp, "S_{2,2}", fields, pair_1, 2)
    if name == "g423":
        cphi, sphi = math.cos(fp[0]), math.sin(fp[0])
        fields = (_lf([(1, 1, cphi), (1, 2, -sphi),
                       (2, 1, sphi), (2, 2, cphi)]),
                  _lf([(3, 1, -cphi), (3, 2, sphi)]),
                  _lf([(3, 1, -sphi), (3, 2, -cphi)]))
        return DistributionSpec(name, fp, "S_{2,3}", fields, pair_1, 2)
    if name == "g424":
        fields = (_lf([], [(3, 1.0)]),
                  _lf([], [(0, 1.0)]),
                  _lf([(1, 1, 1.0), (2, 2, 1.0)]),
                  _lf([(1, 2, -1.0), (2, 1, 1.0)]))
        return DistributionSpec(name, fp, "S_{2,4}", fields,
                                ((0, 1, 2, 3),), 4)
    if name == "g431":
        l1, l2 = fp
        fields = (_lf([(0, 0, l1), (1, 1, l2), (2, 2, 1.0)]),
                  _lf([(3, 0, -l1)]),
                  _lf([(3, 1, -l2)]),
                  _lf([(3, 2, -1.0)]))
        return DistributionSpec(name, fp, "S_{3,1}", fields, pair_3, 2)
    if name == "g432":
        lam = fp[0]
        fields = (_lf([(0, 0, lam), (1, 0, 1.0), (1, 1, lam), (2, 2, 1.0)]),
                  _lf([(3, 0, -lam)]),
                  _lf([(3, 0, -1.0), (3, 1, -lam)]),
                  _lf([(3, 2, -1.0)]))
        return DistributionSpec(name, fp, "S_{3,2}", fields, pair_3, 2)
    if name == "g433":
        fields = (_lf([(0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0),
                       (2, 1, 1.0), (2, 2, 1.0)]),
                  _lf([(3, 0, -1.0)]),
                  _lf([(3, 0, -1.0), (3, 1, -1.0)]),
                  _lf([(3, 1, -1.0), (3, 2, -1.0)]))
        return DistributionSpec(name, fp, "S_{3,3}", fields, pair_3, 2)
    if name == "g434":
        lam, phi = fp
        cp, sp = math.cos(phi), math.sin(phi)
        fields = (_lf([(0, 0, cp), (0, 1, -sp), (1, 0, sp), (1, 1, cp),
                       (2, 2, lam)]),
                  _lf([(3, 0, -cp), (3, 1, sp)]),
                  _lf([(3, 0, -sp), (3, 1, -cp)]),
                  _lf([(3, 2, -lam)]))
        return DistributionSpec(name, fp, "S_{3,4}", fields, pair_3, 2)
    if name == "g441":
        fields = (_lf([(0, 1, -1.0), (1, 0, 1.0)]),
                  _lf([(1, 2, 1.0), (3, 1, 1.0)]),
                  _lf([(0, 2, -1.0), (3, 0, -1.0)]))
        return DistributionSpec(name, fp, "S_{4,1}", fields, pair_4, 2)
    # g442
    fields = (_lf([(0, 0, -1.0), (1, 1, 1.0)]),
              _lf([(1, 2, 1.0), (3, 0, 1.0)]),
              _lf([(0, 2, -1.0), (3, 1, -1.0)]))
    return DistributionSpec(name, fp, "S_{4,2}", fields, pair_4, 2)


def distribution_rank_at(spec: DistributionSpec, p) -> int:
    p = np.asarray(p, dtype=float)
    m = np.column_stack([f(p) for f in spec.fields_])
    if not np.any(m):
        return 0
    return numeric_rank(m)


def check_tangency(spec: DistributionSpec, sample: OrbitSample,
                   g: Optional[LieAlgebra] = None) -> float:
    """Max residual of the exact orbit tangents against the fields.

    The tangents at F are the rows of the Kirillov form B_F (see
    ``coadjoint.flow_tangent``).  Each one's distance from the span of the
    fields at its point, under the ``span_rank`` rule, is divided by 1 +
    its norm.  Raises StratumMismatch when a sample point lies on the
    fixed-point stratum.
    """
    if g is None:
        g = families.build_family(spec.family, *spec.params)
    points = np.atleast_2d(sample.points)
    for p in points:
        if stratum_of(spec.family, p, spec.params) == _POINT_STRATUM:
            raise StratumMismatch(
                "sample point lies on the fixed-point stratum")
    # tangents[n, k, j] = <p_n, [X_k, X_j]>; fields[n, :, f] = field f at p_n.
    tangents = np.einsum("kjm,nm->nkj", g.c, points)
    fields = (np.einsum("fij,nj->nif",
                        np.stack([f.matrix for f in spec.fields_]), points)
              + np.stack([f.offset for f in spec.fields_], axis=1))
    u, s, _ = np.linalg.svd(fields, full_matrices=False)
    u *= np.arange(s.shape[-1]) < span_rank(s, 4)[:, None, None]
    resid = tangents - (tangents @ u) @ np.swapaxes(u, 1, 2)
    norms = np.linalg.norm(tangents, axis=-1)
    return float(np.max(np.linalg.norm(resid, axis=-1) / (1.0 + norms),
                        initial=0.0))


# ---------------------------------------------------------------------------
# Polarizations.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarizationReport:
    is_subalgebra: bool
    contains_stabilizer: bool
    isotropic: bool
    codim_ok: bool
    pukanszky_ok: Optional[bool]
    pukanszky_samples: int
    residuals: Mapping[str, float]

    @property
    def all_ok(self) -> bool:
        core = (self.is_subalgebra and self.contains_stabilizer
                and self.isotropic and self.codim_ok)
        return core and (self.pukanszky_ok is not False)

    def to_json(self) -> dict:
        return {"is_subalgebra": self.is_subalgebra,
                "contains_stabilizer": self.contains_stabilizer,
                "isotropic": self.isotropic,
                "codim_ok": self.codim_ok,
                "pukanszky_ok": self.pukanszky_ok,
                "pukanszky_samples": self.pukanszky_samples,
                "residuals": {k: float(v)
                              for k, v in self.residuals.items()}}


def _membership_in_orbit(g: LieAlgebra, F: np.ndarray
                         ) -> Optional[Callable[[np.ndarray], float]]:
    """Membership function for the orbit of F, if a model is available."""
    if orbit_dimension(g, F) == 0:
        base = F.copy()

        def point_member(p: np.ndarray) -> float:
            return max(_norm_defect(float(p[i]), float(base[i]))
                       for i in range(g.dim))
        return point_member

    if g.dim == 4:
        try:
            lab = classify_md4(g)
        except (NotSolvableError, DegenerateJordanError):
            return None
        if lab.family not in families.FAMILIES or lab.basis_change is None:
            return None
        P = lab.basis_change
        model = orbit_model(lab, F @ P)

        def md4_member(p: np.ndarray) -> float:
            return orbit_membership(model, p @ P)
        return md4_member

    if g.dim == 2:
        # aff(R) pattern: [T, W] = W for the derived line W; orbit of a
        # functional not killing W is the half-plane with w-sign preserved.
        W = derived_subalgebra(g)
        if W.dim != 1:
            return None
        w = W.basis_matrix[:, 0]
        eye = np.eye(2)
        lam = np.array([w @ bracket(g, eye[i], w) for i in range(2)])
        if np.linalg.norm(lam) < 1e-10:
            return None
        t_vec = lam / (lam @ lam)
        P = np.column_stack([t_vec, w])
        f_std = F @ P
        sign = math.copysign(1.0, f_std[1])

        def aff_member(p: np.ndarray) -> float:
            q = p @ P
            val = float(q[1])
            return max(0.0, -sign * val) / (1.0 + abs(val))
        return aff_member
    return None


def check_polarization(g: LieAlgebra, F, h: Subspace) -> PolarizationReport:
    """Real-polarization tests for the subspace h at the functional F."""
    F = np.asarray(F, dtype=float)
    if F.shape != (g.dim,):
        raise DimensionMismatch(
            f"functional must have shape ({g.dim},), got {F.shape}")
    if h.ambient_dim != g.dim:
        raise DimensionMismatch("h lives in the wrong ambient dimension")
    scale = 1.0 + float(np.abs(g.c).max())
    fnorm = float(np.linalg.norm(F))
    hb = h.basis_matrix
    r = hb.shape[1]

    closure = 0.0
    iso = 0.0
    for i in range(r):
        for j in range(i + 1, r):
            br = bracket(g, hb[:, i], hb[:, j])
            closure = max(closure, h.residual(br))
            iso = max(iso, abs(float(F @ br)))
    is_subalgebra = closure <= 1e-10 * scale
    isotropic = iso <= 1e-10 * scale * (1.0 + fnorm)

    stab = stabilizer_algebra(g, F)
    stab_resid = 0.0
    for j in range(stab.basis_matrix.shape[1]):
        stab_resid = max(stab_resid, h.residual(stab.basis_matrix[:, j]))
    contains_stabilizer = stab_resid <= 1e-8

    orb_dim = orbit_dimension(g, F)
    codim_ok = 2 * (g.dim - h.dim) == orb_dim

    member = _membership_in_orbit(g, F)
    residuals = {"bracket_closure": closure, "isotropy": iso,
                 "stabilizer_containment": stab_resid}
    if member is None:
        return PolarizationReport(is_subalgebra, contains_stabilizer,
                                  isotropic, codim_ok, None, 0, residuals)

    perp = h.orthogonal_complement().basis_matrix
    rng = np.random.default_rng(_PUKANSZKY_SEED)
    worst = 0.0
    for _ in range(_PUKANSZKY_SAMPLES):
        coeffs = rng.standard_normal(perp.shape[1]) * (1.0 + fnorm)
        p = F + perp @ coeffs
        worst = max(worst, member(p))
    residuals["pukanszky_max"] = worst
    return PolarizationReport(is_subalgebra, contains_stabilizer, isotropic,
                              codim_ok, worst < 1e-8, _PUKANSZKY_SAMPLES,
                              residuals)


# ---------------------------------------------------------------------------
# Atlas export.
# ---------------------------------------------------------------------------

def orbit_cloud(g: LieAlgebra, F, model: OrbitModel, points: int,
                seed: int) -> OrbitSample:
    """Seeded sample of ``points`` points on the orbit of F.

    A fixed point is its own orbit: its cloud is one row, not n copies.
    """
    return sample_orbit(g, F, 1 if model.kind == "Point" else points,
                        seed=seed)


def atlas_bases(g: LieAlgebra, label, params, n_bases: int, points: int,
                rng: np.random.Generator):
    """Yield (stratum, F, model, sample) for n_bases random bases a stratum.

    Draws come from rng in this order: the base, then the cloud's seed,
    the latter only when points > 0 (otherwise sample is None).
    """
    name, fp = _resolve_label(label, params)
    for stratum in _STRATA[name]:
        for _ in range(n_bases):
            F = random_base(name, stratum, rng, fp)
            model = orbit_model(name, F, fp)
            sample = (orbit_cloud(g, F, model, points,
                                  int(rng.integers(2 ** 31)))
                      if points > 0 else None)
            yield stratum, F, model, sample


def family_atlas(label, params=None, n_bases: int = 3,
                 cloud_points: int = 0, seed: int = 0) -> dict:
    """JSON-ready atlas of one family: strata, models, optional point clouds."""
    name, fp = _resolve_label(label, params)
    g = families.build_family(name, *fp)
    info = families.FAMILIES[name]
    strata = {stratum: [] for stratum in _STRATA[name]}
    for stratum, F, model, sample in atlas_bases(
            g, name, fp, n_bases, cloud_points, np.random.default_rng(seed)):
        rec = {"model": model.to_json(),
               "orbit_dimension": orbit_dimension(g, F)}
        if sample is not None:
            rec["cloud_csv"] = sample.to_csv(labels=("x", "y", "z", "t"))
        strata[stratum].append(rec)
    return {
        "schema": 1,
        "family": name,
        "params": [float(p) for p in fp],
        "topological_type": info.topo_type,
        "topological_model": info.topo_model,
        "foliation": distribution_spec(name, fp).to_json(),
        "strata": [{"name": s, "bases": b} for s, b in strata.items()],
    }
