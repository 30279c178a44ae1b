"""Coadjoint-orbit geometry and index invariants for low solvable algebras.

Submodules:
  lie_core    structure constants, subspaces, validation, ad/exp machinery
  families    normal-form family builders and the builtin registry
  coadjoint   Kirillov form, orbit dimension, flows, orbit sampling
  classify    MD4 / MD-bar classification and exponentiality
  orbit_atlas closed-form orbit models, foliations, polarizations
  kindex      K-group bookkeeping, six-term checks, winding numbers
  fredholm    discretized operators and numerical Fredholm indices
  cli         batch front-end (console script ``orbiton``)
"""

from . import (
    classify,
    coadjoint,
    families,
    fredholm,
    kindex,
    lie_core,
    orbit_atlas,
)
from .classify import classify_md4, classify_md_bar, is_exponential, is_md_bar
from .coadjoint import (
    kirillov_form,
    orbit_dimension,
    sample_orbit,
    stabilizer_algebra,
)
from .families import build_family, builtin, builtin_names
from .fredholm import (
    assemble_operator,
    build_grid,
    numerical_index,
    ode_kernel_oracle,
)
from .kindex import hexagon, six_term_check, smith_normal_form, winding_number
from .lie_core import LieAlgebra, load_algebra_json, validate_algebra
from .orbit_atlas import (
    check_polarization,
    check_tangency,
    distribution_spec,
    family_atlas,
    orbit_membership,
    orbit_model,
)

__version__ = "0.1.0"

__all__ = [
    "classify",
    "coadjoint",
    "families",
    "fredholm",
    "kindex",
    "lie_core",
    "orbit_atlas",
    "cli",
    "classify_md4",
    "classify_md_bar",
    "is_exponential",
    "is_md_bar",
    "kirillov_form",
    "orbit_dimension",
    "sample_orbit",
    "stabilizer_algebra",
    "build_family",
    "builtin",
    "builtin_names",
    "assemble_operator",
    "build_grid",
    "numerical_index",
    "ode_kernel_oracle",
    "hexagon",
    "six_term_check",
    "smith_normal_form",
    "winding_number",
    "LieAlgebra",
    "load_algebra_json",
    "validate_algebra",
    "check_polarization",
    "check_tangency",
    "distribution_spec",
    "family_atlas",
    "orbit_membership",
    "orbit_model",
    "__version__",
]
