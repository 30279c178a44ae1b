"""Recognition of solvable normal forms, MD-bar tags and exponentiality.

classify_md4 takes a four-dimensional solvable algebra in an arbitrary
basis and identifies which normal-form family it belongs to, recovering
continuous parameters as the canonical representative described in
families.canonical_params.  The recognizer works constructively: each
branch produces an explicit basis change P, and the transformed bracket
table is compared entry by entry against the target family table.  An
algebra whose candidate construction fails that comparison is reported
as NotMD4 rather than mislabeled, so false positives require a numerical
coincidence across all sixteen transformed structure constants.

classify_md_bar decides the MD-bar class (R^n, aff(R), aff(C)) from the
dimensions of g and [g, g] and, for aff(C), from classify_md4.
is_exponential applies Dixmier's criterion (Bull. SMF 85 (1957) 113-121)
to the weights of g.  All three decisions are deterministic: nothing in
this module is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import families
from .lie_core import (
    DimensionMismatch,
    LieAlgebra,
    LieAlgebraError,
    Subspace,
    ad_matrix,
    bracket,
    change_basis,
    derived_series,
    derived_subalgebra,
    noise_floor,
    numeric_rank,
    singular_value_rank,
)

__all__ = [
    "NotSolvableError",
    "DegenerateJordanError",
    "MDBarLabel",
    "MD4Label",
    "is_md_bar",
    "classify_md_bar",
    "classify_md4",
    "is_exponential",
]

# Eigenvalue clustering: values closer than JORDAN_GAP_RTOL * sigma_max are
# one cluster; distances inside the band up to BORDERLINE_FACTOR times that
# are ambiguous and raise DegenerateJordanError instead of guessing.
JORDAN_GAP_RTOL = 1e-7
BORDERLINE_FACTOR = 30.0

# Verification tolerance for the transformed bracket table (relative to the
# largest target entry).  Honest constructions land many orders below this.
VERIFY_RTOL = 1e-6

# Computed eigenvalues of a defective block scatter like the cube root of
# the entry noise (about 1e-5 of sigma_max in practice), so a repeated root
# is only accepted when the candidates lie within this radius of their mean.
EIG_SCATTER_CAP = 1e-3

# Weights for exponentiality, relative to the largest entry of the actions
# they are read from: a real part below this is zero, and an imaginary part
# within this of the real line through the real part lies on it.
WEIGHT_RTOL = 1e-6


class NotSolvableError(LieAlgebraError):
    """Derived series does not terminate at zero."""


class DegenerateJordanError(LieAlgebraError):
    """Eigenvalue structure too close to a tolerance boundary to decide."""

    def __init__(self, message: str, report: Optional[dict] = None):
        super().__init__(message)
        self.report = report or {}


@dataclass(frozen=True)
class MDBarLabel:
    tag: str  # Abelian | AffR | AffC | NotMDBar
    witness: Optional[np.ndarray] = None

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "witness": None if self.witness is None
            else [float(v) for v in self.witness],
        }


@dataclass(frozen=True)
class MD4Label:
    family: str
    params: Optional[tuple[float, ...]] = None
    decomposition: Optional[tuple[int, str]] = None
    basis_change: Optional[np.ndarray] = None
    eigen_data: tuple = ()
    tolerance_report: Mapping[str, float] = field(default_factory=dict)
    reason: str = ""

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": None if self.params is None
            else [float(p) for p in self.params],
            "decomposition": None if self.decomposition is None
            else {"n": self.decomposition[0], "inner": self.decomposition[1]},
            "basis_change": None if self.basis_change is None
            else [[float(v) for v in row] for row in self.basis_change],
            "eigen_data": [[float(np.real(e)), float(np.imag(e))]
                           for e in self.eigen_data],
            "tolerance_report": {k: float(v)
                                 for k, v in self.tolerance_report.items()},
            "reason": self.reason,
        }


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------

def _restricted_ad(g: LieAlgebra, sub: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix of ad_v on span(sub) in the (orthonormal) column basis of sub."""
    cols = [sub.T @ bracket(g, v, sub[:, j]) for j in range(sub.shape[1])]
    return np.column_stack(cols)


def _shifted_nullspace(m: np.ndarray, mu: float, scale: float) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of (m - mu I)."""
    n = m.shape[0]
    u, s, vt = np.linalg.svd(m - mu * np.eye(n))
    cut = JORDAN_GAP_RTOL * max(scale, 1e-300)
    geo = int((s <= cut).sum())
    return vt[n - geo:].T if geo else np.zeros((n, 0))


def _real_eigvec(vec: np.ndarray) -> np.ndarray:
    """Strip the complex phase numpy may attach to a real eigenvector."""
    k = int(np.argmax(np.abs(vec)))
    v = (vec / (vec[k] / abs(vec[k]))).real
    return v / np.linalg.norm(v)


def _top_right_singular(m: np.ndarray) -> np.ndarray:
    _, _, vt = np.linalg.svd(m)
    return vt[0]


# ---------------------------------------------------------------------------
# Branches of classify_md4, one per derived-subalgebra dimension.
# ---------------------------------------------------------------------------

def _finalize(g: LieAlgebra, family: str, params: tuple[float, ...],
              cols: Sequence[np.ndarray], eigs: tuple,
              report: dict) -> MD4Label:
    p = np.column_stack(cols)
    if abs(np.linalg.det(p)) < 1e-12:
        return MD4Label("NotMD4", basis_change=p, eigen_data=eigs,
                        tolerance_report=report,
                        reason="candidate basis is singular")
    try:
        target = families.build_family(family, *params)
    except ValueError as exc:
        return MD4Label("NotMD4", eigen_data=eigs, tolerance_report=report,
                        reason=f"inadmissible parameters: {exc}")
    got = change_basis(g, p)
    resid = float(np.abs(got.c - target.c).max())
    report = dict(report)
    report["bracket_residual"] = resid
    if resid > VERIFY_RTOL * (1.0 + float(np.abs(target.c).max())):
        return MD4Label("NotMD4", basis_change=p, eigen_data=eigs,
                        tolerance_report=report,
                        reason=f"bracket table mismatch ({resid:.3e}) "
                               f"against {family}")
    decomposition = {"g411": (1, "h3"), "g412": (2, "aff-r")}.get(family)
    params_out = params if families.FAMILIES[family].param_names else None
    return MD4Label(family, params_out, decomposition, p, eigs, report)


def _classify_dim1(g: LieAlgebra, W: Subspace, scale: float) -> MD4Label:
    w = W.basis_matrix[:, 0]
    eye = np.eye(4)
    lam = np.array([w @ bracket(g, eye[i], w) for i in range(4)])
    s_form = np.einsum("ijk,k->ij", g.c, w)  # w-coefficient of [e_i, e_j]

    if np.linalg.norm(lam) <= 1e-9 * scale:
        # Derived line is central: Heisenberg block plus a spectator line.
        if numeric_rank(s_form) != 2:
            return MD4Label("NotMD4",
                            reason="central derived line with degenerate "
                                   "bracket pairing")
        i0, j0 = np.unravel_index(np.abs(s_form).argmax(), s_form.shape)
        t_vec = eye[i0] / s_form[i0, j0]
        x_vec = eye[j0]
        _, sv, vt = np.linalg.svd(s_form)
        null = vt[2:].T  # two-dim kernel, contains w
        y_raw = null - np.outer(w, w @ null)
        y_vec = y_raw[:, int(np.argmax(np.linalg.norm(y_raw, axis=0)))]
        y_vec = y_vec / np.linalg.norm(y_vec)
        return _finalize(g, "g411", (), [x_vec, y_vec, w, t_vec], (), {})

    t_vec = lam / (lam @ lam)  # lambda(t_vec) = 1
    rows = np.vstack([lam, w])
    _, _, vt = np.linalg.svd(rows)
    u_vec, v_vec = vt[2], vt[3]
    a = w @ bracket(g, t_vec, u_vec)
    b = w @ bracket(g, t_vec, v_vec)
    x_vec = u_vec - a * w
    y_vec = v_vec - b * w
    return _finalize(g, "g412", (), [x_vec, y_vec, w, t_vec], (), {})


def _kernel_complement_vector(g: LieAlgebra, B: np.ndarray,
                              comp: np.ndarray, rhos: list[np.ndarray],
                              i_t: int, t_vec: np.ndarray) -> np.ndarray:
    """Complement direction with ad zero on the derived plane and [T, X] = 0."""
    j = 1 - i_t
    mi, mj = rhos[i_t].reshape(-1), rhos[j].reshape(-1)
    coef = float(mj @ mi) / float(mi @ mi)
    x0 = comp[:, j] - coef * comp[:, i_t]
    m_t = _restricted_ad(g, B, t_vec)
    xi = B.T @ bracket(g, t_vec, x0)
    eta = -np.linalg.solve(m_t, xi)
    return x0 + B @ eta


def _classify_dim2(g: LieAlgebra, W: Subspace, scale: float) -> MD4Label:
    B = W.basis_matrix
    comp = W.orthogonal_complement().basis_matrix

    if np.linalg.norm(bracket(g, B[:, 0], B[:, 1])) > 1e-8 * scale:
        return MD4Label("NotMD4", reason="two-dimensional derived "
                                         "subalgebra is not abelian")

    rhos = [_restricted_ad(g, B, comp[:, i]) for i in range(2)]
    phi_mat = np.column_stack([r.reshape(-1) for r in rhos])
    r_im = numeric_rank(phi_mat)

    if r_im == 0:
        return MD4Label("NotMD4", reason="derived plane acted on trivially")

    if r_im == 1:
        i_t = int(np.argmax([np.linalg.norm(r) for r in rhos]))
        t0 = comp[:, i_t]
        m = rhos[i_t]
        s_m = np.linalg.svd(m, compute_uv=False)
        smax = float(s_m[0])
        if singular_value_rank(s_m, m.shape) < 2:
            return MD4Label("NotMD4",
                            reason="singular action on the derived plane")
        eigs = np.linalg.eigvals(m)
        cut = JORDAN_GAP_RTOL * smax
        band_top = BORDERLINE_FACTOR * cut

        # Repeated eigenvalue: detect by rank deficiency at the trace mean,
        # which stays accurate even when the computed eigenvalues of a
        # defective block scatter by far more than the gap threshold.
        mu = float(np.trace(m)) / 2.0
        s_shift = np.linalg.svd(m - mu * np.eye(2), compute_uv=False)
        if (abs(mu) > cut and s_shift[-1] <= cut
                and float(np.abs(eigs - mu).max()) <= EIG_SCATTER_CAP * smax):
            geo = int((s_shift <= cut).sum())
            t_vec = t0 / mu
            x_vec = _kernel_complement_vector(g, B, comp, rhos, i_t, t_vec)
            if geo == 2:
                # ad_T is a pure scaling: lambda = 1 exactly.
                return _finalize(g, "g421", (1.0,),
                                 [x_vec, B[:, 0], B[:, 1], t_vec],
                                 tuple(eigs), {})
            m2 = _restricted_ad(g, B, t_vec)
            n_mat = m2 - np.eye(2)
            z = _top_right_singular(n_mat)
            y = n_mat @ z
            if np.linalg.norm(y) < 1e-12:
                return MD4Label("NotMD4", reason="vanishing Jordan coupling")
            return _finalize(g, "g422", (), [x_vec, B @ y, B @ z, t_vec],
                             tuple(eigs), {})

        im_max = float(np.abs(eigs.imag).max())
        if im_max >= band_top:
            # Rotation-and-scale: angle folds to (0, pi/2] by flipping T.
            a = float(eigs.real[0])
            b = im_max
            theta = math.atan2(b, a)
            sign = 1.0 if theta <= math.pi / 2 else -1.0
            phi = theta if sign > 0 else math.pi - theta
            t_vec = sign * t0 / math.hypot(a, b)
            m2 = _restricted_ad(g, B, t_vec)
            vals, vecs = np.linalg.eig(m2)
            k = int(np.argmax(vals.imag))
            y, z = vecs[:, k].real, vecs[:, k].imag
            x_vec = _kernel_complement_vector(g, B, comp, rhos, i_t, t_vec)
            return _finalize(g, "g423", (phi,),
                             [x_vec, B @ y, B @ z, t_vec],
                             tuple(eigs), {})
        if im_max >= cut:
            raise DegenerateJordanError(
                f"imaginary part {im_max:.3e} inside the ambiguity band "
                f"[{cut:.3e}, {band_top:.3e})", {"imag": im_max, "cut": cut})
        d = float(abs(eigs[0] - eigs[1]))
        if d < 2.0 * band_top:
            raise DegenerateJordanError(
                f"eigenvalue spacing {d:.3e} too close to the repeated-root "
                f"regime to resolve", {"spacing": d, "cut": cut})
        mu0, mu1 = sorted(float(v) for v in eigs.real)
        if mu0 / mu1 <= mu1 / mu0:
            num, den = mu0, mu1
        else:
            num, den = mu1, mu0
        t_vec = t0 / den
        m2 = _restricted_ad(g, B, t_vec)
        vals, vecs = np.linalg.eig(m2)
        ky = int(np.argmin(np.abs(vals - num / den)))
        kz = 1 - ky
        y = _real_eigvec(vecs[:, ky])
        z = _real_eigvec(vecs[:, kz])
        x_vec = _kernel_complement_vector(g, B, comp, rhos, i_t, t_vec)
        return _finalize(g, "g421", (num / den,),
                         [x_vec, B @ y, B @ z, t_vec],
                         tuple(eigs), {})

    # Image of the action is two-dimensional: the aff(C) pattern.
    eye = np.eye(4)
    full = np.column_stack(
        [_restricted_ad(g, B, eye[i]).reshape(-1) for i in range(4)])
    target = np.eye(2).reshape(-1)
    sol, *_ = np.linalg.lstsq(full, target, rcond=None)
    resid = float(np.linalg.norm(full @ sol - target))
    if resid > 1e-8 * (1.0 + scale):
        return MD4Label("NotMD4",
                        reason="identity is not in the image of the "
                               "derived-plane action")
    t_vec = sol
    traceless = [r - 0.5 * np.trace(r) * np.eye(2) for r in rhos]
    i_best = int(np.argmax([np.linalg.norm(c) for c in traceless]))
    bmat, cmat = rhos[i_best], traceless[i_best]
    det_c = float(np.linalg.det(cmat))
    tau = 1e-10 * (1.0 + float(np.linalg.norm(cmat)) ** 2)
    if det_c <= tau:
        return MD4Label("NotMD4",
                        reason="traceless part of the action is not "
                               "elliptic", tolerance_report={"det": det_c})
    x2 = (comp[:, i_best] - 0.5 * np.trace(bmat) * t_vec) / math.sqrt(det_c)
    zeta = bracket(g, t_vec, x2)
    x2 = x2 - B @ (B.T @ zeta)
    j_mat = _restricted_ad(g, B, x2)
    y0 = np.array([1.0, 0.0])
    z0 = -(j_mat @ y0)
    return _finalize(g, "g424", (), [x2, B @ y0, B @ z0, t_vec],
                     tuple(np.linalg.eigvals(bmat)), {"identity_residual": resid})


def _classify_dim3_abelian(g: LieAlgebra, B: np.ndarray, t0: np.ndarray,
                           scale: float) -> MD4Label:
    a_mat = _restricted_ad(g, B, t0)
    s_a = np.linalg.svd(a_mat, compute_uv=False)
    if singular_value_rank(s_a, a_mat.shape) < 3:
        return MD4Label("NotMD4",
                        reason="singular action on the derived hyperplane")
    smax = float(s_a[0])
    eigs = np.linalg.eigvals(a_mat)
    cut = JORDAN_GAP_RTOL * smax
    band_top = BORDERLINE_FACTOR * cut

    # Triple eigenvalue: rank deficiency at the trace mean, which stays
    # accurate even when the computed eigenvalues of a defective block
    # scatter by far more than the gap threshold.
    mu3 = float(np.trace(a_mat)) / 3.0
    s3 = np.linalg.svd(a_mat - mu3 * np.eye(3), compute_uv=False)
    if (abs(mu3) > cut and s3[-1] <= cut
            and float(np.abs(eigs - mu3).max()) <= EIG_SCATTER_CAP * smax):
        geo = int((s3 <= cut).sum())
        t_vec = t0 / mu3
        a2 = _restricted_ad(g, B, t_vec)
        n_mat = a2 - np.eye(3)
        if geo == 3:
            # ad_T is a pure scaling.
            return _finalize(g, "g431", (1.0, 1.0),
                             [B[:, 0], B[:, 1], B[:, 2], t_vec],
                             tuple(eigs), {})
        if geo == 2:
            # One 2-block and one eigenvector sharing the eigenvalue.
            z_cands = _shifted_nullspace(a2, 1.0, smax / abs(mu3))
            y = _top_right_singular(n_mat)
            x = n_mat @ y
            if np.linalg.norm(x) < 1e-12 or z_cands.shape[1] == 0:
                return MD4Label("NotMD4", reason="vanishing Jordan coupling")
            proj = z_cands - np.outer(x, x @ z_cands) / float(x @ x)
            z = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
            z = z / np.linalg.norm(z)
            return _finalize(g, "g432", (1.0,),
                             [B @ x, B @ y, B @ z, t_vec], tuple(eigs), {})
        n_sq = n_mat @ n_mat
        z = _top_right_singular(n_sq)
        y = n_mat @ z
        x = n_mat @ y
        if np.linalg.norm(x) < 1e-12:
            return MD4Label("NotMD4", reason="vanishing Jordan coupling")
        return _finalize(g, "g433", (),
                         [B @ x, B @ y, B @ z, t_vec], tuple(eigs), {})

    # Double eigenvalue: the mean of the two closest eigenvalues is the
    # candidate; the third must then be real and separated.
    ij = min(((0, 1), (0, 2), (1, 2)),
             key=lambda p: abs(eigs[p[0]] - eigs[p[1]]))
    k_other = 3 - ij[0] - ij[1]
    mu2 = float((eigs[ij[0]] + eigs[ij[1]]).real) / 2.0
    nu_c = eigs[k_other]
    s2 = np.linalg.svd(a_mat - mu2 * np.eye(3), compute_uv=False)
    if (abs(mu2) > cut and s2[-1] <= cut
            and abs(eigs[ij[0]] - eigs[ij[1]]) <= EIG_SCATTER_CAP * smax
            and abs(nu_c - mu2) > EIG_SCATTER_CAP * smax
            and abs(nu_c.imag) <= cut and abs(nu_c.real) > cut):
        nu = float(nu_c.real)
        geo = int((s2 <= cut).sum())
        if geo >= 2:
            # Diagonalizable double plus a simple eigenvalue.
            pair_space = _shifted_nullspace(a_mat, mu2, smax)
            simple_space = _shifted_nullspace(a_mat, nu, smax)
            if pair_space.shape[1] < 2 or simple_space.shape[1] < 1:
                return MD4Label("NotMD4",
                                reason="inconsistent eigenspace dimensions")
            pairs = [(mu2, pair_space[:, 0]), (mu2, pair_space[:, 1]),
                     (nu, simple_space[:, 0])]
            return _finalize_g431(g, B, t0, pairs, eigs)
        lam = mu2 / nu
        t_vec = t0 / nu
        a2 = _restricted_ad(g, B, t_vec)
        n_mat = a2 - lam * np.eye(3)
        _, _, vt_ = np.linalg.svd(n_mat @ n_mat)
        gen = vt_[1:].T  # two-dim generalized eigenspace of lam
        w = _top_right_singular(n_mat @ gen)
        y = gen @ w
        x = n_mat @ y
        if np.linalg.norm(x) < 1e-12:
            return MD4Label("NotMD4", reason="vanishing Jordan coupling")
        z = _shifted_nullspace(a2, 1.0, smax / abs(nu))
        if z.shape[1] == 0:
            return MD4Label("NotMD4", reason="missing simple eigenvector")
        return _finalize(g, "g432", (lam,),
                         [B @ x, B @ y, B @ z[:, 0], t_vec], tuple(eigs), {})

    # All three eigenvalues are simple from here on.
    im_max = float(np.abs(eigs.imag).max())
    if im_max >= band_top:
        k_re = int(np.argmin(np.abs(eigs.imag)))
        nu = float(eigs.real[k_re])
        if abs(nu) <= cut:
            return MD4Label("NotMD4",
                            reason="vanishing real eigenvalue beside a "
                                   "complex pair")
        k_c = int(np.argmax(eigs.imag))
        a, b = float(eigs.real[k_c]), float(abs(eigs.imag[k_c]))
        r = math.hypot(a, b)
        theta = math.atan2(b, a)
        sign = 1.0 if nu > 0 else -1.0
        lam = abs(nu) / r
        phi = theta if sign > 0 else math.pi - theta
        t_vec = sign * t0 / r
        a2 = _restricted_ad(g, B, t_vec)
        vals, vecs = np.linalg.eig(a2)
        kc = int(np.argmax(vals.imag))
        x, y = vecs[:, kc].real, vecs[:, kc].imag
        kr = int(np.argmin(np.abs(vals.imag)))
        z = _real_eigvec(vecs[:, kr])
        return _finalize(g, "g434", (lam, phi),
                         [B @ x, B @ y, B @ z, t_vec], tuple(eigs), {})
    if im_max >= cut:
        raise DegenerateJordanError(
            f"imaginary part {im_max:.3e} inside the ambiguity band "
            f"[{cut:.3e}, {band_top:.3e})", {"imag": im_max, "cut": cut})
    d_min = min(abs(eigs[i] - eigs[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
    if d_min < 2.0 * band_top:
        raise DegenerateJordanError(
            f"eigenvalue spacing {d_min:.3e} too close to the repeated-root "
            f"regime to resolve", {"spacing": d_min, "cut": cut})
    vals, vecs = np.linalg.eig(a_mat)
    pairs = [(float(vals.real[i]), _real_eigvec(vecs[:, i])) for i in range(3)]
    return _finalize_g431(g, B, t0, pairs, eigs)


def _finalize_g431(g: LieAlgebra, B: np.ndarray, t0: np.ndarray,
                   pairs: list, eigs: np.ndarray) -> MD4Label:
    """Pick the lexicographically least (l1, l2) over divisor and order."""
    if any(abs(mu) < 1e-300 for mu, _ in pairs):
        return MD4Label("NotMD4", reason="zero eigenvalue in the action")
    best = None
    for d in range(3):
        rest = [k for k in range(3) if k != d]
        for (ai, bi) in (rest, rest[::-1]):
            cand = (pairs[ai][0] / pairs[d][0], pairs[bi][0] / pairs[d][0])
            if best is None or cand < best[0]:
                best = (cand, ai, bi, d)
    (l1, l2), ai, bi, d = best
    t_vec = t0 / pairs[d][0]
    return _finalize(g, "g431", (l1, l2),
                     [B @ pairs[ai][1], B @ pairs[bi][1],
                      B @ pairs[d][1], t_vec], tuple(eigs), {})


def _classify_dim3_heisenberg(g: LieAlgebra, B: np.ndarray, t0: np.ndarray,
                              pair_brackets: list[np.ndarray],
                              scale: float) -> MD4Label:
    """Nilradical a Heisenberg algebra; pair_brackets are [B_i, B_j], i < j."""
    span = Subspace.from_columns(np.column_stack(pair_brackets), 4)
    if span.dim != 1:
        return MD4Label("NotMD4",
                        reason="derived subalgebra of the derived "
                               "hyperplane is not a line")
    z_dir = span.basis_matrix[:, 0]
    proj = B - np.outer(z_dir, z_dir @ B)
    q = Subspace.from_columns(proj, 4).basis_matrix  # complement of the center
    if q.shape[1] != 2:
        return MD4Label("NotMD4", reason="center of the nilradical is "
                                         "not one-dimensional")
    a0 = np.column_stack([q.T @ bracket(g, t0, q[:, i]) for i in range(2)])
    smax = max(float(np.linalg.svd(a0, compute_uv=False)[0]), 1e-300)
    if abs(np.trace(a0)) > 1e-8 * (1.0 + smax):
        return MD4Label("NotMD4",
                        reason="outer action does not preserve the "
                               "infinitesimal volume of the quotient plane",
                        tolerance_report={"trace": float(np.trace(a0))})
    det0 = float(np.linalg.det(a0))
    if abs(det0) <= 1e-10 * (1.0 + smax ** 2):
        return MD4Label("NotMD4", reason="nilpotent outer action",
                        tolerance_report={"det": det0})

    s = math.sqrt(abs(det0))
    t_vec = t0 / s
    if det0 > 0:
        xbar = np.array([1.0, 0.0])
        ybar = -((a0 / s) @ xbar)
        family = "g441"
    else:
        vals, vecs = np.linalg.eig(a0 / s)
        kx = int(np.argmin(np.abs(vals - (-1.0))))
        ky = int(np.argmin(np.abs(vals - 1.0)))
        xbar = _real_eigvec(vecs[:, kx])
        ybar = _real_eigvec(vecs[:, ky])
        family = "g442"
    xh = q @ xbar
    yh = q @ ybar
    zv = bracket(g, xh, yh)
    if np.linalg.norm(zv) < 1e-12 * scale:
        return MD4Label("NotMD4", reason="degenerate central bracket")
    if family == "g441":
        yh2 = -bracket(g, t_vec, xh)       # [T, X] = -Y exactly
        xh2 = bracket(g, t_vec, yh2)       # [T, Y] = X exactly
    else:
        xh2 = -bracket(g, t_vec, xh)       # [T, X] = -X exactly
        yh2 = bracket(g, t_vec, yh)        # [T, Y] = Y exactly
    zv2 = bracket(g, xh2, yh2)
    return _finalize(g, family, (), [xh2, yh2, zv2, t_vec],
                     tuple(np.linalg.eigvals(a0)), {"det": det0})


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def classify_md4(g: LieAlgebra, seed: int = 0) -> MD4Label:
    """Identify the normal-form family of a four-dimensional solvable algebra.

    Returns an MD4Label whose family is one of the twelve g4xx names,
    DecomposableRnPlus (abelian input), or NotMD4.  Raises NotSolvableError
    when the derived series does not vanish and DegenerateJordanError when
    the eigenvalue structure sits on a tolerance boundary.  Every label but
    NotMD4 has passed the bracket-table comparison against its normal form,
    and every normal form is an MD algebra, so no separate MD test runs.
    ``seed`` is accepted and ignored: the recognizer draws nothing at random.
    """
    if g.dim != 4:
        raise DimensionMismatch(f"classify_md4 needs dim 4, got {g.dim}")
    series, length = derived_series(g)
    if length is None:
        raise NotSolvableError("derived series does not reach zero")

    scale = 1.0 + float(np.abs(g.c).max())
    W = series[1]
    if W.dim == 0:
        return MD4Label("DecomposableRnPlus", decomposition=(4, "abelian"))
    if W.dim == 1:
        return _classify_dim1(g, W, scale)
    if W.dim == 2:
        return _classify_dim2(g, W, scale)
    if W.dim == 3:
        B = W.basis_matrix
        t0 = W.orthogonal_complement().basis_matrix[:, 0]
        pair_brackets = [bracket(g, B[:, i], B[:, j])
                         for i in range(3) for j in range(i + 1, 3)]
        if max(np.linalg.norm(b) for b in pair_brackets) <= 1e-8 * scale:
            return _classify_dim3_abelian(g, B, t0, scale)
        return _classify_dim3_heisenberg(g, B, t0, pair_brackets, scale)
    return MD4Label("NotMD4", reason="derived subalgebra fills the algebra")


def _md_bar_witness(g: LieAlgebra, W: Subspace) -> Optional[np.ndarray]:
    """First X with dim [X, g] < dim [g, g], or None.

    Candidates in order: the standard basis, an orthonormal basis of
    [g, g], a basis of the center.  Ranks use the absolute noise floor, so
    an ad_X made of roundoff alone has rank zero.
    """
    floor = noise_floor(g)
    center = Subspace.from_columns(g.c.reshape(g.dim, -1), g.dim,
                                   atol=floor).orthogonal_complement()
    for x in (*np.eye(g.dim), *W.basis_matrix.T, *center.basis_matrix.T):
        img = Subspace.from_columns(ad_matrix(g, x), g.dim, atol=floor)
        if img.dim < W.dim:
            return x
    return None


def classify_md_bar(g: LieAlgebra,
                    md4: Optional[MD4Label] = None) -> MDBarLabel:
    """Sort an algebra into Abelian / AffR / AffC / NotMDBar.

    The MD-bar algebras are R^n, aff(R) and aff(C): the tag is Abelian when
    [g, g] = 0, AffR in dimension 2, AffC when dim g = 4, dim [g, g] = 2 and
    classify_md4 finds g424, and NotMDBar otherwise.  A caller that already
    holds classify_md4(g) passes it as md4, and it is not computed again.
    A NotMDBar label carries the witness of _md_bar_witness, which may be
    None.
    """
    W = derived_subalgebra(g)
    if W.dim == 0:
        return MDBarLabel("Abelian")
    if g.dim == 2:
        return MDBarLabel("AffR")
    if g.dim == 4 and W.dim == 2:
        try:
            label = classify_md4(g) if md4 is None else md4
            if label.family == "g424":
                return MDBarLabel("AffC")
        except (NotSolvableError, DegenerateJordanError):
            pass
    return MDBarLabel("NotMDBar", witness=_md_bar_witness(g, W))


def is_md_bar(g: LieAlgebra):
    """(ok, witness): whether g is MD-bar, with classify_md_bar's witness."""
    label = classify_md_bar(g)
    return label.tag != "NotMDBar", label.witness


def _merge_repeated(acts: np.ndarray, diag: np.ndarray,
                    top: float) -> list[np.ndarray]:
    """Average the diagonal rows that are one repeated weight.

    A defective weight comes out of the Schur form as rows that scatter
    like a root of the entry noise, while their mean stays accurate.  Rows
    within EIG_SCATTER_CAP * top of the first row left are one weight when
    every action minus their mean has smallest singular value below
    JORDAN_GAP_RTOL * top / BORDERLINE_FACTOR, and distinct weights above
    JORDAN_GAP_RTOL * top.  In between, entry noise and a genuine coupling
    cannot be told apart, and DegenerateJordanError is raised.
    """
    eye = np.eye(acts.shape[1])
    cut = JORDAN_GAP_RTOL * top
    left = list(range(len(diag)))
    out = []
    while left:
        near = [j for j in left if np.abs(diag[j] - diag[left[0]]).max()
                <= EIG_SCATTER_CAP * top]
        if len(near) > 1:
            mean = diag[near].mean(axis=0)
            smin = float(np.linalg.svd(acts - mean[:, None, None] * eye,
                                       compute_uv=False)[:, -1].max())
            if cut / BORDERLINE_FACTOR < smin <= cut:
                raise DegenerateJordanError(
                    f"repeated weight with rank gap {smin:.3e} inside the "
                    f"ambiguity band ({cut / BORDERLINE_FACTOR:.3e}, "
                    f"{cut:.3e}]", {"gap": smin, "cut": cut})
            if smin > cut:
                near = near[:1]
        out.append(diag[near].mean(axis=0))
        left = [j for j in left if j not in near]
    return out


def schur(a: np.ndarray, output: str):
    """scipy.linalg.schur, with scipy imported on first use, so that
    importing this package and the orbit side never load it."""
    import scipy.linalg
    return scipy.linalg.schur(a, output=output)


def _weights(g: LieAlgebra, W: Subspace, V: np.ndarray):
    """Weights of g as rows lambda_j(V e_k), and the largest action entry.

    Walks the lower central series C -> [W, C] of W = [g, g].  On each step
    C/[W, C] the actions of the columns of V commute, so the complex Schur
    basis of one combination of them triangularizes all of them, and the
    weights are the diagonals, repeated ones merged by _merge_repeated.
    """
    floor = noise_floor(g)
    ads = np.einsum("im,ijk->mkj", V, g.c)  # ad of each column of V
    # Fixed coefficients sqrt(2), sqrt(3), 2, sqrt(5), ...: up to four they
    # are independent over Q, so distinct integer weights stay distinct.
    mix = np.sqrt(np.arange(2.0, V.shape[1] + 2.0))
    rows, scale = [], 0.0
    C = W
    while C.dim:
        cols = np.einsum("ia,jb,ijk->kab", W.basis_matrix, C.basis_matrix,
                         g.c).reshape(g.dim, -1)
        nxt = Subspace.from_columns(cols, g.dim, atol=floor)
        if nxt.dim >= C.dim:
            raise NotSolvableError("[g, g] is not nilpotent")
        q = Subspace.from_columns(C.basis_matrix - nxt.project(C.basis_matrix),
                                  g.dim).basis_matrix
        acts = q.T @ ads @ q
        _, z = schur(np.tensordot(mix, acts, axes=1), output="complex")
        tri = z.conj().T @ acts @ z
        top = float(np.abs(tri).max())
        low = float(np.abs(np.tril(tri, -1)).max())
        if low > VERIFY_RTOL * top:
            raise DegenerateJordanError(
                f"the Schur basis leaves a strictly lower part {low:.3e} "
                f"against the largest entry {top:.3e}",
                {"lower": low, "top": top})
        rows += _merge_repeated(acts, np.diagonal(tri, axis1=1, axis2=2).T,
                                top)
        scale = max(scale, top)
        C = nxt
    return rows, scale


def is_exponential(g: LieAlgebra):
    """Dixmier's criterion: g is exponential iff no weight turns imaginary.

    A weight lambda of the solvable algebra g vanishes on [g, g]; g is
    exponential iff Im lambda lies in R Re lambda for every weight (up to
    WEIGHT_RTOL relative to the largest action entry).  Returns (ok,
    witness): for the first weight that fails, x is Im lambda minus its
    projection on Re lambda (Im lambda itself when Re lambda is zero), and
    the witness V x has the purely imaginary eigenvalue i |x|^2 under ad.
    Raises NotSolvableError when [g, g] is not nilpotent, and
    DegenerateJordanError when the Schur basis fails to triangularize or
    a repeated weight sits in the ambiguity band of _merge_repeated.
    """
    W = derived_subalgebra(g)
    V = W.orthogonal_complement().basis_matrix
    weights, scale = _weights(g, W, V)
    tol = WEIGHT_RTOL * scale
    for lam in weights:
        a, b = lam.real, lam.imag
        x = b - (b @ a) / (a @ a) * a if np.linalg.norm(a) > tol else b
        if np.linalg.norm(x) > tol:
            return False, V @ x
    return True, None
