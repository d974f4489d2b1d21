"""The splitting through the leafwise Laplacian, kept as a test oracle for the
direct split: solve L h = phi for the cocycle defect phi, take the error pair
(X2 h, -X1 h), and invert the corrected cocycle.  The two error pairs differ
by a coboundary plus constants.
"""

from nilflow.cohomology import (
    Cochain1,
    SplittingResult,
    _splitting_constants,
    _strip_average,
    delta1,
    delta1_star_split,
    laplacian_solve,
)
from nilflow.nilrep import apply_X1, apply_X2, nil_sobolev_norm


def split_via_laplacian(params, omega, r=1.0, sigma=2.0, tol=1e-7):
    phi = delta1(params, omega)
    # the corrected pair must be a cocycle to tol, checked below, so the
    # solve target sits well under tol
    h = laplacian_solve(params, phi, tol=1e-4 * tol)
    f_err = apply_X2(params, h)
    g_err = apply_X1(params, h).scaled(-1.0)
    f0, f_triv = _strip_average(omega.f.sub(f_err))
    g0, g_triv = _strip_average(omega.g.sub(g_err))
    inner = delta1_star_split(params, Cochain1(f0, g0))
    scale = max(nil_sobolev_norm(f0, 0.0), nil_sobolev_norm(g0, 0.0), 1e-300)
    left = max(nil_sobolev_norm(inner.f_err, 0.0), nil_sobolev_norm(inner.g_err, 0.0))
    assert left <= tol * scale, "corrected pair is no cocycle: error %.3e" % left
    H = inner.H
    out = SplittingResult(H=H, f_err=f_err, g_err=g_err, f_triv=f_triv, g_triv=g_triv)
    out.constants = _splitting_constants(omega, out, phi, r, sigma)
    return out
