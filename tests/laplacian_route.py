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
    delta0_star,
    delta1,
    laplacian_solve,
)
from nilflow.nilrep import apply_X1, apply_X2


def split_via_laplacian(params, omega, r=1.0, sigma=2.0, tol=1e-7):
    phi = delta1(params, omega)
    # the corrected pair must pass the cocycle gate below, so the solve
    # target sits well under tol
    h = laplacian_solve(params, phi, tol=1e-4 * tol)
    f_err = apply_X2(params, h)
    g_err = apply_X1(params, h).scaled(-1.0)
    f0, f_triv = _strip_average(omega.f.sub(f_err))
    g0, g_triv = _strip_average(omega.g.sub(g_err))
    H = delta0_star(params, Cochain1(f0, g0), tol=tol)
    out = SplittingResult(H=H, f_err=f_err, g_err=g_err, f_triv=f_triv, g_triv=g_triv)
    out.constants = _splitting_constants(omega, out, phi, r, sigma)
    return out
