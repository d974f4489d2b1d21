"""Coboundary operators of the two-parameter action, the tame split that
inverts the first, the leafwise Laplacian with its hypoellipticity
certificate, and the triangular solver for cochains with vector-field
coefficients.

Everything is computed mode by mode: toral Fourier modes divide by the small
divisors of the frequency vector, representation blocks divide by the central
scalar.  Certificates read closed forms, the toral divisors and the exact
spectral bottom (2 pi n beta)^2 / (1 + mu^2) of block n; truncated spectra
are diagnostics.

In block n the truncation of X1 is i rho times the Jacobi matrix of the
Hermite nodes, up to a diagonal phase, and X2 = mu X1 + i c (`_block_scales`).
So a cochain problem at mu is the mu = 0 problem for (f, g - mu f)
(`_reduced`), truncated spectra are read off the nodes, and the leafwise
Laplacian factors into two tridiagonal sweeps on X1's bands.  The one
inverse of delta0 is that mu = 0 split's H (`_primitive`), with no
cocycle gate, since the error pair carries the defect.  beta enters it only
in the central division, so beta = 0 is refused on representation rows
alone.  The split takes no Diophantine witness: the command line refuses a
resonant frequency vector once per run, and gh_certificate fits its own
witness.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import ConstantCocycle
from .diophantine import _SNAP, _finish_witness, _linear_form_values
from .errors import DimensionMismatch, NonzeroAverage, Resonance
from .nilrep import (
    NilFunction,
    _bands,
    _hermite_nodes,
    _tridiag_solve,
    apply_X1,
    apply_X2,
    nil_sobolev_norm,
)
from .torus import TorusFunction, _divisors, solve_small_divisor

CONVENTION = "dpi(Y1)=d/dx, dpi(Y2)=2*pi*i*n*x, dpi(Z)=2*pi*i*n"


@dataclass
class Cochain1:
    """Value of a 1-cochain on the two generators."""

    f: NilFunction
    g: NilFunction

    def norm(self, r=0.0):
        return max(nil_sobolev_norm(self.f, r), nil_sobolev_norm(self.g, r))


@dataclass
class SplittingResult:
    """Decomposition f = X1 H + f_err + f_triv, g = X2 H + g_err + g_triv."""

    H: NilFunction
    f_err: NilFunction
    g_err: NilFunction
    f_triv: complex
    g_triv: complex
    constants: dict = field(default_factory=dict)


def delta1(params, omega):
    """Second coboundary X2 f - X1 g; zero exactly on cocycles."""
    return apply_X2(params, omega.f).sub(apply_X1(params, omega.g))


def _block_scales(params, n):
    """(rho, c) of block n, elementwise for an array of n: the truncation of
    X1 is i rho times the Jacobi matrix of the Hermite nodes, up to a
    diagonal phase, with rho = |(alpha1, 2 pi n alpha2)|, and X2 = mu X1 + i c
    with c = 2 pi n beta."""
    rho = np.hypot(params.alpha[0], 2 * math.pi * n * params.alpha[1])
    return rho, _central_scale(params, n)


def _central_scale(params, n):
    """c = 2 pi n beta of block n, elementwise for an array of n."""
    return 2 * math.pi * n * params.beta[0]


def _reduced(params, omega):
    """The mu = 0 form of a cochain problem, as (params at mu = 0, cochain).
    X2 - mu X1 is the central beta Z, so omega = (f, g) at mu and
    (f, g - mu f) at mu = 0 have the same primitives and cocycle defect."""
    if params.mu == 0:
        return params, omega
    return params.replace(mu=0), Cochain1(
        omega.f, omega.g.sub(omega.f.scaled(params.mu))
    )


def _divide_central(params, F, toral=None):
    """F's representation rows divided by their central scalars i c, on the
    given toral part; the coboundary inverses' only refusal of beta = 0."""
    if not F.keys:
        return NilFunction(toral=toral)
    if params.beta[0] == 0:
        n = int(F.ns[0])
        raise Resonance("central parameter vanishes; no inverse on representation n=%d" % n)
    c = _central_scale(params, F.ns[:, None])
    return F._rows_like(toral, F.block / (1j * c))


def _strip_average(f):
    avg = complex(f.toral.average)
    if avg == 0:
        return f, avg
    return f._rows_like(f.toral - TorusFunction.constant(2, avg), f.block), avg


def delta1_star_split(params, omega, r=1.0, sigma=2.0):
    """Split a general cochain into a coboundary, an error pair controlled by
    the cocycle defect, and constants.

    Toral block: the first component is integrated along the flow direction,
    the second component (minus its average) is the toral error.  Each
    representation block divides the second component by the central scalar to
    produce H and the defect by the same scalar to produce the error on the
    first component.  Exact reconstruction holds by construction.  A nonzero
    mu goes through the mu = 0 split of (f, g - mu f), with mu times the first
    error added back to the second.
    """
    flat, reduced = _reduced(params, omega)
    phi = delta1(flat, reduced)
    H = _primitive(flat, reduced)
    f_err = _divide_central(flat, phi)
    f_triv = complex(reduced.f.toral.average)
    g_triv = complex(reduced.g.toral.average)
    g_err = NilFunction(toral=reduced.g.toral - TorusFunction.constant(2, g_triv))
    if params.mu != 0:
        g_err = g_err.add(f_err.scaled(params.mu))
        g_triv = g_triv + params.mu * f_triv
    out = SplittingResult(H=H, f_err=f_err, g_err=g_err, f_triv=f_triv, g_triv=g_triv)
    out.constants = _splitting_constants(omega, out, phi, r, sigma)
    return out


def _primitive(params, omega):
    """The H of the mu = 0 split of omega, and the only place H is formed:
    f's toral part integrated along the flow, with no average gate, and g's
    representation rows divided by their central scalars."""
    h0 = solve_small_divisor(params.x1_y, omega.f.toral, tol_avg=math.inf)
    return _divide_central(params, omega.g, h0)


def _splitting_constants(omega, result, phi, r, sigma):
    """Measured tame constants of a split of omega with cocycle defect phi."""
    data = omega.norm(r + sigma)
    err = max(
        nil_sobolev_norm(result.f_err, r), nil_sobolev_norm(result.g_err, r)
    )
    return {
        "r": r,
        "sigma": sigma,
        "h_ratio": nil_sobolev_norm(result.H, r) / max(data, 1e-300),
        "err_ratio": err / max(nil_sobolev_norm(phi, r + sigma), 1e-300),
        "convention": CONVENTION,
    }


def leafwise_laplacian_apply(params, F):
    """Sum of squared generator actions X1(X1 F) + X2(X2 F)."""
    return apply_X1(params, apply_X1(params, F)).add(
        apply_X2(params, apply_X2(params, F))
    )


_LAP_SIZE_CAP = 8192


def _rep_laplacian_solve(params, n, v, tol):
    """Solve the representation block of the leafwise Laplacian.

    With X2 = mu X1 + i c, L = (1 + mu^2) (X1 - s+) (X1 - s-) for
    s+- = c (+-1 - i mu) / (1 + mu^2), and so is every truncation; each
    factor has Hermitian part -Re(s) = -+c / (1 + mu^2), definite unless
    beta = 0, where the block has no bounded inverse.  The true solution's
    Hermite tail decays like exp(-c sqrt(j)) with c set by the ratio of the
    central scalar to the oscillator scale, so the truncation doubles, capped,
    until the exact-operator defect drops below tolerance.
    """
    c = _central_scale(params, n)
    v = np.asarray(v, dtype=complex)
    vmax = float(np.max(np.abs(v))) if len(v) else 0.0
    if vmax == 0.0:
        return np.zeros(len(v), dtype=complex)
    if c == 0:
        raise Resonance(
            "central parameter vanishes; the leafwise Laplacian has no bounded "
            "inverse at n=%d" % n
        )
    denom = 1 + params.mu * params.mu
    shifts = [c * (sign - 1j * params.mu) / denom for sign in (1, -1)]
    size = max(64, 2 * len(v))
    while True:
        size = min(size, _LAP_SIZE_CAP)
        sup, sub, diag = _bands(n, size, params.x1_y, 0.0)
        sol = np.zeros(size, dtype=complex)
        sol[: len(v)] = v / denom
        for s in shifts:
            sol = _tridiag_solve(sup, sub, diag - s, sol)
        check = leafwise_laplacian_apply(
            params, NilFunction(reps={(n, 0): sol})
        ).rep(n).copy()
        check[: len(v)] -= v
        if float(np.max(np.abs(check))) <= tol * vmax:
            return sol
        if size >= _LAP_SIZE_CAP:
            raise Resonance(
                "leafwise solve did not stabilize by size %d at n=%d; the "
                "central scalar is too close to resonance" % (size, n)
            )
        size *= 2


def laplacian_solve(params, source, witnesses=None, tol=1e-9):
    """Invert the leafwise Laplacian mode by mode.

    On toral modes the centre acts trivially and X2 = mu X1, so L is
    (1 + mu^2) X1^2 and its inverse is the small-divisor solve applied twice
    (Greenfield-Wallach); a mode with a resonant k.alpha raises Resonance.
    Each representation block runs the two tridiagonal sweeps, enlarged
    until edge effects fall below tolerance.  ``witnesses`` is unused; it
    stays the third parameter because the benchmark's probe passes it by
    position.
    """
    scale = max(nil_sobolev_norm(source, 0.0), 1e-300)
    avg = complex(source.toral.average)
    if abs(avg) > tol * scale:
        raise NonzeroAverage("constant obstruction present: average %r" % (avg,))
    x1 = params.x1_y
    once = solve_small_divisor(x1, source.toral, tol_avg=math.inf)
    toral = solve_small_divisor(x1, once) * (1 / (1 + params.mu * params.mu))
    reps = {
        (n, m): _rep_laplacian_solve(params, n, v, tol)
        for (n, m), v in source.reps.items()
    }
    return NilFunction(toral=toral, reps=reps)


def trusted_count(M):
    """Number of low eigenvalues unaffected by Hermite truncation edges."""
    return max(M // 3, 1)


def rep_spectrum(params, n, M):
    """Eigenvalues of the truncated leafwise Laplacian in the representation
    with central frequency n, ordered from closest to zero downward.

    Only the first third is trusted; the tail feels the basis truncation.
    The truncated X1 and X2 commute, so minus the truncated Laplacian has
    the eigenvalues t^2 + (mu t + c)^2 at t = rho x_j, x_j the M nodes.
    """
    if n == 0:
        raise ValueError("n = 0 labels the toral block")
    if M < 16:
        raise ValueError("need M >= 16 for a meaningful truncation")
    with np.errstate(over="ignore", invalid="ignore"):
        rho, c = _block_scales(params, n)
        t = rho * _hermite_nodes(M)
        ev = np.sort(t * t + (params.mu * t + c) ** 2)
    # NaN sorts last, so the last value is the one to check
    if not math.isfinite(ev[-1]):
        raise ValueError(
            "the spectrum of block n = %d overflows at alpha = %r, beta = %r, mu = %r"
            % (n, params.alpha, params.beta[0], params.mu)
        )
    # negation is exact: these are the floats, zero signs included, of -ev
    return (-ev).tolist()


def gh_certificate(params, N, M, K):
    """Certificate that the leafwise Laplacian has no near-kernel besides the
    constants.

    Toral side: exhaustive minimum of (2 pi k.alpha)^2 over ||k||_inf <= K,
    with the bound of its own gamma = 1 witness up to K at the argmin when
    that witness is valid; both score one enumeration of k.alpha.
    Representation side: on block n, X2 - mu X1 is the scalar i c with
    c = 2 pi n beta, so -L = A^2 + (mu A - c)^2 with A = i X1 of spectrum R
    has exact bottom c^2 / (1 + mu^2).
    The verdict reads only these closed forms: the toral minimum is resonant
    when its divisor snaps to zero (`diophantine._snap_floor`), the
    representation side degenerate when its bottom is zero.  truncated_min,
    the smallest |eigenvalue| of the M-term truncation, is a diagnostic; it
    is the first entry of the sorted spectrum, so it lies in the trusted
    third.
    """
    report = {"convention": CONVENTION, "N": N, "M": M, "K": K}
    grid, vals = _linear_form_values(params.x1_y, K)
    closest = _finish_witness(grid, vals, 0.0, K, "linear-form")
    k_star, div = closest.argmin_k, closest.value
    toral = {"min": (2 * math.pi * div) ** 2, "argmin": k_star}
    wit = _finish_witness(grid, vals, 1.0, K, "linear-form")
    if wit.valid:
        # k_star is nonzero: the minimum runs over 0 < ||k||_inf <= K
        toral["witness_bound"] = (2 * math.pi * wit.lower_bound(k_star)) ** 2
    report["toral"] = toral

    beta = params.beta[0]
    try:
        c = (2 * math.pi * beta) ** 2 / (1 + params.mu * params.mu)
    except OverflowError:
        c = math.inf
    if not math.isfinite(c * N * N):  # the bottom c n^2 of block N is the largest
        raise ValueError("beta = %r overflows the spectral bottom at n = %d" % (beta, N))
    if beta != 0 and c == 0:
        raise ValueError(
            "beta = %r underflows the spectral bottom at mu = %r" % (beta, params.mu)
        )
    report["rep"] = [
        {"n": n, "min_abs": c * n * n, "truncated_min": -rep_spectrum(params, n, M)[0]}
        for n in range(1, N + 1)
    ]
    report["fit"] = {"c": c, "d": 2.0}
    report["beta_degenerate"] = beta == 0

    if div == 0:
        report["resonant_mode"] = toral["argmin"]
    elif c == 0:
        report["reason"] = "ZeroSpectralBottom"
    report["near_zero"] = div == 0 or c == 0
    report["certified"] = not report["near_zero"]
    return report


def joint_kernel_dim(params, K, tol=1e-8):
    """Count toral modes with ||k||_inf <= K annihilated by both generators
    within tol relative to the divisor's scale: |k.alpha| <= tol sum |k_i
    alpha_i|, or at or below the resonance floor of `torus._divisors`.  The
    test is relative, so X2 = mu X1 adds no constraint and scaling alpha
    changes no count.

    The constant mode always qualifies; with valid parameters it is the only
    one, certifying unique ergodicity.  Representation blocks add nothing:
    there X1 is a first-order operator with no L^2 kernel, for every beta.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    ka, floor = _divisors(tuple(float(a) for a in params.x1_y), K)
    # the floor is _SNAP, a power of two, times sum |k_i alpha_i|, so this is
    # max(floor, tol sum |k_i alpha_i|) to the bit while the floor is normal;
    # since |k.alpha| <= sum |k_i alpha_i|, a tol above 1 counts what 1 does,
    # and clamping it keeps 0 * inf out of the constant mode's test
    return int(np.count_nonzero(np.abs(ka) <= floor * max(1.0, min(tol, 1.0) / _SNAP)))


# --- cochains with vector-field coefficients --------------------------------


@dataclass
class VfField:
    """Vector field h1 Y1 + h2 Y2 + h' Z with function coefficients, in the
    one frame of the vector-field layer: the central Z with [Y1, Y2] = Z, as
    in the representation model, where dpi(Y1) = d/dx and dpi(Y2) = 2 pi i n x
    commute to dpi(Z) = 2 pi i n.  Any other slot shape is refused here."""

    y: tuple
    z: tuple

    def __post_init__(self):
        self.y = tuple(self.y)
        self.z = tuple(self.z)
        if len(self.y) != 2 or len(self.z) != 1:
            raise DimensionMismatch(
                "vector fields have two Y slots and one Z slot, got %d and %d"
                % (len(self.y), len(self.z))
            )

    @classmethod
    def constant(cls, y_values, z_values):
        return cls(
            tuple(NilFunction.constant(v) for v in y_values),
            tuple(NilFunction.constant(v) for v in z_values),
        )

    @property
    def slots(self):
        return self.y + self.z

    def map(self, fn, *others):
        """Apply fn slot by slot, with the same slot of each other field as
        further arguments."""
        return VfField(
            tuple(map(fn, self.y, *(o.y for o in others))),
            tuple(map(fn, self.z, *(o.z for o in others))),
        )

    def add(self, other):
        return self.map(NilFunction.add, other)

    def sub(self, other):
        return self.map(NilFunction.sub, other)


@dataclass
class VfCochain:
    """Value of a vector-field-valued 1-cochain on the two generators."""

    x1: VfField
    x2: VfField


def _kappa(y_vec, i):
    """Z component of [X, Y_i] for X with Y coefficients y_vec: [Y1, Y2] = Z."""
    return float((-y_vec[1], y_vec[0])[i])


def vf_delta0(params, H):
    """Coboundary of a vector field with function coefficients: the Lie
    derivative along each generator, including the bracket terms that push
    Y-coefficients into the center."""
    values = []
    for apply_gen, y_vec in (
        (apply_X1, params.x1_y),
        (apply_X2, params.x2_y),
    ):
        y_out = tuple(apply_gen(params, h) for h in H.y)
        term = apply_gen(params, H.z[0])
        for i in range(2):
            kappa = _kappa(y_vec, i)
            if kappa != 0.0:
                term = term.add(H.y[i].scaled(kappa))
        values.append(VfField(y_out, (term,)))
    return VfCochain(values[0], values[1])


def _solve_scalar_pair(params, f, g):
    """The H of the split of (f, g) without its averages, with no cocycle
    gate: X1 H and X2 H are its coboundary part, and the split's error pair,
    controlled by the cocycle defect, is left to the caller's residual.
    Returns (H, average of f, average of g)."""
    f0, a1 = _strip_average(f)
    g0, a2 = _strip_average(g)
    return _primitive(*_reduced(params, Cochain1(f0, g0))), a1, a2


def _real_average(x, slot):
    """A slot average as the real number a constant cocycle holds."""
    x = complex(x)
    if x.imag != 0:
        raise ValueError("slot %s has a complex average %r" % (slot, x))
    return x.real


def vf_coboundary_solve(params, Omega):
    """Triangular inversion of the vector-field coboundary.

    The two Y-coefficient equations are scalar coboundary problems; their
    solutions feed bracket corrections into the central source, which is
    then solved the same way.  Left over are the source averages
    r = (y1, z1; y2, z2) under X1 and X2, real or refused with ValueError.
    A constant field c has the coboundary (0, kappa; 0, mu kappa), with
    kappa = alpha1 c2 - alpha2 c1: the least-norm shift
    c = z1 (-alpha2, alpha1, 0) / |alpha|^2 absorbs z1, and the obstruction
    (y1, 0; mu y1 + s alpha, z2 - mu z1), s = alpha.(y2 - mu y1) / |alpha|^2,
    lies in the family directions of section_s.  The part of y2 - mu y1
    across alpha is not a cocycle and stays in the caller's residual.  At
    alpha = 0 every constant coboundary vanishes: no shift, and the
    obstruction is r.  H's representation rows are those of g - mu f, for
    the X1 and X2 values f and g, divided by i c: beta = 0 refuses only
    such rows, and what X1 H leaves of f's rows stays in the residual.
    """
    parts = [
        _solve_scalar_pair(params, f, g) for f, g in zip(Omega.x1.y, Omega.x2.y)
    ]
    src1, src2 = Omega.x1.z[0], Omega.x2.z[0]
    for i, (h, _c1, _c2) in enumerate(parts):
        k1 = _kappa(params.x1_y, i)
        k2 = _kappa(params.x2_y, i)
        if k1 != 0.0:
            src1 = src1.sub(h.scaled(k1))
        if k2 != 0.0:
            src2 = src2.sub(h.scaled(k2))
    parts.append(_solve_scalar_pair(params, src1, src2))
    r = np.array([
        [_real_average(part[j], "x%d.%s" % (j, slot))
         for part, slot in zip(parts, ("y0", "y1", "z0"))]
        for j in (1, 2)
    ])
    (y1, z1), (y2, z2) = (r[0, :2], r[0, 2]), (r[1, :2], r[1, 2])
    alpha = np.array(params.alpha, dtype=float)
    norm2 = alpha @ alpha
    shift = (0.0, 0.0)
    if norm2 > 0:
        mu = float(params.mu)
        shift = z1 * np.array([-alpha[1], alpha[0]]) / norm2
        y2 = mu * y1 + alpha * (alpha @ (y2 - mu * y1)) / norm2
        z1, z2 = 0.0, z2 - mu * z1
    h = [
        h.add(NilFunction.constant(c)) if c != 0 else h
        for (h, _c1, _c2), c in zip(parts, shift)
    ]
    return VfField(tuple(h), (parts[2][0],)), ConstantCocycle(y1, (z1,), y2, (z2,))
