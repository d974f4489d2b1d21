"""Reference computations that the acceptance and unit tests compare the
package against: the closed-form Birkhoff average on the torus, the first
coboundary of a function, and the cut of a function's representation rows
to a frequency window."""

import numpy as np

from nilflow.cohomology import Cochain1
from nilflow.errors import DimensionMismatch
from nilflow.nilrep import apply_X1, apply_X2
from nilflow.torus import _divisors, _freqs


def birkhoff_average(alpha, f, x0, T):
    """Time average (1/T) int_0^T f(x0 + t alpha) dt in closed form: mode k
    contributes c_k exp(2 pi i k.x0) expm1(z) / z with z = 2 pi i T k.alpha,
    or c_k exp(2 pi i k.x0) where k.alpha is resonant (`_divisors`).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    alpha = np.asarray(alpha, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if alpha.shape != (f.n,) or x0.shape != (f.n,):
        raise DimensionMismatch("alpha and x0 must have length n")
    ka, floor = _divisors(tuple(alpha.tolist()), f.size)
    kx = sum(k * x for k, x in zip(_freqs(f.n, f.size), x0))
    z = 2j * np.pi * T * ka
    window = np.divide(np.expm1(z), z, out=np.ones_like(z), where=np.abs(ka) > floor)
    avg = np.sum(f.block * np.exp(2j * np.pi * kx) * window)
    return float(avg.real) if f.real else complex(avg)


def delta0(params, h):
    """First coboundary: the pair of generator derivatives of h."""
    return Cochain1(apply_X1(params, h), apply_X2(params, h))


def restrict_frequencies(F, n_max):
    """Drop representation components with |n| above n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return F._cut(F.toral, n_max)
