"""Finite-frequency witnesses for small-divisor lower bounds.

A witness records C = min |divisor(k)| * ||k||^gamma over nonzero integer
vectors with sup norm at most K, by exhaustive enumeration.  The norm in the
product is Euclidean; the enumeration bound is the sup norm; both conventions
are recorded on the witness.  These are desk-scale certificates up to K, not
proofs of Diophantineness.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

# largest enumeration degree K of every witness
ENUM_CAP = 512

# dot products of integer vectors with O(1) reals: values at or below this
# multiple of eps cannot be distinguished from an exact resonance
_SNAP = 8 * np.finfo(float).eps


@dataclass
class DiophantineWitness:
    C: float
    gamma: float
    K: int
    kind: str  # "linear-form" | "simultaneous"
    argmin_k: tuple
    value: float  # divisor value at argmin of the product
    product_norm: str = "euclidean"
    enum_norm: str = "sup"

    @property
    def valid(self):
        return self.C > 0

    def lower_bound(self, k):
        """Certified bound |divisor(k)| >= C * ||k||^-gamma for ||k||_inf <= K."""
        k = np.asarray(k, dtype=float)
        return self.C * float(np.linalg.norm(k)) ** (-self.gamma)


def _integer_grid(n, K):
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > ENUM_CAP:
        raise ValueError("K = %d exceeds the enumeration cap %d" % (K, ENUM_CAP))
    if (2 * K + 1) ** n > 4e7:
        raise ValueError("enumeration too large for desk scale (n=%d, K=%d)" % (n, K))
    axes = [np.arange(-K, K + 1)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    keep = np.any(grid != 0, axis=1)
    return grid[keep]


def _snap_floor(values_scale):
    return _SNAP * np.maximum(1.0, values_scale)


def _canonical(k):
    # +-k are equivalent minimizers; report the sign with positive leading entry
    for x in k:
        if x != 0:
            if x < 0:
                k = -k
            break
    return tuple(int(x) for x in k)


def min_small_divisor(a, K):
    """Exhaustive min of |a . k| over 0 < ||k||_inf <= K; returns (k*, value),
    the argmin and divisor of the gamma = 0 witness.

    Values below the dot-product roundoff floor are snapped to exact zero.
    """
    wit = fit_witness(a, 0.0, K)
    return wit.argmin_k, wit.value


def _finish_witness(grid, vals, gamma, K, kind):
    norms = np.linalg.norm(grid, axis=1)
    product = vals * norms**gamma
    i = int(np.argmin(product))
    ties = np.flatnonzero(product == product[i])
    if ties.size > 1:
        i = int(ties[np.argmin(norms[ties])])
    value = float(vals[i])
    C = float(product[i]) if value > 0 else 0.0
    return DiophantineWitness(
        C=C,
        gamma=float(gamma),
        K=int(K),
        kind=kind,
        argmin_k=_canonical(grid[i]),
        value=value,
    )


def fit_witness(a, gamma, K):
    """Witness for the linear form |a . k| with exponent gamma up to frequency K."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise DimensionMismatch("a must be a nonempty vector")
    grid = _integer_grid(a.size, K)
    vals = np.abs(grid @ a)
    vals[vals <= _snap_floor(np.abs(grid) @ np.abs(a))] = 0.0
    return _finish_witness(grid, vals, gamma, K, "linear-form")


def simultaneous_witness(thetas, gamma, K):
    """Witness for max_i dist(m . theta_i, Z) over integer m, 0 < ||m||_inf <= K."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    T = np.asarray(thetas, dtype=float)
    if T.ndim == 1:
        T = T[:, None]
    if T.ndim != 2 or T.size == 0:
        raise DimensionMismatch("thetas must be a nonempty list of equal-length vectors")
    grid = _integer_grid(T.shape[1], K)
    dots = grid @ T.T  # (points, vectors)
    dist = np.abs(dots - np.round(dots))
    dist[dist <= _snap_floor(np.abs(grid) @ np.abs(T.T))] = 0.0
    vals = dist.max(axis=1)
    return _finish_witness(grid, vals, gamma, K, "simultaneous")
