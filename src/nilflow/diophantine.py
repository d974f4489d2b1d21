"""Finite-frequency witness constants for small-divisor lower bounds.

A witness records C = min |divisor(k)| * ||k||^gamma over nonzero integer
vectors with sup norm at most K.  C is the floating-point minimum, not yet a
certified lower bound: it can sit above the exact minimum by a few ulps
(ROADMAP item 4).  The simultaneous witness scores the whole (2K+1)^n box.
The linear form |a . k| scores a box one dimension smaller: with
j = argmax |a_j|, each k' off axis j keeps only the four k_j nearest the root
-a'.k'/a_j.  Every other k has |a . k| >= (2 - roundoff)|a_j|, while the kept
unit vectors e_i (i != j) score |a_i| <= |a_j|, so the reduced minimum is the
minimum over the whole box, with the same argmin.  The whole box answers only
where that argument fails: n = 1 or a_j = 0.  The norm in the product
||k||^gamma is Euclidean, and the enumeration bound K is on the sup norm.
These are desk-scale certificates up to K, not proofs of Diophantineness.

_snap_floor is the one zero test for divisors: a computed value at or below
_SNAP * sum |a_i k_i|, the rounding bound of the dot product, counts as an
exact resonance.  The test is relative, so scaling a by a power of two
changes no verdict.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

# largest enumeration degree K of every witness
ENUM_CAP = 512

# a dot product at or below this multiple of sum |a_i k_i| cannot be told
# from an exact resonance
_SNAP = 8 * np.finfo(float).eps


@dataclass
class DiophantineWitness:
    C: float
    gamma: float
    K: int
    kind: str  # "linear-form" | "simultaneous"
    argmin_k: tuple
    value: float  # divisor value at argmin of the product

    @property
    def valid(self):
        return self.C > 0

    def lower_bound(self, k):
        """Bound |divisor(k)| >= C * ||k||^-gamma for 0 < ||k||_inf <= K, with
        C the floating-point minimum, not yet certified (ROADMAP item 4)."""
        k = np.asarray(k, dtype=float)
        if not 0 < np.abs(k).max(initial=0.0) <= self.K:
            raise ValueError("the witness bounds only 0 < ||k||_inf <= K = %d" % self.K)
        return self.C * float(np.linalg.norm(k)) ** (-self.gamma)


def _require_finite(x, name):
    if not np.all(np.isfinite(x)):
        raise ValueError("%s must be finite" % name)


def _require_in_range(x, K, name):
    # every dot product over the box is at most K * n * max|x| in size; past
    # the float range they overflow and snap to false resonances
    if not math.isfinite(float(np.max(np.abs(x))) * K * x.shape[-1]):
        raise ValueError("%s too large: its dot products up to K = %d overflow" % (name, K))


def _check_box(n, K):
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > ENUM_CAP:
        raise ValueError("K = %d exceeds the enumeration cap %d" % (K, ENUM_CAP))
    if (2 * K + 1) ** n > 4e7:
        raise ValueError("enumeration too large for desk scale (n=%d, K=%d)" % (n, K))


def _box(n, K):
    # all of {-K..K}^n, zero included at the centre, in lexicographic order;
    # float64, exact since every entry is an integer of size <= ENUM_CAP
    axes = [np.arange(-K, K + 1, dtype=float)] * n
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)


def _integer_grid(n, K):
    _check_box(n, K)
    grid = _box(n, K)
    return np.delete(grid, len(grid) // 2, axis=0)


def _reduced_grid(a, j, K):
    # every integer outside floor(root) + {-1, 0, 1, 2} lies at least 2 from
    # the computed root -a'.k'/a_j, so at least 2 - roundoff from the true
    # one; the grid is float64 like the box, exact up to ENUM_CAP
    off = np.arange(a.size) != j
    other = _box(a.size - 1, K)
    near = np.floor(-(other @ a[off]) / a[j])
    grid = np.empty((4 * len(other), a.size))
    grid[:, off] = np.repeat(other, 4, axis=0)
    grid[:, j] = (near[:, None] + np.arange(-1, 3)).ravel()
    keep = np.abs(grid[:, j]) <= K
    # k = 0 is the second row of k' = 0, the box's centre, whose root is 0
    keep[4 * (len(other) // 2) + 1] = False
    # np.compress copies the rows several times faster than grid[keep]
    return np.compress(keep, grid, axis=0)


def _snap_floor(values_scale):
    """Resonance floor of dot products whose terms sum to values_scale in
    absolute value: a value at or below it counts as zero."""
    return _SNAP * values_scale


def _canonical(k):
    # +-k are equivalent minimizers; report the sign with positive leading entry
    for x in k:
        if x != 0:
            if x < 0:
                k = -k
            break
    return tuple(int(x) for x in k)


def min_small_divisor(a, K):
    """Min of |a . k| over 0 < ||k||_inf <= K; returns (k*, value), the
    argmin and divisor of the gamma = 0 witness.  It reads the reduced
    enumeration of fit_witness, and the whole box only for n = 1 or a = 0.

    A value at or below its _snap_floor is returned as exact zero.
    """
    wit = fit_witness(a, 0.0, K)
    return wit.argmin_k, wit.value


def _finish_witness(grid, vals, gamma, K, kind):
    # the squares of integer entries sum exactly, in any order
    norms = np.sqrt(np.einsum("ij,ij->i", grid, grid))
    product = vals * norms**gamma
    i = int(np.argmin(product))
    ties = np.flatnonzero(product == product[i])
    if ties.size > 1:
        # the shortest tied k, then the lexicographically first: the first
        # of them in the whole box, whatever order the grid is in
        ties = ties[norms[ties] == norms[ties].min()]
        i = int(min(ties, key=lambda t: tuple(grid[t])))
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
    _require_finite(gamma, "gamma")
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise DimensionMismatch("a must be a nonempty vector")
    _require_finite(a, "a")
    _check_box(a.size, K)
    _require_in_range(a, K, "a")
    j = int(np.argmax(np.abs(a)))
    # every k off the reduced grid lies at least 2 - roundoff from the root,
    # so it scores |a . k| > |a_j|, above its snap floor of at most
    # 8 eps K n |a_j| < |a_j|; the unit vectors e_i (i != j) stay on the grid
    # and score |a_i| <= |a_j|, so no point off it reaches the minimum or
    # ties it
    if a.size > 1 and a[j] != 0:
        grid = _reduced_grid(a, j, K)
    else:
        grid = _integer_grid(a.size, K)
    vals = np.abs(grid @ a)
    vals[vals <= _snap_floor(np.abs(grid) @ np.abs(a))] = 0.0
    return _finish_witness(grid, vals, gamma, K, "linear-form")


def simultaneous_witness(thetas, gamma, K):
    """Witness for max_i dist(m . theta_i, Z) over integer m, 0 < ||m||_inf <= K."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    _require_finite(gamma, "gamma")
    T = np.asarray(thetas, dtype=float)
    if T.ndim == 1:
        T = T[:, None]
    if T.ndim != 2 or T.size == 0:
        raise DimensionMismatch("thetas must be a nonempty list of equal-length vectors")
    _require_finite(T, "thetas")
    _require_in_range(T, K, "thetas")
    grid = _integer_grid(T.shape[1], K)
    dots = grid @ T.T  # (points, vectors)
    dist = np.abs(dots - np.round(dots))
    dist[dist <= _snap_floor(np.abs(grid) @ np.abs(T.T))] = 0.0
    vals = dist.max(axis=1)
    return _finish_witness(grid, vals, gamma, K, "simultaneous")
