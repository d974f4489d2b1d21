"""Dense reference matrices of the Hermite ladder, built from the package's
own bands: the oracle side of tests that compare a tridiagonal action or
solve with plain matrix algebra; and `act`, the package's action of one
named generator on one vector."""

import numpy as np

from nilflow.nilrep import _GENERATORS, _act, _bands


def dense_ladder(n, size, y, z=0.0):
    """The size x size matrix of y1*Y1 + y2*Y2 + z*Z at central frequency n.
    Truncation cuts the ladder after the last index, so a product of two such
    matrices differs from the truncated product in its last row."""
    sup, sub, diag = _bands(n, size, y, z)
    m = np.diag(np.full(size, diag, dtype=complex))
    i = np.arange(size - 1)
    m[i, i + 1] = sup
    m[i + 1, i] = sub
    return m


def dense_generator(gen, n, size):
    """`dense_ladder` of one named generator, "Y1", "Y2" or "Z"."""
    return dense_ladder(n, size, *_GENERATORS[gen])


def act(gen, n, v):
    """Generator "Y1", "Y2" or "Z" applied through `_act` to one Hermite vector
    at central frequency n; a ladder generator returns one entry more."""
    return _act([n], np.asarray(v, dtype=complex)[None, :], *_GENERATORS[gen])[0]
