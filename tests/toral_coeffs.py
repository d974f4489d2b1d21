"""The {k: c} reading of a TorusFunction's centred block, for assertions."""

import numpy as np


def coeffs(f):
    """The nonzero coefficients of f as {k: c}, k in sorted order."""
    idx = np.argwhere(f.block)
    return dict(zip(map(tuple, (idx - f.size).tolist()), f.block[tuple(idx.T)].tolist()))


def coeff(f, k):
    """c_k of f, 0j off the support."""
    return coeffs(f).get(tuple(int(x) for x in k), 0j)
