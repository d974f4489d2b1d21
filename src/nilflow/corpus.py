"""Seeded random corpora for experiments and property checks.

Each member is drawn from a generator keyed by (seed, index), so the draw for
member i never depends on how many members are requested or on evaluation
order.
"""

from functools import lru_cache

import numpy as np

from .cohomology import Cochain1, VfCochain, VfField, vf_delta0
from .nilrep import NilFunction
from .rigidity import FamilyCoordinates, section_s
from .torus import TorusFunction, _freqs, _readonly, _zeros


def member_rng(seed, index):
    """Generator for one corpus member."""
    return np.random.default_rng((int(seed), int(index)))


@lru_cache(maxsize=16)
def _draw_plan(dim, degree, decay, real, zero_average):
    """Flat block positions of the drawn modes in draw order, the first
    frequency component varying fastest, and their weights (1+|k|^2)^(-decay/2).
    A real draw takes the modes with positive leading nonzero component (the
    upper half of the block in C order) and mirrors them.  The weights use
    scalar pow, which the seeded corpora are pinned to; numpy's vectorized
    power differs from it in the last bit."""
    side = 2 * degree + 1
    half = side**dim // 2
    idx = np.arange(side**dim).reshape((side,) * dim).ravel(order="F")
    if real:
        idx = idx[idx > half]
    elif zero_average:
        idx = idx[idx != half]
    norm2 = sum(k * k for k in _freqs(dim, degree)).ravel()
    values, inverse = np.unique(norm2[idx], return_inverse=True)
    pows = np.array([(1.0 + int(s)) ** (-decay / 2.0) for s in values])
    return _readonly(idx), _readonly(pows[inverse])


def _toral_block(rng, dim, degree, decay, real, zero_average):
    block = _zeros(dim, degree)
    idx, weight = _draw_plan(dim, degree, float(decay), real, zero_average)
    v = rng.standard_normal(2 * len(idx))
    block.reshape(-1)[idx] = weight * (v[0::2] + 1j * v[1::2])
    if real:
        block += np.conj(np.flip(block))
    return block


def toral_function(rng, dim=2, degree=8, decay=3.0, real=True, zero_average=True):
    """One band-limited function on the torus with Sobolev-decayed modes."""
    return TorusFunction(
        dim, _toral_block(rng, dim, degree, decay, real, zero_average), real=real
    )


def torus_corpus(seed, count, dim=2, degree=8, decay=3.0, real=True,
                 zero_average=True):
    return [
        toral_function(member_rng(seed, i), dim, degree, decay, real, zero_average)
        for i in range(count)
    ]


@lru_cache(maxsize=16)
def _rep_draw_plan(n_max, length, decay):
    """Row labels (n, 0) of a drawn function in block order, the block row of
    each draw in draw order n = 1, -1, 2, -2, ..., and the weights
    (1 + n^2 + n(2j+1))^(-decay/2) of the draws.  The weights are computed one
    frequency at a time, as the seeded corpora were drawn."""
    freqs = range(1, n_max + 1) if length else ()  # empty vectors carry no row
    drawn = [(sign * n, 0) for n in freqs for sign in (1, -1)]
    keys = tuple(sorted(drawn))
    j = np.arange(length)
    weights = [(1.0 + n * n + n * (2 * j + 1)) ** (-decay / 2.0)
               for n in freqs for _sign in (1, -1)]
    return (
        keys,
        _readonly(np.array([n for n, _m in keys], dtype=int)),
        _readonly(np.full(len(keys), length, dtype=int)),
        _readonly(np.array([keys.index(key) for key in drawn], dtype=int)),
        _readonly(np.array(weights)),
    )


def _rep_rows(rng, n_max, length, decay):
    """Row labels, frequencies, lengths and zero-padded block of one draw: the
    real then the imaginary part of each row in turn, from one
    standard_normal call."""
    keys, ns, lengths, rows, weights = _rep_draw_plan(n_max, length, float(decay))
    if not keys:
        return keys, ns, lengths, None
    v = rng.standard_normal(2 * len(rows) * length).reshape(len(rows), 2, length)
    block = np.empty((len(rows), length), dtype=complex)
    block[rows] = weights * (v[:, 0] + 1j * v[:, 1])
    return keys, ns, lengths, block


def nil_function(rng, degree=8, n_max=4, length=8, decay=3.0,
                 zero_average=True):
    """One band-limited function on the nilmanifold: toral modes up to the
    given degree plus representation components for 0 < |n| <= n_max."""
    toral = _toral_block(rng, 2, degree, decay, real=False,
                         zero_average=zero_average)
    return NilFunction._from_rows(
        TorusFunction(2, toral), *_rep_rows(rng, n_max, length, decay)
    )


def nil_corpus(seed, count, degree=8, n_max=4, length=8, decay=3.0,
               zero_average=True):
    return [
        nil_function(member_rng(seed, i), degree, n_max, length, decay,
                     zero_average)
        for i in range(count)
    ]


def cochain_corpus(seed, count, degree=6, n_max=3, length=8, decay=7.0):
    """Corpus of 1-cochains; components are independent decayed draws."""
    out = []
    for i in range(count):
        rng = member_rng(seed, i)
        f = nil_function(rng, degree, n_max, length, decay, zero_average=False)
        g = nil_function(rng, degree, n_max, length, decay, zero_average=False)
        out.append(Cochain1(f, g))
    return out


def vf_cocycle_member(rng, params, degree=3, decay=3.0, scale=1.0):
    """Perturbation tangent to the commuting deformations at params: the
    coboundary of a random coefficient change plus a random family direction.
    Generic cochains are not closed, so quadratic-convergence experiments draw
    from here."""

    def slot():
        f = toral_function(rng, 2, degree, decay, real=True, zero_average=False)
        return NilFunction(toral=f * scale)

    H = VfField((slot(), slot()), (slot(),))
    coords = FamilyCoordinates(
        scale * rng.standard_normal(),
        tuple(scale * rng.standard_normal() for _ in range(3)),
    )
    cob = vf_delta0(params, H)
    sec = section_s(params, coords)
    return VfCochain(cob.x1.add(sec.x1), cob.x2.add(sec.x2))


def restrict_frequencies(F, n_max):
    """Drop representation components with |n| above n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return F._cut(F.toral, n_max)
