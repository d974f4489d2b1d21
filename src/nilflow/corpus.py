"""Seeded random corpora for experiments and property checks.

Each member is drawn from a generator keyed by (seed, index), so the draw for
member i never depends on how many members are requested or on evaluation
order.  A corpus is a sized sequence that draws member i when it is read and
keeps nothing, so a pass over it holds one member at a time and its memory
does not depend on the count; reading a member twice draws it twice, with
the same bits.
"""

import operator
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .cohomology import Cochain1, VfCochain, VfField, vf_delta0
from .nilrep import NilFunction, _require_rows
from .rigidity import FamilyCoordinates, section_s
from .torus import TorusFunction, _freqs, _readonly, _zeros


def member_rng(seed, index):
    """Generator for one corpus member."""
    return np.random.default_rng((int(seed), int(index)))


class _Corpus(Sequence):
    """count members, member i drawn by draw(member_rng(seed, i)) when read."""

    def __init__(self, seed, count, draw):
        self._seed = seed
        self._count = len(range(count))  # a negative count is empty, as range's
        self._draw = draw

    def __len__(self):
        return self._count

    def __getitem__(self, i):
        # range indexing normalizes a negative index and raises IndexError
        return self._draw(member_rng(self._seed, range(self._count)[operator.index(i)]))

    def __iter__(self):
        # not Sequence's loop to the first IndexError, which would end the
        # corpus early at an IndexError raised inside a draw
        return (self._draw(member_rng(self._seed, i)) for i in range(self._count))


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
    # a real block is conjugate-symmetric by construction, so the checked
    # constructor's symmetrization would change no bit
    return TorusFunction._exact(
        dim, _toral_block(rng, dim, degree, decay, real, zero_average), real
    )


def torus_corpus(seed, count, dim=2, degree=8, decay=3.0):
    """Corpus of real toral functions with zero average."""
    return _Corpus(seed, count, lambda rng: toral_function(rng, dim, degree, decay))


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
    standard_normal call.  The weighted parts are written straight into the
    block's real and imaginary views.  A block past the representation cap
    is refused before the plan, whose weights are as large, is built."""
    _require_rows(2 * n_max, length, (-n_max, 0))
    keys, ns, lengths, rows, weights = _rep_draw_plan(n_max, length, float(decay))
    if not keys:
        return keys, ns, lengths, None
    v = rng.standard_normal(2 * len(rows) * length).reshape(len(rows), 2, length)
    block = np.empty((len(rows), length), dtype=complex)
    block.real[rows] = weights * v[:, 0]
    block.imag[rows] = weights * v[:, 1]
    return keys, ns, lengths, block


def nil_function(rng, degree=8, n_max=4, length=8, decay=3.0,
                 zero_average=True):
    """One band-limited function on the nilmanifold: toral modes up to the
    given degree plus representation components for 0 < |n| <= n_max."""
    toral = _toral_block(rng, 2, degree, decay, real=False,
                         zero_average=zero_average)
    return NilFunction._from_rows(
        TorusFunction._exact(2, toral, False), *_rep_rows(rng, n_max, length, decay)
    )


def nil_corpus(seed, count, degree=8, n_max=4, length=8, decay=3.0):
    """Corpus of functions whose toral parts have zero average."""
    return _Corpus(
        seed, count, lambda rng: nil_function(rng, degree, n_max, length, decay)
    )


def cochain_corpus(seed, count, degree=6, n_max=3, length=8, decay=7.0):
    """Corpus of 1-cochains; components are independent decayed draws."""

    def draw(rng):
        f = nil_function(rng, degree, n_max, length, decay, zero_average=False)
        g = nil_function(rng, degree, n_max, length, decay, zero_average=False)
        return Cochain1(f, g)

    return _Corpus(seed, count, draw)


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
