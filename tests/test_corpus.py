"""Seeded corpus draws: the dense draws reproduce the scalar reference loops
exactly, so seeded corpora and the acceptance data built on them are pinned."""

import numpy as np
import pytest

from nilflow.cohomology import Cochain1
from nilflow.corpus import (
    _toral_block,
    cochain_corpus,
    member_rng,
    nil_corpus,
    nil_function,
    toral_function,
    torus_corpus,
)
from nilflow.torus import TorusFunction

from toral_coeffs import coeffs


def scalar_toral_coeffs(rng, dim, degree, decay, real, zero_average):
    """Reference draw: one mode at a time, the first frequency component
    varying fastest, weights by scalar pow."""
    coeffs = {}
    for flat in range((2 * degree + 1) ** dim):
        k = []
        rem = flat
        for _ in range(dim):
            k.append(rem % (2 * degree + 1) - degree)
            rem //= 2 * degree + 1
        k = tuple(k)
        if real:
            lead = next((x for x in k if x != 0), 0)
            if lead <= 0:
                continue
            c = rng.standard_normal() + 1j * rng.standard_normal()
            w = (1.0 + sum(x * x for x in k)) ** (-decay / 2.0)
            coeffs[k] = w * c
            coeffs[tuple(-x for x in k)] = w * c.conjugate()
        else:
            if zero_average and all(x == 0 for x in k):
                continue
            c = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[k] = (1.0 + sum(x * x for x in k)) ** (-decay / 2.0) * c
    return coeffs


@pytest.mark.parametrize("dim,degree", [(1, 24), (2, 24), (3, 5)])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("zero_average", [True, False])
def test_dense_draw_matches_scalar_reference_exactly(dim, degree, real, zero_average):
    for index in range(4):
        ref_rng = member_rng(7, index)
        ref = scalar_toral_coeffs(ref_rng, dim, degree, 3.0, real, zero_average)
        rng = member_rng(7, index)
        if real:
            f = toral_function(rng, dim, degree, 3.0, zero_average)
        else:
            # the complex draw is nil_function's toral part
            f = TorusFunction(dim, _toral_block(rng, dim, degree, 3.0, False, zero_average))
        # exact equality, entry by entry: no tolerance
        assert coeffs(f) == ref
        # the draw consumed the stream exactly as far as the reference
        assert rng.standard_normal() == ref_rng.standard_normal()


def test_a_decay_that_zeroes_every_drawn_mode_is_refused():
    for draw in (lambda rng: toral_function(rng, 2, 3, 1e300),
                 lambda rng: nil_function(rng, degree=3, decay=1e300)):
        with pytest.raises(ValueError, match="decay = 1e[+]300 underflows"):
            draw(member_rng(0, 0))
    # the constant mode's weight is 1 at every decay
    F = nil_function(member_rng(0, 0), degree=3, decay=1e300, zero_average=False)
    assert F.toral.degree == 0 and not F.toral.is_zero()
    # weights that underflow past some degree leave the lower modes drawn
    assert toral_function(member_rng(0, 0), 1, 40, 400.0).degree > 0


def test_nil_function_toral_part_matches_scalar_reference():
    ref_rng = member_rng(3, 1)
    ref = scalar_toral_coeffs(ref_rng, 2, 6, 7.0, False, False)
    F = nil_function(member_rng(3, 1), degree=6, decay=7.0, zero_average=False)
    assert coeffs(F.toral) == ref


def scalar_rep_rows(rng, n_max, length, decay):
    """Reference draw of the representation rows: one row at a time in the
    order n = 1, -1, 2, -2, ..., real part then imaginary part."""
    reps = {}
    j = np.arange(length)
    for n in range(1, n_max + 1):
        for sign in (1, -1):
            w = (1.0 + n * n + n * (2 * j + 1)) ** (-decay / 2.0)
            reps[(sign * n, 0)] = w * (
                rng.standard_normal(length) + 1j * rng.standard_normal(length)
            )
    return reps


@pytest.mark.parametrize(
    "n_max,length", [(1, 1), (3, 5), (4, 8), (16, 64), (40, 32), (0, 8), (3, 0)]
)
def test_rep_rows_draw_matches_per_row_reference_exactly(n_max, length):
    for index in range(3):
        ref_rng = member_rng(11, index)
        scalar_toral_coeffs(ref_rng, 2, 4, 7.0, False, True)  # drawn first
        ref = scalar_rep_rows(ref_rng, n_max, length, 7.0)
        rng = member_rng(11, index)
        F = nil_function(rng, degree=4, n_max=n_max, length=length, decay=7.0)
        # empty vectors carry no row
        assert F.keys == tuple(sorted(key for key, v in ref.items() if len(v)))
        assert F.lengths.tolist() == [length] * len(F.keys)
        # bit for bit, row by row: no tolerance
        for key, v in F.reps.items():
            assert v.tobytes() == ref[key].tobytes()
        # the draw consumed the stream exactly as far as the reference
        assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("dim,degree", [(1, 24), (2, 8), (3, 3)])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("zero_average", [True, False])
def test_draw_wraps_the_bits_the_checked_constructor_gives(dim, degree, real, zero_average):
    # a draw skips the constructor's copy and reality test: a real block is
    # conjugate-symmetric by construction, and the constructor reads a
    # complex draw as complex
    for index in range(3):
        block = _toral_block(member_rng(5, index), dim, degree, 3.0, real, zero_average)
        checked = TorusFunction(dim, block)
        assert checked.real == real
        if real:
            f = toral_function(member_rng(5, index), dim, degree, 3.0, zero_average)
            assert f.real and f.n == checked.n
            assert f.block.tobytes() == checked.block.tobytes()
            assert not f.block.flags.writeable


@pytest.mark.parametrize("zero_average", [True, False])
def test_nil_function_wraps_the_toral_bits_the_checked_constructor_gives(zero_average):
    for index in range(3):
        block = _toral_block(member_rng(6, index), 2, 5, 3.0, False, zero_average)
        F = nil_function(member_rng(6, index), degree=5, zero_average=zero_average)
        assert F.toral.real is False
        assert F.toral.block.tobytes() == TorusFunction(2, block).block.tobytes()


def _bytes(member):
    """Every array of a corpus member, by bytes."""
    if isinstance(member, TorusFunction):
        return [member.block.tobytes()]
    if isinstance(member, Cochain1):
        return _bytes(member.f) + _bytes(member.g)
    return [member.toral.block.tobytes(), member.block.tobytes(), member.keys]


_CORPORA = {
    "torus": (lambda seed, count: torus_corpus(seed, count, degree=4),
              lambda rng: toral_function(rng, 2, 4, 3.0)),
    "nil": (lambda seed, count: nil_corpus(seed, count, degree=3, n_max=2, length=4),
            lambda rng: nil_function(rng, 3, 2, 4, 3.0)),
    "cochain": (lambda seed, count: cochain_corpus(seed, count, degree=2, n_max=2, length=3),
                lambda rng: Cochain1(*[nil_function(rng, 2, 2, 3, 7.0, zero_average=False)
                                       for _ in range(2)])),
}


@pytest.mark.parametrize("kind", sorted(_CORPORA))
def test_corpus_is_a_sized_sequence_drawn_as_it_is_read(kind):
    make, draw = _CORPORA[kind]
    corpus = make(9, 5)
    assert len(corpus) == 5 and len(make(9, 0)) == 0 and not make(9, 0)
    want = [_bytes(draw(member_rng(9, i))) for i in range(5)]
    # iteration draws member i from member_rng(seed, i)
    assert [_bytes(member) for member in corpus] == want
    # a read draws afresh, with the same bits; negative indices count from the end
    assert _bytes(corpus[3]) == _bytes(corpus[3]) == want[3]
    assert _bytes(corpus[-1]) == want[4] and _bytes(corpus[-5]) == want[0]
    for i in (5, -6):
        with pytest.raises(IndexError):
            corpus[i]
    with pytest.raises(TypeError):
        corpus[1.0]
    # member i does not depend on the count
    assert _bytes(make(9, 2)[1]) == want[1]
