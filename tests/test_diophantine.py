"""Small-divisor witnesses: exact minima, scaling, and frozen constants.

Expected constants come from an independent plain-loop enumeration kept in
comments next to each assertion.  The reduced linear-form enumeration is
checked against the whole-box enumeration kept here as an oracle.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nilflow import diophantine, torus
from nilflow.diophantine import (
    DiophantineWitness,
    _canonical,
    _snap_floor,
    fit_witness,
    min_small_divisor,
    simultaneous_witness,
)
from nilflow.errors import DimensionMismatch

PHI = (1 + math.sqrt(5)) / 2


def test_exact_resonance_half():
    k, value = min_small_divisor((1, 0.5), 2)
    assert k == (1, -2)
    assert value == 0.0


def test_single_integer_direction():
    for K in (1, 5, 40):
        k, value = min_small_divisor((1,), K)
        assert value == 1.0
        assert k == (1,)


def test_fibonacci_argmin():
    # plain-loop oracle at K=100: min 0.00813061875578569 at +-(89, -55)
    k, value = min_small_divisor((1, PHI), 100)
    assert k == (89, -55)
    assert value == pytest.approx(0.00813061875578569, rel=1e-14)
    # consecutive Fibonacci magnitudes with opposite signs
    assert (abs(k[1]), abs(k[0])) == (55, 89)


def test_scaling_by_constant():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.normal(size=2)
        t = float(rng.uniform(0.5, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
        k1, v1 = min_small_divisor(a, 12)
        k2, v2 = min_small_divisor(t * a, 12)
        assert k1 == k2
        assert v2 == pytest.approx(abs(t) * v1, rel=1e-12)


def test_huge_k_rejected():
    with pytest.raises(ValueError):
        min_small_divisor((1, PHI), 10_000)
    with pytest.raises(ValueError):
        min_small_divisor((1, PHI), 0)
    with pytest.raises(DimensionMismatch):
        min_small_divisor([], 5)


def test_invalid_witness_at_resonance():
    w = fit_witness((1, 0.5), gamma=1.0, K=4)
    assert not w.valid
    assert w.C == 0.0
    assert w.argmin_k == (1, -2)
    assert w.kind == "linear-form"


def test_unit_witness():
    w = fit_witness((1,), gamma=0.0, K=10)
    assert w.valid
    assert w.C == 1.0


def test_golden_ratio_witness_plateau():
    # plain-loop oracle: C(50)=0.850650841705575, C(100)=0.850650809062256,
    # C(200)=0.850650808457344; argmins are Fibonacci pairs
    w50 = fit_witness((1, PHI), gamma=1.0, K=50)
    w100 = fit_witness((1, PHI), gamma=1.0, K=100)
    w200 = fit_witness((1, PHI), gamma=1.0, K=200)
    assert w50.C == pytest.approx(0.850650841705575, rel=1e-13)
    assert w100.C == pytest.approx(0.850650809062256, rel=1e-13)
    assert w200.C == pytest.approx(0.850650808457344, rel=1e-13)
    assert w100.argmin_k == (89, -55)
    assert w200.argmin_k == (144, -89)
    assert w200.value == pytest.approx(5.024999e-03, rel=1e-5)
    assert abs(w200.C - w100.C) / w200.C < 0.01


def test_monotone_in_k():
    for gamma in (0.5, 1.0, 2.0):
        prev = None
        for K in (10, 25, 50, 100):
            w = fit_witness((1, PHI), gamma=gamma, K=K)
            if prev is not None:
                assert w.C <= prev + 1e-15
            prev = w.C


def test_gamma_validation():
    with pytest.raises(ValueError):
        fit_witness((1, PHI), gamma=-0.5, K=10)


def test_norm_conventions_recorded():
    w = fit_witness((1, PHI), gamma=1.0, K=10)
    # the product norm is Euclidean, the enumeration bound a sup norm
    assert w.lower_bound((3, 4)) == w.C * 5.0**-1.0
    assert w.K == 10
    assert w.gamma == 1.0


def test_witness_lower_bound_holds_on_grid():
    w = fit_witness((1, PHI), gamma=1.0, K=60)
    for k1 in range(-60, 61):
        for k2 in range(-60, 61):
            if k1 == k2 == 0:
                continue
            assert abs(k1 + k2 * PHI) >= w.lower_bound((k1, k2)) - 1e-15


def test_simultaneous_single_golden():
    # plain-loop oracle: C = 0.3819660112501051 at m = +-1
    w = simultaneous_witness([(PHI,)], gamma=1.0, K=50)
    assert w.kind == "simultaneous"
    assert w.valid
    assert w.C == pytest.approx(0.3819660112501051, rel=1e-13)
    assert w.argmin_k == (1,)


def test_simultaneous_matches_distance_form():
    # same minimization as a one-vector product over the distance to integers
    K, gamma = 50, 1.0
    best = min(
        (abs(m * PHI - round(m * PHI)) * abs(m) ** gamma, abs(m))
        for m in range(1, K + 1)
    )
    w = simultaneous_witness([(PHI,)], gamma=gamma, K=K)
    assert w.C == pytest.approx(best[0], rel=1e-13)


def test_simultaneous_rational_invalid():
    w = simultaneous_witness([(1 / 3,)], gamma=1.0, K=5)
    assert not w.valid
    assert w.C == 0.0
    assert abs(w.argmin_k[0]) == 3  # denominator frequency


def test_simultaneous_max_dominates_each():
    # plain-loop oracle for the pair: C = 0.41421356237309515
    gamma, K = 1.0, 50
    joint = simultaneous_witness([(PHI,), (math.sqrt(2),)], gamma=gamma, K=K)
    assert joint.C == pytest.approx(0.41421356237309515, rel=1e-13)
    for theta in ((PHI,), (math.sqrt(2),)):
        single = simultaneous_witness([theta], gamma=gamma, K=K)
        assert joint.C >= single.C - 1e-15


def test_simultaneous_two_dimensional_vectors():
    # 2-vector thetas: enumeration over integer pairs m
    w = simultaneous_witness([(PHI, math.sqrt(2))], gamma=0.0, K=8)
    best = 1.0
    for m1 in range(-8, 9):
        for m2 in range(-8, 9):
            if m1 == m2 == 0:
                continue
            d = m1 * PHI + m2 * math.sqrt(2)
            best = min(best, abs(d - round(d)))
    assert w.C == pytest.approx(best, rel=1e-12)


def test_witness_dataclass_validity_flag():
    w = DiophantineWitness(
        C=0.0, gamma=1.0, K=5, kind="linear-form", argmin_k=(1, -2), value=0.0
    )
    assert not w.valid
    assert DiophantineWitness(
        C=0.5, gamma=1.0, K=5, kind="linear-form", argmin_k=(1, 1), value=0.5
    ).valid


def _full_box_witness(a, gamma, K):
    # the whole (2K+1)^n box in lexicographic order, scored as fit_witness scores
    a = np.asarray(a, dtype=float)
    axes = [np.arange(-K, K + 1)] * a.size
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, a.size)
    grid = grid[np.any(grid != 0, axis=1)]
    vals = np.abs(grid @ a)
    vals[vals <= _snap_floor(np.abs(grid) @ np.abs(a))] = 0.0
    norms = np.linalg.norm(grid, axis=1)
    product = vals * norms**gamma
    # ties go to the shortest k, then to the first in the box
    ties = np.flatnonzero(product == product.min())
    i = ties[np.argmin(norms[ties])]
    return DiophantineWitness(
        C=float(product[i]) if vals[i] > 0 else 0.0,
        gamma=float(gamma),
        K=int(K),
        kind="linear-form",
        argmin_k=_canonical(grid[i]),
        value=float(vals[i]),
    )


_ORACLE_K = {2: (1, 2, 7, 40), 3: (1, 3, 12), 4: (1, 2, 5)}


def _oracle_vectors(n, rng):
    yield rng.normal(size=n)  # generic
    yield rng.integers(-5, 6, n) * rng.normal()  # rationally dependent
    yield rng.integers(-8, 9, n) / 4  # quarter grid: exact resonances
    yield rng.integers(-9, 10, n) / 10  # tenths: resonances only the snap finds
    yield rng.normal(size=n) * (np.arange(n) % 2)  # zero entries
    yield -np.abs(rng.normal(size=n))  # all negative
    yield np.full(n, rng.normal())  # equal entries: argmins tie beyond +-k
    yield np.zeros(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reduced_enumeration_matches_full_box(n):
    rng = np.random.default_rng(100 + n)
    resonant = 0
    for a in _oracle_vectors(n, rng):
        for K in _ORACLE_K[n]:
            for gamma in (0.0, 0.5, 1.0, 2.0):
                w = fit_witness(a, gamma, K)
                assert w == _full_box_witness(a, gamma, K), (a, gamma, K)
                resonant += not w.valid
    assert resonant > 0  # the C = 0 cases were reached


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_reduced_enumeration_matches_full_box_at_the_benchmark_vector(gamma):
    # the witness-linear vector of the benchmark, against the int64 oracle box
    a = (1.0, math.sqrt(2), math.sqrt(3))
    assert fit_witness(a, gamma, 24) == _full_box_witness(a, gamma, 24)


@pytest.mark.parametrize("K", [1, 2, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_grids_are_float64_and_never_hold_zero(n, K):
    full = diophantine._integer_grid(n, K)
    assert full.dtype == np.float64 and len(full) == (2 * K + 1) ** n - 1
    assert np.all(np.any(full != 0, axis=1))
    rng = np.random.default_rng(10 * n + K)
    for sign in (1.0, -1.0):
        a = rng.normal(size=n)
        j = int(np.argmax(np.abs(a)))
        a[j] = sign * abs(a[j])
        grid = diophantine._reduced_grid(a, j, K)
        assert grid.dtype == np.float64
        assert np.all(np.any(grid != 0, axis=1))
        assert np.array_equal(grid, np.round(grid)) and np.abs(grid).max() <= K
        assert len(np.unique(grid, axis=0)) == len(grid)
        # off axis j the box's centre k' = 0 keeps k_j in {-1, 1, 2}
        centre = grid[~np.any(np.delete(grid, j, axis=1) != 0, axis=1)]
        assert sorted(centre[:, j]) == [x for x in (-1, 1, 2) if x <= K]
        # as do the unit vectors e_i, i != j, which score |a_i| <= |a_j|
        for i in range(n):
            if i != j:
                assert np.any(np.all(grid == np.eye(n)[i], axis=1))


def test_reduced_enumeration_falls_back_to_full_box(monkeypatch):
    calls = []
    full = diophantine._integer_grid

    def counted(n, K):
        calls.append((n, K))
        return full(n, K)

    monkeypatch.setattr(diophantine, "_integer_grid", counted)
    # the reduced grid answers for every n >= 2 with |a_j| above the roundoff
    # floor, also where the minimum 0.5 at (0, 1) is |a_j|/2 ...
    w = fit_witness((1, 0.5), 1.0, 1)
    assert w == _full_box_witness((1, 0.5), 1.0, 1)
    assert (w.argmin_k, w.C) == ((0, 1), 0.5)
    # ... and for the golden vector at gamma = 1, where C is about 0.85
    assert fit_witness((1, PHI), 1.0, 50) == _full_box_witness((1, PHI), 1.0, 50)
    assert calls == []
    # n = 1 and the zero vector read the whole box; a tiny vector clears its
    # relative floor and takes the reduced grid
    for a, K in (((2.5,), 5), ((0.0, 0.0, 0.0), 3), ((3e-16, -1e-16), 4)):
        assert fit_witness(a, 1.0, K) == _full_box_witness(a, 1.0, K)
    assert calls == [(1, 5), (3, 3)]


_SCALE_VECTORS = [
    (1.0, PHI),
    (1.0, math.sqrt(2), math.sqrt(3)),
    (1.0, 0.5),  # resonant at (1, -2)
    (0.1, 0.2, -0.3),  # tenths: resonant at (1, 1, 1) only through the snap
]


@pytest.mark.parametrize("m", [-64, 64])
def test_resonance_rule_is_scale_invariant(m):
    # scaling by a power of two is exact, so a relative floor changes nothing
    rng = np.random.default_rng(2024)
    vectors = _SCALE_VECTORS + [tuple(rng.normal(size=n)) for n in (2, 3)]
    t = 2.0**m
    for a in vectors:
        a = np.array(a)
        K = 30 if a.size == 2 else 8
        for gamma in (0.0, 1.0):
            w, ws = fit_witness(a, gamma, K), fit_witness(t * a, gamma, K)
            assert (ws.argmin_k, ws.valid) == (w.argmin_k, w.valid), (a, m)
            assert (ws.C, ws.value) == (t * w.C, t * w.value), (a, m)
        ka, floor = torus._divisors(tuple(a), 6)
        kas, floors = torus._divisors(tuple(t * a), 6)
        np.testing.assert_array_equal(np.abs(kas) <= floors, np.abs(ka) <= floor)
    assert not fit_witness((0.1, 0.2, -0.3), 0.0, 1).valid


def test_reduced_enumeration_stays_small():
    tracemalloc.start()
    try:
        w = fit_witness((1, math.sqrt(2), math.sqrt(3)), 1.0, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole 129^3 box takes about 200 MB
    assert peak < 16 * 2**20
    # whole-box oracle: C = 0.002334506186756097 at +-(1, -35, 28)
    assert w.argmin_k == (1, -35, 28)
    assert w.C == pytest.approx(0.002334506186756097, rel=1e-14)


@pytest.mark.parametrize(
    "a, K, match",
    [((1, PHI, 2.0, 3.0), 64, "too large"), ((1, PHI), 513, "enumeration cap")],
)
def test_enumeration_refusals_fire_before_allocation(a, K, match):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            fit_witness(a, 1.0, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_refused(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            fit_witness((1.0, bad), 1.0, 8)
        with pytest.raises(ValueError, match="finite"):
            min_small_divisor((bad, 1.0, 2.0), 8)
        with pytest.raises(ValueError, match="finite"):
            simultaneous_witness([(bad,)], 1.0, 8)
        with pytest.raises(ValueError, match="finite"):
            simultaneous_witness([(PHI, 0.5), (1.0, bad)], 1.0, 8)
        with pytest.raises(ValueError, match="finite"):
            fit_witness((1.0, PHI), abs(bad), 8)
        with pytest.raises(ValueError, match="finite"):
            simultaneous_witness([(PHI,)], abs(bad), 8)


def test_lower_bound_is_refused_outside_the_certified_range():
    for gamma in (0.0, 1.0):
        w = fit_witness((1, PHI), gamma, 8)
        assert w.lower_bound((8, -3)) == pytest.approx(w.C * math.hypot(8, -3) ** -gamma, rel=1e-15)
        for k in ((0, 0), (100, 0), (0, -9), (math.nan, 1)):
            with pytest.raises(ValueError, match="K = 8"):
                w.lower_bound(k)


def test_overflowing_dot_products_are_refused():
    # finite entries whose dot products up to K leave the float range used
    # to snap to a false resonance: C = 0 at (1, 1) for (1e308, -phi 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in ((1e308, -PHI * 1e308), (1e308, -1.5e308), (1.0, 1e308 / 3), (1e308,)):
            with pytest.raises(ValueError, match="overflow"):
                fit_witness(a, 1.0, 3)
        with pytest.raises(ValueError, match="overflow"):
            min_small_divisor((1e308, -1.5e308), 3)
        with pytest.raises(ValueError, match="overflow"):
            simultaneous_witness([(1e308, -1.5e308)], 1.0, 3)
        with pytest.raises(ValueError, match="overflow"):
            simultaneous_witness([(0.5,), (1e308,)], 1.0, 2)
        # the bound K * n * max|a| decides: just inside it the witness stands
        w = fit_witness((1e307, -PHI * 1e307), 1.0, 3)
        assert w.argmin_k == fit_witness((1.0, -PHI), 1.0, 3).argmin_k == (3, 2)
        assert w.C > 0
        assert simultaneous_witness([(1e307, -1.5e307)], 1.0, 3).K == 3
