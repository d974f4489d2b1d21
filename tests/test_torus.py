"""Toral solver, norms, pullback, averages, and the Newton conjugacy loop."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nilflow import torus
from nilflow.algebra import ActionParams
from nilflow.cohomology import joint_kernel_dim
from nilflow.corpus import member_rng, toral_function
from nilflow.errors import (
    DimensionMismatch,
    NoConvergence,
    NonInvertible,
    NonzeroAverage,
    Resonance,
)
from nilflow.nilrep import NilFunction
from nilflow.rigidity import nil_multiply
from nilflow.torus import (
    KamState,
    TorusFunction,
    TorusVectorField,
    directional_derivative,
    kam_iterate,
    kam_step,
    sobolev_norm,
    solve_small_divisor,
    verify_conjugacy,
)

from oracles import birkhoff_average, composed_displacement
from toral_coeffs import coeff, coeffs

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = (1.0, PHI)


def random_real_function(rng, n=2, K=5, decay=0.0):
    """Random real band-limited function; coefficients may decay in degree."""
    coeffs = {}
    for k1 in range(-K, K + 1):
        for k2 in range(-K, K + 1):
            if (k1, k2) <= (0, 0):
                continue
            c = complex(rng.normal(), rng.normal())
            c /= (1.0 + k1 * k1 + k2 * k2) ** (decay / 2)
            coeffs[(k1, k2)] = c
            coeffs[(-k1, -k2)] = c.conjugate()
    return TorusFunction(n, coeffs)


def sine_mode(n, k, amplitude):
    # amplitude * sin(2 pi k.x)
    c = amplitude / 2j
    return TorusFunction(
        n, {tuple(k): c, tuple(-x for x in k): c.conjugate()}
    )


def test_sine_mode_helper_is_sine():
    f = sine_mode(2, (1, 1), 1.0)
    x = np.array([0.13, 0.41])
    assert f.evaluate(x) == pytest.approx(math.sin(2 * math.pi * (x[0] + x[1])), abs=1e-12)


# ---------------------------------------------------------------------------
# derivative and solver


def test_derivative_of_constant_is_zero():
    f = TorusFunction.constant(2, 3.5)
    assert not coeffs(directional_derivative(GOLDEN, f))


def test_derivative_single_mode():
    f = TorusFunction(2, {(1, 0): 1.0})
    g = directional_derivative(GOLDEN, f)
    assert coeff(g, (1, 0)) == pytest.approx(2j * math.pi)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(10)
    f = random_real_function(rng, K=5)
    g = directional_derivative(GOLDEN, f)
    alpha = np.array(GOLDEN)
    h = 1e-5
    pts = rng.uniform(size=(40, 2))
    exact = g.evaluate(pts)
    quot = (f.evaluate(pts + h * alpha) - f.evaluate(pts - h * alpha)) / (2 * h)
    assert np.max(np.abs(exact - quot)) < 1e-6 * max(1.0, np.max(np.abs(exact)))


def test_solve_single_mode_forced_division():
    f = TorusFunction(2, {(1, 0): 1.0})
    h = solve_small_divisor(GOLDEN, f)
    assert coeff(h, (1, 0)) == pytest.approx(1.0 / (2j * math.pi))


def test_solve_rejects_nonzero_average():
    f = TorusFunction(2, {(0, 0): 1.0, (1, 0): 1.0})
    with pytest.raises(NonzeroAverage, match=re.escape("average (1+0j) exceeds")):
        solve_small_divisor(GOLDEN, f)


def test_solve_flags_resonance():
    f = TorusFunction(2, {(1, -2): 1.0})
    with pytest.raises(Resonance, match=re.escape("resonant frequency (1, -2) ")):
        solve_small_divisor((1.0, 0.5), f)


def test_solve_then_derivative_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(5):
        h0 = random_real_function(rng, K=6)
        f = directional_derivative(GOLDEN, h0)
        h = solve_small_divisor(GOLDEN, f)
        err = sobolev_norm(h - h0, 0)
        assert err <= 1e-12 * sobolev_norm(h0, 0)
        assert h.real


def test_derivative_then_solve_roundtrip():
    rng = np.random.default_rng(12)
    f = random_real_function(rng, K=6)
    f0 = f - TorusFunction.constant(2, f.average)
    h = solve_small_divisor(GOLDEN, f0)
    back = directional_derivative(GOLDEN, h)
    assert sobolev_norm(back - f0, 0) <= 1e-12 * sobolev_norm(f0, 0)


# ---------------------------------------------------------------------------
# norms


def test_norm_of_constant_one():
    f = TorusFunction.constant(2, 1.0)
    for r in (-2.0, 0.0, 1.0, 3.5):
        assert sobolev_norm(f, r) == pytest.approx(1.0)


def test_norm_single_mode_weight():
    f = TorusFunction(2, {(3, -1): 2.0})
    for r in (0.0, 1.0, 2.0):
        assert sobolev_norm(f, r) == pytest.approx(2.0 * (1 + 9 + 1) ** (r / 2))


def test_norm_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(20):
        f = random_real_function(rng, K=4)
        g = random_real_function(rng, K=4)
        r = float(rng.uniform(-1, 3))
        assert sobolev_norm(f + g, r) <= sobolev_norm(f, r) + sobolev_norm(g, r) + 1e-12


def test_norm_zero_matches_grid_l2():
    # Parseval against a plain grid quadrature
    rng = np.random.default_rng(14)
    f = random_real_function(rng, K=4)
    G = 32
    vals = f.grid_values(G)
    l2 = math.sqrt(float(np.mean(np.abs(vals) ** 2)))
    assert sobolev_norm(f, 0) == pytest.approx(l2, rel=1e-10)


def test_grid_roundtrip():
    rng = np.random.default_rng(15)
    f = random_real_function(rng, K=5)
    g = TorusFunction.from_grid(f.grid_values(16), 5)
    assert sobolev_norm(f - g, 0) < 1e-12 * sobolev_norm(f, 0)


# ---------------------------------------------------------------------------
# tame ratios


def tame_ratio(f, r, sigma):
    """||h||_r / ||f||_{r+sigma} for the solution h of GOLDEN.grad h = f."""
    return sobolev_norm(solve_small_divisor(GOLDEN, f), r) / sobolev_norm(f, r + sigma)


def test_tame_ratio_single_modes_closed_form():
    gamma, sigma = 1.0, 2.0
    modes = [(1, 0), (0, 1), (2, -1), (5, -3), (8, -5)]
    ratios = [tame_ratio(TorusFunction(2, {k: 1.0}), 1.0, sigma) for k in modes]
    for k, ratio in zip(modes, ratios):
        ka = abs(k[0] + k[1] * PHI)
        expect = (2 * math.pi * ka) ** -1 * (1 + k[0] ** 2 + k[1] ** 2) ** (-sigma / 2)
        assert ratio == pytest.approx(expect, rel=1e-12)
    from nilflow.diophantine import fit_witness

    w = fit_witness(GOLDEN, gamma=gamma, K=8)
    assert max(ratios) <= 1.0 / (2 * math.pi * w.C)


def test_tame_ratio_plateau_on_random_corpus():
    rng = np.random.default_rng(16)
    sigma = 2.0  # witness exponent gamma=1 plus one
    # coefficient decay keeps the (r + sigma)-norm summable, so truncation
    # tails are small and the worst ratio stabilizes in the degree
    corpus = [random_real_function(rng, K=16, decay=5.0) for _ in range(50)]
    worst = {D: max(tame_ratio(f.truncated(D), 1.0, sigma) for f in corpus) for D in (8, 16)}
    assert abs(worst[16] - worst[8]) < 0.10 * worst[16]


# ---------------------------------------------------------------------------
# pullback


def pullback(u, X, out_degree=None):
    """X pulled back under id + u, re-expanded at out_degree (twice the input
    degree by default) from a grid of 4 points per input mode that also
    re-expands out_degree without aliasing."""
    K_in = max(u.degree, X.degree, 1)
    out_degree = out_degree or 2 * K_in
    G = max(4 * K_in, 2 * out_degree + 2, 8)
    return torus._field_from_grid(torus._pulled_back(u, X, G)[0].T, G, out_degree)


def test_pullback_identity_change():
    u = TorusVectorField.zero(2)
    X = TorusVectorField(
        [sine_mode(2, (1, 0), 0.3), TorusFunction.constant(2, 1.0)]
    )
    Y = pullback(u, X)
    for xc, yc in zip(X.components, Y.components):
        assert sobolev_norm(yc - xc, 0) < 1e-13


def test_pullback_constant_field_identity_change():
    Y = pullback(TorusVectorField.zero(2), TorusVectorField.constant((1.0, PHI)))
    assert Y.average() == pytest.approx((1.0, PHI))
    assert Y.degree == 0


def test_pullback_single_mode_against_dense_grid():
    eps = 0.02
    u = TorusVectorField([sine_mode(2, (1, 1), eps), TorusFunction.constant(2, 0.0)])
    X = TorusVectorField.constant((1.0, PHI))
    # the exact pullback has harmonics at every multiple of (1,1); a wide
    # window keeps the geometric tail below the comparison tolerance
    Y = pullback(u, X, out_degree=12)
    # direct evaluation of (I + Du)^-1 X at off-grid points
    rng = np.random.default_rng(17)
    pts = rng.uniform(size=(60, 2))
    got = np.stack(Y._component_values(pts), axis=-1)
    c = 2 * math.pi * eps * np.cos(2 * math.pi * (pts[:, 0] + pts[:, 1]))
    for i, p in enumerate(pts):
        A = np.array([[1 + c[i], c[i]], [0, 1]])
        expect = np.linalg.solve(A, np.array([1.0, PHI]))
        assert np.max(np.abs(got[i] - expect)) < 1e-8


def test_pullback_rejects_large_displacement():
    u = TorusVectorField(
        [TorusFunction.constant(2, 0.6), TorusFunction.constant(2, 0.0)]
    )
    with pytest.raises(NonInvertible):
        pullback(u, TorusVectorField.constant((1.0, PHI)))
    v = TorusVectorField([sine_mode(2, (1, 1), 0.2), TorusFunction.constant(2, 0.0)])
    with pytest.raises(NonInvertible):
        # Jacobian amplitude 2 pi * 0.2 > 1/2
        pullback(v, TorusVectorField.constant((1.0, PHI)))


# ---------------------------------------------------------------------------
# Newton conjugacy iteration


def golden_perturbation(eps):
    return TorusVectorField(
        [sine_mode(2, (1, 1), eps), TorusFunction.constant(2, 0.0)]
    )


def test_kam_zero_perturbation():
    state = kam_iterate(GOLDEN, TorusVectorField.zero(2), floor=1e-12)
    assert state.lambda_bar == (0.0, 0.0)
    assert state.u_acc.is_zero()
    assert state.residual == 0.0
    assert state.verified_sup_error <= 1e-12


def test_kam_constant_perturbation_is_parameter_shift():
    c = (2e-3, -1e-3)
    state = kam_step(KamState.initial(GOLDEN, TorusVectorField.constant(c)))
    assert state.lambda_bar == pytest.approx(c, abs=1e-15)
    assert state.u_acc.is_zero()
    assert state.residual == 0.0


def test_kam_golden_converges_quadratically():
    state = kam_iterate(GOLDEN, golden_perturbation(1e-3), floor=1e-12, trunc_degree=64)
    hist = state.residual_history
    assert len(hist) - 1 <= 6
    assert state.residual < 1e-12
    assert state.verified_sup_error <= 1e-11
    # log-log slope over the pre-floor segment
    pre = [r for r in hist if r > 1e-15]
    slopes = [
        (math.log(pre[i + 2]) - math.log(pre[i + 1]))
        / (math.log(pre[i + 1]) - math.log(pre[i]))
        for i in range(len(pre) - 2)
    ]
    assert slopes, "need at least three pre-floor residuals"
    for s in slopes:
        assert 1.7 <= s <= 2.3


def test_kam_defect_off_the_verification_grid():
    # verified_sup_error is a maximum sampled on a grid; evaluate the defect
    # |(I + Du)^-1 (omega - lambda + beta0(x + u(x))) - omega| directly at
    # random points, for the field `kam` draws at degree 6, amplitude 3e-3,
    # seed 0
    floor = 1e-12
    beta = TorusVectorField([toral_function(member_rng(0, i), 2, 6, 3.0) * 3e-3 for i in range(2)])
    state = kam_iterate(GOLDEN, beta, floor=floor, trunc_degree=64)
    pts = np.random.default_rng(1).uniform(0.0, 1.0, size=(20000, 2))
    u = state.u_acc
    shift = np.stack(u._component_values(pts), axis=-1)
    jac = np.stack(
        [np.stack([c.partial(j).evaluate(pts) for j in range(2)], -1) for c in u.components], -2
    )
    omega = np.asarray(GOLDEN)
    beta0 = np.stack(state.beta0._component_values(pts + shift), axis=-1)
    field = omega - np.asarray(state.lambda_bar) + beta0
    pulled = np.linalg.solve(np.eye(2) + jac, field[..., None])[..., 0]
    off_grid = float(np.max(np.abs(pulled - omega)))
    assert off_grid <= 10 * floor, (
        "off-grid defect %.3e, %.2f times the grid's %.3e"
        % (off_grid, off_grid / state.verified_sup_error, state.verified_sup_error)
    )


def test_kam_residuals_decrease():
    state = kam_iterate(GOLDEN, golden_perturbation(1e-3), floor=1e-12)
    hist = state.residual_history
    for a, b in zip(hist, hist[1:]):
        assert b < a


def test_kam_step_maintains_conjugacy_identity():
    state = KamState.initial(GOLDEN, golden_perturbation(1e-3), trunc_degree=64)
    state = kam_step(state)
    # the stored residual is the pullback defect of the original member
    err = verify_conjugacy(state)
    assert err <= 10 * state.residual + 1e-13


def test_verify_conjugacy_refuses_noninvertible_change():
    state = kam_step(KamState.initial(GOLDEN, golden_perturbation(1e-3), trunc_degree=16))
    with pytest.raises(NonInvertible):
        u = TorusVectorField([c * 1e6 for c in state.u_acc.components])
        verify_conjugacy(replace(state, u_acc=u))


def test_kam_large_perturbation_fails_gracefully():
    # amplitude 1.0 forces a coordinate change whose Jacobian row sums
    # exceed the invertibility guard on the first step
    with pytest.raises(NoConvergence) as exc:
        kam_iterate(GOLDEN, golden_perturbation(1.0), floor=1e-12)
    assert exc.value.state is not None
    assert exc.value.state.residual_history is not None


def test_kam_resonant_frequency_rejected():
    # the message names the resonant mode
    with pytest.raises(Resonance, match=re.escape("up to degree 64, at k = (1, -2)")):
        kam_iterate((1.0, 0.5), golden_perturbation(1e-3), floor=1e-12)


# ---------------------------------------------------------------------------
# time averages


def test_birkhoff_constant():
    f = TorusFunction.constant(2, 2.5)
    for T in (1.0, 10.0, 1e4):
        assert birkhoff_average(GOLDEN, f, (0.1, 0.7), T) == pytest.approx(2.5)


def test_birkhoff_single_mode_bound():
    f = TorusFunction(2, {(1, 0): 0.5, (-1, 0): 0.5})
    for T in (10.0, 100.0, 1e4):
        avg = birkhoff_average(GOLDEN, f, (0.0, 0.0), T)
        assert abs(avg) <= 2 * 0.5 / (2 * math.pi * 1.0 * T) + 1e-15


def test_birkhoff_converges_to_mean():
    rng = np.random.default_rng(18)
    f = random_real_function(rng, K=4) + TorusFunction.constant(2, 0.37)
    sup = float(np.max(np.abs(f.grid_values(64))))
    avg = birkhoff_average(GOLDEN, f, (0.21, 0.59), T=1e4)
    assert abs(avg - f.average) <= 1e-3 * sup


def test_birkhoff_linear_and_window_invariant():
    rng = np.random.default_rng(19)
    f = random_real_function(rng, K=3)
    g = random_real_function(rng, K=3)
    x0, T = (0.3, 0.8), 50.0
    left = birkhoff_average(GOLDEN, f + g, x0, T)
    right = birkhoff_average(GOLDEN, f, x0, T) + birkhoff_average(GOLDEN, g, x0, T)
    assert left == pytest.approx(right, abs=1e-13)


def _birkhoff_per_mode(alpha, f, x0, T):
    # reference: the per-mode loop the block expression replaced
    total = 0j
    for k, c in coeffs(f).items():
        ka = float(np.dot(k, alpha))
        phase = c * np.exp(2j * np.pi * np.dot(k, x0))
        floor = 8 * np.finfo(float).eps * sum(abs(ki * ai) for ki, ai in zip(k, alpha))
        if abs(ka) <= floor:
            total += phase
        else:
            z = 2j * np.pi * ka * T
            total += phase * (np.exp(z) - 1.0) / z
    return float(total.real) if f.real else complex(total)


def _random_block_function(rng, n, D, real):
    block = rng.standard_normal((2 * D + 1,) * n) + 1j * rng.standard_normal((2 * D + 1,) * n)
    if real:
        block = block + np.conj(np.flip(block))
    return TorusFunction(n, block)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize(
    "alpha, x0",
    [(GOLDEN, (0.3, 0.8)), ((1.0, PHI, math.sqrt(2)), (0.1, 0.45, 0.9)), ((1.0, 0.5), (0.2, 0.6))],
    ids=["golden-T2", "T3", "resonant-T2"],
)
def test_birkhoff_matches_the_per_mode_loop(alpha, x0, real):
    rng = np.random.default_rng(23)
    f = _random_block_function(rng, len(alpha), 3, real)
    bound = 1e-12 * float(np.sum(np.abs(f.block)))
    for T in (0.7, 50.0, 1e4):
        avg = birkhoff_average(alpha, f, x0, T)
        assert isinstance(avg, float) == real
        assert abs(avg - _birkhoff_per_mode(alpha, f, x0, T)) <= bound


def test_birkhoff_keeps_a_resonant_mode_whole():
    # k.alpha = 0 for k = (1, -2) at alpha = (1, 0.5): the mode is constant
    # along the flow, so its time average is its value at x0 for every T
    f = TorusFunction(2, {(1, -2): 0.7 - 0.2j})
    x0 = (0.2, 0.6)
    value = (0.7 - 0.2j) * np.exp(2j * np.pi * (0.2 - 1.2))
    for T in (0.7, 1e4):
        assert birkhoff_average((1.0, 0.5), f, x0, T) == pytest.approx(value, abs=1e-15)


def test_birkhoff_validates_arguments():
    f = TorusFunction.constant(2, 1.0)
    with pytest.raises(ValueError):
        birkhoff_average(GOLDEN, f, (0, 0), -1.0)


# ---------------------------------------------------------------------------
# coefficient block: read-only, degree, other dimensions, size cap


def test_block_is_read_only():
    f = sine_mode(2, (1, 2), 1.0)
    with pytest.raises(ValueError):
        f.block[0, 0] = 1.0
    assert coeffs(f) == {(1, 2): 0.5 / 1j, (-1, -2): (0.5 / 1j).conjugate()}
    assert not hasattr(f, "coeffs") and not hasattr(f, "coeff")


def test_coeffs_view_omits_exact_zeros():
    # exact zeros given in a map are not support
    f = TorusFunction(2, {(3, 0): 0.0, (1, 0): 1.0, (0, 0): 0.0})
    assert coeffs(f) == {(1, 0): 1.0} and f.size == 1 and f.degree == 1
    assert coeffs(TorusFunction(2)) == {}
    assert TorusFunction(2).is_zero() and TorusFunction(2).degree == 0


def test_degree_is_support_not_block_size():
    f = TorusFunction(2, {(1, 0): 1.0, (-1, 0): 1.0, (4, 0): 1e-20, (-4, 0): 1e-20})
    assert f.degree == 4
    t = f.truncated(8, drop_below=1e-16)
    assert t.size == 4 and t.degree == 1
    assert set(coeffs(t)) == {(1, 0), (-1, 0)}
    g = TorusFunction.from_grid(f.grid_values(16), 6)
    assert g.size == 6 and g.degree == 1
    assert set(coeffs(g)) == {(1, 0), (-1, 0)}


def test_degree_is_computed_once_per_function(monkeypatch):
    f = TorusFunction(2, {(3, -1): 1.0, (-3, 1): 1.0})
    calls = []
    argwhere = np.argwhere
    monkeypatch.setattr(torus.np, "argwhere", lambda a: calls.append(1) or argwhere(a))
    assert [f.degree, f.degree, (f * 2.0).degree] == [3, 3, 3]
    assert len(calls) == 2


@pytest.mark.parametrize(
    "alpha", [(math.sqrt(2),), (1.0, math.sqrt(2), math.sqrt(3))], ids=["n1", "n3"]
)
def test_other_dimensions_solve_norm_add_grid(alpha):
    n = len(alpha)
    rng = np.random.default_rng(20 + n)
    modes = {}
    for _ in range(6):
        k = tuple(int(x) for x in rng.integers(-3, 4, size=n))
        if any(k):
            c = complex(rng.normal(), rng.normal())
            modes[k] = c
            modes[tuple(-x for x in k)] = c.conjugate()
    f = TorusFunction(n, modes)
    # solve and roundtrip
    h = solve_small_divisor(alpha, f)
    assert sobolev_norm(directional_derivative(alpha, h) - f, 0) <= 1e-12 * sobolev_norm(f, 0)
    # norm against the closed form
    for r in (0.0, 1.5):
        expect = math.sqrt(sum(abs(c) ** 2 * (1 + sum(x * x for x in k)) ** r
                               for k, c in coeffs(f).items()))
        assert sobolev_norm(f, r) == pytest.approx(expect, rel=1e-13)
    # sum of blocks of different sizes
    g = sine_mode(n, (5,) + (0,) * (n - 1), 0.25)
    s = f + g
    assert s.size == 5
    for k in set(coeffs(f)) | set(coeffs(g)):
        assert coeff(s, k) == coeff(f, k) + coeff(g, k)
    # grid values against direct summation
    G = 12
    xs = np.arange(G) / G
    pts = np.stack(np.meshgrid(*[xs] * n, indexing="ij"), axis=-1)
    assert np.max(np.abs(s.grid_values(G) - s.evaluate(pts))) < 1e-12


def test_oversized_block_is_refused():
    with pytest.raises(DimensionMismatch, match="too large"):
        TorusFunction(2, {(100000, 0): 1.0})
    with pytest.raises(DimensionMismatch, match="too large"):
        pullback(TorusVectorField.zero(2), TorusVectorField.zero(2), out_degree=10**5)
    f = sine_mode(2, (1, 1), 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch, match="too large"):
            f.grid_values(10**5)
        # the kernel count reads a (2K+1)^2 divisor block
        with pytest.raises(DimensionMismatch, match="divisor block too large"):
            joint_kernel_dim(ActionParams(GOLDEN, (1.0,)), K=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_pullback_jacobians_are_capped_before_allocation():
    # at K = 64 the step grid has 200 points per axis: for n = 3 the (G^n, n, n)
    # Jacobians hold 200^3 x 9 entries, past the 4e7 cap
    u = TorusVectorField([sine_mode(3, (1, 1, 1), 1e-3)] + [TorusFunction.constant(3, 0.0)] * 2)
    X = TorusVectorField.constant((1.0, PHI, 2.0))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch, match="pullback Jacobians too large"):
            torus._pulled_back(u, X, torus._grid_size(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the newton workload's n = 2 grids at K = 64 stay inside it
    u = TorusVectorField([sine_mode(2, (1, 1), 1e-3), TorusFunction.constant(2, 0.0)])
    X = TorusVectorField.constant(GOLDEN)
    for G in (torus._grid_size(64), torus._verification_size(64)):
        vals, Minv = torus._pulled_back(u, X, G)
        assert vals.shape == (G * G, 2) and Minv.shape == (G * G, 2, 2)


# ---------------------------------------------------------------------------
# the grid path: closed-form inverse, re-expansion window, verification grid


def _jacobians(rng, n, count, edge):
    # random Jacobians whose sup row sum lies in (0, edge), some at the edge
    J = rng.uniform(-1.0, 1.0, size=(count, n, n))
    row = np.max(np.sum(np.abs(J), axis=2), axis=1)
    target = edge * np.concatenate([rng.uniform(size=count - 8), np.full(8, 1.0)])
    return J * (target / row)[:, None, None]


def test_closed_form_inverse_matches_linalg():
    rng = np.random.default_rng(31)
    edge = 0.5 * (1 - 1e-12)  # just inside the pullback's invertibility bound
    J = _jacobians(rng, 2, 20000, edge)
    assert np.max(np.sum(np.abs(J), axis=2)) < 0.5
    M = np.eye(2) + J
    # the inverses overwrite their input for n = 2
    work = M.copy()
    got = torus._inverse(work)
    assert got is work
    # |(I + J)^-1| <= 1 / (1 - 1/2) in the sup norm: both inverses are O(1)
    # and agree to a few rounding units
    assert np.max(np.abs(got - np.linalg.inv(M))) <= 8 * np.finfo(float).eps
    assert np.max(np.abs(got @ M - np.eye(2))) <= 8 * np.finfo(float).eps
    # the closed form is adjugate over determinant, entry by entry
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    assert np.array_equal(got[:, 0, 1], -M[:, 0, 1] / det)
    assert np.array_equal(got[:, 1, 1], M[:, 0, 0] / det)


def test_other_dimensions_invert_through_linalg(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counted(M):
        calls.append(M.shape)
        return inv(M)

    monkeypatch.setattr(torus.np.linalg, "inv", counted)
    rng = np.random.default_rng(32)
    for n in (1, 3):
        M = np.eye(n) + _jacobians(rng, n, 50, 0.49)
        assert np.array_equal(torus._inverse(M), inv(M))
    assert calls == [(50, 1, 1), (50, 3, 3)]
    torus._inverse(np.eye(2) + _jacobians(rng, 2, 50, 0.49))
    assert len(calls) == 2
    # the three-dimensional pullback reaches linalg through the same helper
    u = TorusVectorField([sine_mode(3, (1, 0, 1), 0.01)] + [TorusFunction.constant(3, 0.0)] * 2)
    pullback(u, TorusVectorField.constant((1.0, PHI, 2.0)))
    assert len(calls) == 3 and calls[-1][1:] == (3, 3)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_window_K_is_the_slice_of_window_2K(n, real):
    K = 6
    G = 4 * K + 2  # the coarsest grid that re-expands up to 2K
    rng = np.random.default_rng(40 + n)
    values = rng.normal(size=(G,) * n)
    if not real:
        # complex samples are refused at either window
        for degree in (K, 2 * K):
            with pytest.raises(DimensionMismatch):
                TorusFunction.from_grid(values + 1j * rng.normal(size=(G,) * n), degree)
        return
    inner = (slice(K, 3 * K + 1),) * n
    narrow = TorusFunction.from_grid(values, K)
    wide = TorusFunction.from_grid(values, 2 * K)
    assert narrow.real and wide.real
    assert narrow.block.tobytes() == wide.block[inner].tobytes()
    # the drop floor is relative to the largest coefficient, so the windows
    # agree while it lies inside |k| <= K, as it does for the smooth fields
    # of the Newton step; noise at the floor's size has some coefficients
    # dropped and some kept
    noise = values * torus._DROP * G ** (n / 2)
    values = noise + np.cos(2 * np.pi * np.arange(G) / G).reshape((G,) + (1,) * (n - 1))
    narrow = TorusFunction.from_grid(values, K)
    wide = TorusFunction.from_grid(values, 2 * K)
    assert narrow.block.tobytes() == wide.block[inner].tobytes()
    kept = np.count_nonzero(wide.block)
    assert 2 < kept < wide.block.size


def test_kam_step_samples_the_alias_free_grid_and_verification_a_denser_one(monkeypatch):
    sizes = []
    blocks = torus._pullback_blocks

    def recorded(u, X, G, shift=0.0, rows=None):
        sizes.append(G)
        return blocks(u, X, G, shift, rows)

    monkeypatch.setattr(torus, "_pullback_blocks", recorded)
    state = kam_iterate(GOLDEN, golden_perturbation(1e-3), trunc_degree=64)
    assert sizes == [200] * (len(state.residual_history) - 1) + [270]
    assert state.verified_sup_error <= 1e-13


def _smooth(G):
    for p in (2, 3, 5):
        while G % p == 0:
            G //= p
    return G == 1


def test_step_grid_is_the_smallest_five_smooth_side_past_3K():
    # products of degree-K fields cut back to |k| <= K are alias-free from
    # 3K + 1 points on; the verification grid stays denser
    for K in range(1, 200):
        G = torus._grid_size(K)
        low = max(3 * K + 1, 8)
        assert G >= low and _smooth(G)
        assert not any(_smooth(g) for g in range(low, G))
        assert G < torus._verification_size(K)
    assert [torus._grid_size(K) for K in (16, 64, 128)] == [50, 200, 400]


def test_kam_on_the_alias_free_grid_agrees_with_the_4K_grid(monkeypatch):
    # the multi-mode run at degree 6, golden omega, amplitude 3e-3, seed 0
    beta = TorusVectorField(
        [toral_function(member_rng(0, i), 2, 6, 3.0) * 3e-3 for i in range(2)]
    )
    state = kam_iterate(GOLDEN, beta, trunc_degree=64)
    monkeypatch.setattr(torus, "_grid_size", lambda K: 4 * K)
    ref = kam_iterate(GOLDEN, beta, trunc_degree=64)
    assert len(state.residual_history) == len(ref.residual_history)
    assert np.max(np.abs(np.subtract(state.lambda_bar, ref.lambda_bar))) <= 1e-14
    assert state.verified_sup_error <= 1e-13 and ref.verified_sup_error <= 1e-13


def test_verification_grid_is_five_smooth_and_off_the_dyadic_grids():
    for K in range(1, 200):
        G = torus._verification_size(K)
        low = max(4 * K, 32)
        assert G > low and _smooth(G) and G & (G - 1)
        assert not any(_smooth(g) and g & (g - 1) for g in range(low + 1, G))
    assert torus._verification_size(64) == 270
    assert torus._verification_size(8) == 36


def _real_block(rng, n, D):
    b = rng.normal(size=(2 * D + 1,) * n) + 1j * rng.normal(size=(2 * D + 1,) * n)
    return 0.5 * (b + np.conj(np.flip(b)))


def _pad(block, D):
    off = D - len(block) // 2
    return np.pad(block, off)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_closed_operations_match_the_checked_constructor(n, real):
    """+, -, scaling, partial, truncation and the derivative solves build
    their results without the constructor's copy and reality test.  The
    constructor, applied to the same raw arrays, is the oracle, to the bit
    but for the sign of an exact zero, and reads the same flag off the
    values; a zero result of complex operands keeps their flag, where the
    constructor reads it as real."""
    rng = np.random.default_rng(50 + n + 10 * real)

    def make(D):
        b = _real_block(rng, n, D)
        if not real:
            b = b + 0.3 * rng.normal(size=b.shape)
        return TorusFunction(n, b)

    def same(got, raw, want_real):
        want = TorusFunction(n, raw)
        assert got.real == want_real and want.real == (want_real or not raw.any())
        assert np.array_equal(got.block, want.block)

    f, g = make(3), make(2)
    same(f + g, f.block + _pad(g.block, 3), real)
    same(g + f, f.block + _pad(g.block, 3), real)
    neg = TorusFunction(n, g.block * complex(-1))
    same(f - g, f.block + _pad(neg.block, 3), real)
    same(g - g, g.block + neg.block, real)
    for s in (2.5, -1.0, -0.0, 1e-300):
        same(f * s, f.block * complex(s), real)
        same(s * f, f.block * complex(s), real)
    same(f * 0.5j, f.block * 0.5j, False)
    for axis in range(n):
        k = np.arange(-3, 4).reshape((1,) * axis + (-1,) + (1,) * (n - 1 - axis))
        same(f.partial(axis), 2j * np.pi * k * f.block, real)
    same(f.truncated(2), f.block[(slice(1, 6),) * n], real)
    alpha = (1.0, PHI, math.sqrt(3))[:n]
    ka = torus._divisors(alpha, 3)[0]
    same(directional_derivative(alpha, f), 2j * np.pi * ka * f.block, real)
    h = f - f.average
    support = h.block != 0
    support[(3,) * n] = False
    same(solve_small_divisor(alpha, h), torus._quotient(-1j * h.block, 2 * np.pi * ka, support), real)


def _conjugate_symmetric(f):
    # c_{-k} = conj(c_k) entry by entry; the sign of an exact zero is free
    return np.array_equal(f.block, np.conj(np.flip(f.block)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_results_are_conjugate_symmetric(n):
    """The reality rule holds after every operation on real functions: the
    constructor reads it off the values, the closed operations keep the
    symmetry, and from_grid and nil_multiply repair their rounding."""
    rng = np.random.default_rng(300 + n)
    f = TorusFunction(n, _real_block(rng, n, 4))
    g = TorusFunction(n, _real_block(rng, n, 2))
    alpha = (1.0, PHI, math.sqrt(3))[:n]
    G = 12
    samples = rng.normal(size=(G,) * n)
    real = [f, g, f + g, g + f, f - g, g - f, g - g, f + 0.25, f - 1.5]
    real += [f * s for s in (2.5, -0.7, -0.0, 1e-300, complex(3.0, -0.0))] + [-2.0 * f]
    real += [f.partial(axis) for axis in range(n)]
    real += [f.truncated(2), f.truncated(8), f.truncated(3, drop_below=0.2)]
    real += [directional_derivative(alpha, f), solve_small_divisor(alpha, f - f.average)]
    real += [TorusFunction.from_grid(samples, d) for d in (0, 2, 5)]
    real += [TorusFunction.constant(n, v) for v in (2.5, -0.0, complex(-1.0, -0.0))]
    if n == 2:
        # the grid product, its factors of equal and of different sizes
        wide = TorusFunction(2, _real_block(rng, 2, 7))
        real += [nil_multiply(NilFunction(toral=a), NilFunction(toral=b)).toral
                 for a, b in ((f, g), (g, f), (f, f), (g, wide), (wide, f))]
    assert all(r.real and _conjugate_symmetric(r) for r in real)
    not_real = [f * 0.5j, f + 1j, TorusFunction.constant(n, 1j)]
    assert not any(r.real for r in not_real)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_constants_match_the_checked_constructor(n, monkeypatch):
    """A constant reads its reality off the value and skips the constructor,
    with the constructor's bits and flag."""
    values = (2.5, -0.0, 0.0, -1e-300, complex(3.0, 0.0), complex(-0.0, -0.0), 1j, complex(1, -2))
    # a list, not a dict: -0.0 and 0.0 are equal keys
    wants = [TorusFunction(n, np.full((1,) * n, complex(v))) for v in values]

    def refuse(*args, **kwargs):
        raise AssertionError("constant went through the checked constructor")

    monkeypatch.setattr(TorusFunction, "__init__", refuse)
    for v, want in zip(values, wants):
        got = TorusFunction.constant(n, v)
        assert got.n == n and got.real == want.real == (complex(v).imag == 0)
        assert got.block.tobytes() == want.block.tobytes() and not got.block.flags.writeable
    with pytest.raises(DimensionMismatch):
        TorusFunction.constant(0, 1.0)


def test_reality_is_read_off_the_values_exactly():
    """The constructor compares c_-k with conj(c_k), with no tolerance and no
    arithmetic: a mirrored block at the top of the float range reads as real
    without a RuntimeWarning (an error under the suite's filter), a block
    off by one ulp reads as complex, and both keep their bits, zero signs
    included."""
    for c in (1e308, -1.7976931348623157e308, 8e307 - 3e307j):
        f = TorusFunction(2, {(1, 0): c, (-1, 0): c.conjugate()})
        assert f.real and coeff(f, (1, 0)) == c and coeff(f, (-1, 0)) == c.conjugate()
    off = TorusFunction(2, {(1, 0): 1.0, (-1, 0): math.nextafter(1.0, 2.0)})
    assert not off.real and coeff(off, (-1, 0)) == math.nextafter(1.0, 2.0)
    # the sign of an exact zero is free, and kept
    block = np.array([0.5 + 0.0j, complex(1.0, -0.0), complex(0.5, -0.0)])
    f = TorusFunction(1, block)
    assert f.real and f.block.tobytes() == block.tobytes()
    assert TorusFunction(1, {(1,): 1j, (-1,): 1j}).real is False


# ---------------------------------------------------------------------------
# half-spectrum transforms and real evaluation against the complex ones


def _complex_grid_values(f, G):
    # the real part of the full complex transform, with aliasing through the
    # scatter
    arr = np.zeros((G,) * f.n, dtype=complex)
    wrap = np.arange(-f.size, f.size + 1) % G
    np.add.at(arr, np.ix_(*[wrap] * f.n), f.block)
    return (np.fft.ifftn(arr) * G**f.n).real


def _complex_from_grid(cls, values, degree):
    # the window of the full complex fftn, symmetrized
    values = np.asarray(values)
    if min(values.shape) <= 2 * degree:
        raise DimensionMismatch("grid too coarse for the requested degree")
    C = np.fft.fftn(values) / values.size
    window = np.arange(-degree, degree + 1)
    block = C[np.ix_(*[window % s for s in values.shape])]
    floor = torus._DROP * float(np.max(np.abs(block)))
    block = np.where(np.abs(block) > floor, block, 0)
    return cls._exact(values.ndim, torus._symmetrized(block), True)


def _complex_evaluate(f, points):
    # the real part of the direct sum over every mode, k and -k alike
    pts = np.asarray(points, dtype=float)
    vals = np.zeros(pts.shape[:-1], dtype=complex)
    for k, c in coeffs(f).items():
        vals += c * np.exp(2j * np.pi * (pts @ np.asarray(k, dtype=float)))
    return vals.real


def _close(got, want, rel=1e-13):
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


# n = 3 on the 270 grid would sample 2e7 points; the other pairs cover it
_SIDES = [(n, G) for n in (1, 2, 3) for G in (16, 45, 270) if G**n < 10**6]


@pytest.mark.parametrize("n, G", _SIDES)
def test_real_grid_values_match_the_complex_transform(n, G):
    rng = np.random.default_rng(70 + n + G)
    widest = (G - 1) // 2  # the largest block that does not alias
    for D in sorted({0, 1, min(widest, 12), widest}):
        f = TorusFunction(n, _real_block(rng, n, D))
        got = f.grid_values(G)
        assert got.dtype == float and got.shape == (G,) * n
        assert _close(got, _complex_grid_values(f, G))
        # a block whose support lies in the k_last = 0 plane
        b = f.block.copy()
        b[..., :D] = 0
        b[..., D + 1:] = 0
        flat = TorusFunction(n, b)
        assert np.count_nonzero(flat.block) > 0
        assert _close(flat.grid_values(G), _complex_grid_values(flat, G))


@pytest.mark.parametrize("n, G", _SIDES)
def test_real_from_grid_matches_the_complex_transform(n, G):
    rng = np.random.default_rng(80 + n + G)
    shapes = [(G,) * n]
    if n > 1:
        shapes.append(tuple(G + 3 * i for i in range(n)))
        shapes.append(tuple(G + 3 * (n - 1 - i) for i in range(n)))
    for shape in shapes:
        values = rng.normal(size=shape)
        for degree in sorted({0, 3, (min(shape) - 1) // 2}):
            got = TorusFunction.from_grid(values, degree)
            want = _complex_from_grid(TorusFunction, values, degree)
            assert got.real and got.block.shape == want.block.shape
            assert _close(got.block, want.block)


def _irfftn_grid_values(f, G):
    # the real path as full half-spectrum transforms: every G//2+1 column
    # goes through irfftn, the zero ones included
    D = f.size
    wrap = np.arange(-D, D + 1) % G
    half = np.zeros((G,) * (f.n - 1) + (G // 2 + 1,), dtype=complex)
    half[np.ix_(*[wrap] * (f.n - 1), np.arange(D + 1))] = f.block[..., D:]
    return np.fft.irfftn(half, (G,) * f.n, range(f.n), norm="forward")


def _rfftn_from_grid(cls, values, degree):
    # the real path read off the full rfftn of the samples
    values = np.asarray(values)
    if min(values.shape) <= 2 * degree:
        raise DimensionMismatch("grid too coarse for the requested degree")
    window = np.arange(-degree, degree + 1)
    H = np.fft.rfftn(values, norm="forward")
    half = H[np.ix_(*[window % s for s in values.shape[:-1]], np.arange(degree + 1))]
    block = np.concatenate([np.conj(np.flip(half[..., 1:])), half], axis=-1)
    floor = torus._DROP * float(np.max(np.abs(block)))
    block = np.where(np.abs(block) > floor, block, 0)
    return cls._exact(values.ndim, torus._symmetrized(block), True)


def _stacked(from_grid):
    # a one-grid re-expansion applied to each grid of a stack, as the Newton
    # step's re-expansions (`torus._re_expanded`) take them
    return lambda values, degree: [from_grid(TorusFunction, v, degree).block for v in values]


def _same_bits(got, want):
    return (got.dtype == want.dtype and np.array_equal(got, want)
            and np.array_equal(np.signbit(got.real), np.signbit(want.real))
            and np.array_equal(np.signbit(got.imag), np.signbit(want.imag)))


# (n, G): the smallest grids that fit a degree-D block (2D+2), odd sides, the
# Newton grid 256 and the verification grid 270, all under 10^6 points
_PRUNED_SIDES = [(1, 2), (1, 8), (1, 45), (1, 256), (1, 270), (2, 4), (2, 14), (2, 45),
                 (2, 256), (2, 270), (3, 2), (3, 10), (3, 27), (3, 64)]


@pytest.mark.parametrize("n, G", _PRUNED_SIDES)
def test_pruned_transforms_match_the_full_half_spectrum_bit_for_bit(n, G):
    """grid_values and from_grid transform only the D+1 columns that carry
    modes; the full irfftn/rfftn path is the oracle, to the bit and to the
    sign of every zero."""
    rng = np.random.default_rng(230 + 7 * n + G)
    widest = (G - 1) // 2
    for D in sorted({0, min(widest, 1), min(widest, 5), max(widest - 1, 0), widest}):
        blocks = [_real_block(rng, n, D)]
        # signed zeros: a pure sine, a pure cosine and a sparse block
        blocks.append(1j * blocks[0].imag)
        blocks.append(blocks[0].real + 0j)
        sparse = blocks[0] * (rng.uniform(size=blocks[0].shape) < 0.3)
        blocks.append(0.5 * (sparse + np.conj(np.flip(sparse))))
        for block in blocks:
            f = TorusFunction(n, block)
            got, want = f.grid_values(G), _irfftn_grid_values(f, G)
            assert got.shape == (G,) * n and _same_bits(got, want)
            # degree D on the G grid is the window's edge when D = widest
            back = TorusFunction.from_grid(got, D)
            ref = _rfftn_from_grid(TorusFunction, got, D)
            assert back.real and _same_bits(back.block, ref.block)
    # samples with signed zeros, and grids whose sides differ per axis
    shapes = [(G,) * n]
    if n > 1:
        shapes += [tuple(G + i for i in range(n)), tuple(G + 2 * (n - 1 - i) for i in range(n))]
    for shape in shapes:
        values = rng.normal(size=shape)
        values[rng.uniform(size=shape) < 0.2] = -0.0
        edge = (min(shape) - 1) // 2
        for degree in sorted({0, min(edge, 2), edge}):
            got = TorusFunction.from_grid(values, degree)
            want = _rfftn_from_grid(TorusFunction, values, degree)
            assert _same_bits(got.block, want.block)


def test_kam_state_is_unchanged_by_the_pruned_transforms(monkeypatch):
    default = kam_iterate(GOLDEN, golden_perturbation(1e-3), trunc_degree=64)
    monkeypatch.setattr(TorusFunction, "grid_values", _irfftn_grid_values)
    monkeypatch.setattr(torus, "_re_expanded", _stacked(_rfftn_from_grid))
    ref = kam_iterate(GOLDEN, golden_perturbation(1e-3), trunc_degree=64)
    for got, want in zip(default.u_acc.components + default.beta_cur.components,
                         ref.u_acc.components + ref.beta_cur.components):
        assert got.real == want.real and _same_bits(got.block, want.block)
    assert default.lambda_bar == ref.lambda_bar
    assert default.residual_history == ref.residual_history
    assert default.residual_history_r2 == ref.residual_history_r2
    assert default.verified_sup_error == ref.verified_sup_error


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_evaluate_matches_the_complex_sum(n):
    rng = np.random.default_rng(90 + n)
    pts = rng.uniform(-1.0, 2.0, size=(7, 5, n))
    for D in (0, 1, 4, 9):
        f = TorusFunction(n, _real_block(rng, n, D))
        got = f.evaluate(pts)
        assert got.dtype == float and got.shape == (7, 5)
        assert _close(got, _complex_evaluate(f, pts))
    # pure sine and cosine modes, and a constant
    for f in (sine_mode(n, (1,) * n, 0.3), sine_mode(n, (2,) + (-1,) * (n - 1), -1.0),
              TorusFunction(n, {(1,) * n: 0.5, (-1,) * n: 0.5}),
              TorusFunction.constant(n, -2.5)):
        assert _close(f.evaluate(pts), _complex_evaluate(f, pts))


@pytest.mark.parametrize(
    "call",
    [
        lambda: sine_mode(2, (1, 1), 1.0).grid_values(0),
        lambda: sine_mode(2, (1, 1), 1.0).grid_values(-4),
        lambda: TorusFunction(2, {(1, 1): 1.0}).grid_values(-4),
        lambda: TorusFunction.from_grid(np.ones((8, 8)), -1),
        lambda: TorusFunction.from_grid(np.ones((8, 8)) * 1j, -1),
        # the grid layer is real
        lambda: TorusFunction(2, {(1, 1): 1.0}).grid_values(8),
        lambda: TorusFunction(2, {(1, 1): 1.0}).evaluate(np.zeros((3, 2))),
        lambda: TorusFunction.from_grid(np.ones((8, 8)) * 1j, 2),
        lambda: TorusVectorField([TorusFunction(2, {(1, 1): 1.0}), TorusFunction.constant(2, 0.0)]),
        lambda: kam_iterate(GOLDEN, TorusVectorField.constant((1e-3j, 0.0))),
        # 2 size >= G would alias
        lambda: sine_mode(2, (3, 1), 1.0).grid_values(6),
    ],
    ids=["real-zero", "real-negative", "complex-negative", "degree-negative", "complex-degree-negative",
         "complex-grid-values", "complex-evaluate", "complex-samples",
         "complex-component", "complex-kam-field", "aliasing-grid"],
)
def test_bad_grid_sizes_are_typed_refusals(call):
    with pytest.raises(DimensionMismatch):
        call()


@pytest.mark.parametrize(
    "K, mode, amplitude", [(64, (1, 1), 1e-3), (32, (2, -3), 0.01)], ids=["K64", "K32"]
)
def test_kam_agrees_with_the_complex_transforms(monkeypatch, K, mode, amplitude):
    beta = TorusVectorField([sine_mode(2, mode, amplitude), TorusFunction.constant(2, 0.0)])
    default = kam_iterate(GOLDEN, beta, trunc_degree=K)
    monkeypatch.setattr(TorusFunction, "grid_values", _complex_grid_values)
    monkeypatch.setattr(torus, "_re_expanded", _stacked(_complex_from_grid))
    monkeypatch.setattr(TorusFunction, "evaluate", _complex_evaluate)
    ref = kam_iterate(GOLDEN, beta, trunc_degree=K)
    assert len(default.residual_history) == len(ref.residual_history)
    assert np.max(np.abs(np.subtract(default.lambda_bar, ref.lambda_bar))) <= 1e-14
    # a residual carries the roundoff of O(1) grid values in absolute terms,
    # eps |omega| ~ 4e-16; above that floor the two agree to 1e-12 relative
    for got, want in zip(default.residual_history, ref.residual_history):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-16)
    assert default.verified_sup_error <= 1e-13 and ref.verified_sup_error <= 1e-13


def test_verification_grid_follows_the_truncation_degree(monkeypatch):
    # the change after one step is a single mode, far inside K = 16: the grid
    # is still the one for K, not for the change's degree
    state = kam_step(KamState.initial(GOLDEN, golden_perturbation(1e-3), trunc_degree=16))
    assert state.u_acc.degree < 16
    sizes = []
    blocks = torus._pullback_blocks

    def recorded(u, X, G, shift=0.0, rows=None):
        sizes.append(G)
        return blocks(u, X, G, shift, rows)

    monkeypatch.setattr(torus, "_pullback_blocks", recorded)
    assert verify_conjugacy(state) <= 10 * state.residual + 1e-13
    assert sizes == [torus._verification_size(16)] != [torus._verification_size(1)]


def _complex_function(rng, K):
    side = 2 * K + 1
    return TorusFunction(2, rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))


@pytest.mark.parametrize("Ka, Kb", [(2, 5), (5, 2), (3, 3), (0, 4)])
def test_difference_is_the_sum_with_the_negation_bit_for_bit(Ka, Kb):
    # a - b is subtracted entry by entry; the bits are those of a + b * -1
    rng = np.random.default_rng(19)
    for real_a in (True, False):
        for real_b in (True, False):
            a = random_real_function(rng, K=Ka) if real_a else _complex_function(rng, Ka)
            b = random_real_function(rng, K=Kb) if real_b else _complex_function(rng, Kb)
            got, want = a - b, a + b * -1
            assert got.real == want.real == (real_a and real_b)
            assert got.block.shape == want.block.shape
            assert np.array_equal(got.block, want.block)
    f = random_real_function(rng, K=2)
    assert np.array_equal((f - 0.25).block, (f + -0.25).block)


def test_difference_with_an_infinite_entry_has_no_nan():
    # b * -1 multiplied (inf + 1j) by (-1 + 0j) and made inf * 0 = nan; the
    # direct difference keeps every component finite or infinite
    a = TorusFunction(2, {(0, 0): 1 + 1j, (1, 0): 2.0})
    b = TorusFunction(2, {(1, 0): complex(math.inf, 1.0)})
    for got, want in ((a - b, {(0, 0): 1 + 1j, (1, 0): complex(-math.inf, -1.0)}),
                      (b - a, {(0, 0): -1 - 1j, (1, 0): complex(math.inf, 1.0)})):
        assert not np.isnan(got.block).any()
        assert coeffs(got) == want


# ---------------------------------------------------------------------------
# the row layout of the grid path, and separable evaluation


def _stacked_pullback(rows, X, G, shift):
    # the pullback on (G^n, n, n) stacks: meshgrid points, np.eye + J, the
    # closed-form or linalg inverse, and einsum
    n = X.n
    xs = np.arange(G) / G
    pts = np.stack(np.meshgrid(*([xs] * n), indexing="ij"), axis=-1).reshape(-1, n)
    U, J = rows[:n].T, rows[n:].reshape(n, n, -1).transpose(2, 0, 1)
    M = np.eye(n)[None, :, :] + J
    if n == 2:
        a, b, c, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
        Minv = np.empty_like(M)
        Minv[:, 0, 0], Minv[:, 0, 1], Minv[:, 1, 0], Minv[:, 1, 1] = d, -b, -c, a
        Minv /= (a * d - b * c)[:, None, None]
    else:
        Minv = np.linalg.inv(M)
    return np.einsum("pij,pj->pi", Minv, shift + np.stack(X._component_values(pts + U), -1)), Minv


def _same_signed_bits(got, want):
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("zero", [False, True], ids=["full", "zero-component"])
@pytest.mark.parametrize("target", ["field", "signed-zero"])
def test_row_pullback_matches_the_stacked_matrices_bit_for_bit(monkeypatch, n, zero, target):
    rng = np.random.default_rng(60 + n)
    G = {1: 64, 2: 24, 3: 10}[n]
    # u_0 depends on x_0 only, so its other partials are exact zeros
    comps = [sine_mode(n, (1,) + (0,) * (n - 1), 0.01)]
    for _ in range(n - 1):
        block = _real_block(rng, n, 2)
        comps.append(TorusFunction(n, 1e-3 * block / np.abs(block).sum()))
    if zero:
        comps[-1] = TorusFunction.constant(n, 0.0)
    u = TorusVectorField(comps)
    if target == "field":
        X = TorusVectorField([sine_mode(n, (1,) * n, 0.3) + 1.0] + [sine_mode(n, (2,) + (1,) * (n - 1), 0.2)] * (n - 1))
        shift = np.linspace(0.5, 1.5, n)
    else:
        # -0 values: products of -0 sum to -0, which einsum's +0 start turns into +0
        X = TorusVectorField([TorusFunction.constant(n, -0.0)] * n)
        shift = np.full(n, -0.0)
    sampled_rows = []
    sampled = torus._sampled_block

    def signed(halves, G, start, stop, rows=None):
        rows = sampled(halves, G, start, stop, rows)
        rows[rows == 0] = -0.0
        sampled_rows.append(rows.copy())
        return rows

    monkeypatch.setattr(torus, "_sampled_block", signed)
    vals, Minv = torus._pulled_back(u, X, G, shift)
    # one block: u's rows, then its partials' rows
    rows = np.vstack(sampled_rows)
    assert [len(r) for r in sampled_rows] == [n, n * n]
    if n > 1 or zero:
        assert (np.signbit(rows[n:]) & (rows[n:] == 0)).any()
    want_vals, want_Minv = _stacked_pullback(rows, X, G, shift)
    assert _same_signed_bits(vals, want_vals)
    assert _same_signed_bits(Minv, want_Minv)
    if target == "signed-zero" and n == 2:
        # the case the +0 start decides is there
        assert (want_vals == 0).all() and not np.signbit(want_vals).any()


def test_zero_components_are_never_transformed(monkeypatch):
    transformed = []
    half_grid = TorusFunction._half_grid

    def counted(f, G):
        transformed.append(f)
        return half_grid(f, G)

    monkeypatch.setattr(TorusFunction, "_half_grid", counted)
    u = golden_perturbation(1e-3)
    torus._pulled_back(u, TorusVectorField.constant(GOLDEN), 64)
    # u_0 and its two partials; u_1 = 0 and its partials get zero rows
    assert len(transformed) == 3
    transformed.clear()
    # the update samples u_acc_0, its x_0 partial and u_0: u_acc_0 does not
    # depend on x_1, and u_acc_1 = u_1 = 0
    u_acc = TorusVectorField([sine_mode(2, (1, 0), 2e-3), TorusFunction.constant(2, 0.0)])
    torus._corrected(u_acc, u, 64, 16)
    assert len(transformed) == 3 and not any(f.is_zero() for f in transformed)
    transformed.clear()
    kam_iterate(GOLDEN, u, trunc_degree=64)
    assert transformed and not any(f.is_zero() for f in transformed)


def test_streamed_refusal_quotes_the_whole_grid(monkeypatch):
    # u_0 = 0.2 - 0.6 sin(2 pi x_0) passes 1/2 only for x_0 in (7/12, 11/12),
    # inside the last of two blocks, while Du passes it in the first: the
    # displacement is refused first, with its sup norm over the whole grid
    u = TorusVectorField([sine_mode(2, (1, 0), -0.6) + 0.2, TorusFunction.constant(2, 0.0)])
    state = replace(KamState.initial(GOLDEN, TorusVectorField.zero(2), trunc_degree=8), u_acc=u)
    G = torus._verification_grid(state)
    U = torus._sampled(u.components, G)
    want = "displacement sup-norm %.3g >= 1/2" % max(U.max(), -U.min())
    assert want == "displacement sup-norm 0.8 >= 1/2"
    for block in (1, G**2 // 2, 10**9):
        monkeypatch.setattr(torus, "_GRID_BLOCK", block)
        for refused in (lambda: torus._pulled_back(u, state.beta0, G), lambda: verify_conjugacy(state)):
            with pytest.raises(NonInvertible) as exc:
                refused()
            assert str(exc.value) == want


ONE_MODE = {
    1: ((PHI,), 64, TorusVectorField([sine_mode(1, (1,), 1e-3)])),
    2: (GOLDEN, 64, golden_perturbation(1e-3)),
    3: ((1.0, math.sqrt(2), math.sqrt(3)), 8,
        TorusVectorField([sine_mode(3, (1, 1, 0), 1e-3)] + [TorusFunction.constant(3, 0.0)] * 2)),
}


def _kam_bits(omega, beta, K):
    # the bits of lambda_bar, both residual histories and the verified error;
    # the degree-6 member at n = 3 outruns K = 8, and its verification fails
    try:
        state, verified = kam_iterate(omega, beta, trunc_degree=K), None
    except NoConvergence as exc:
        state, verified = exc.state, verify_conjugacy(exc.state)
    return [np.array(x, dtype=float).tobytes() for x in (
        state.lambda_bar, state.residual_history, state.residual_history_r2,
        [state.verified_sup_error if verified is None else verified],
    )]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("member", ["one-mode", "degree-6"])
def test_kam_bits_do_not_depend_on_the_block_size(monkeypatch, n, member):
    omega, K, beta = ONE_MODE[n]
    if member == "degree-6":
        beta = TorusVectorField([toral_function(member_rng(0, i), n, 6, 3.0) * 3e-3 for i in range(n)])
        assert all(c._takes_separable_path() for c in beta.components)
    want = _kam_bits(omega, beta, K)
    sizes = []
    blocks = torus._blocks

    def recorded(count, unit):
        out = blocks(count, unit)
        sizes.append([b - a for a, b in out])
        return out

    monkeypatch.setattr(torus, "_blocks", recorded)
    # one unit (a grid line, or a chunk of the separable evaluation), a size
    # that leaves a short last block, and the whole grid
    for block in (1, 3 * 10**4, 10**9):
        monkeypatch.setattr(torus, "_GRID_BLOCK", block)
        assert _kam_bits(omega, beta, K) == want
        if block == 3 * 10**4 and n > 1:
            assert any(s[-1] < s[0] for s in sizes)
        sizes.clear()


def test_kam_grid_work_stays_within_its_memory_budget(monkeypatch):
    # the default kam at K = 64: the verification holds nothing at
    # whole-grid size, and a step only the pullback's P and (I + Du)^-1 rows
    # and the rows it re-expands
    peaks = {"kam_step": [], "verify_conjugacy": []}
    for name, record in peaks.items():
        def traced(state, call=getattr(torus, name), record=record):
            tracemalloc.start()
            try:
                return call(state)
            finally:
                record.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(torus, name, traced)
    kam_iterate(GOLDEN, golden_perturbation(1e-3), trunc_degree=64)
    assert len(peaks["kam_step"]) == 2 and len(peaks["verify_conjugacy"]) == 1
    assert max(peaks["kam_step"]) < 4.5 * 2**20
    assert peaks["verify_conjugacy"][0] < 3.5 * 2**20


def test_additive_update_agrees_with_the_composition_to_second_order():
    # u_acc + (I + Du_acc) u_new and u_new + u_acc(x + u_new) differ by
    # O(|u_new|^2 |D^2 u_acc|): slope 2 in the size of u_new.  Without the
    # Du_acc u_new term the difference is first order, slope 1
    u_acc = TorusVectorField([toral_function(member_rng(5, i), 2, 3) * 1e-2 for i in range(2)])
    w = TorusVectorField([toral_function(member_rng(6, i), 2, 3) for i in range(2)])
    K = 16
    epsilons = [1e-2, 1e-3, 1e-4]
    gaps = []
    for eps in epsilons:
        u_new = TorusVectorField([c * eps for c in w.components])
        added = torus._corrected(u_acc, u_new, torus._grid_size(K), K)
        composed = composed_displacement(u_new, u_acc, K)
        gaps.append(sobolev_norm(TorusVectorField(
            [a - b for a, b in zip(added.components, composed.components)]
        ), 0))
    slope = np.polyfit(np.log(epsilons), np.log(gaps), 1)[0]
    assert abs(slope - 2) < 0.1, (slope, gaps)


def _sparse(rng, block, count, real):
    # keep count random nonzeros, in conjugate pairs for a real block
    flat = block.reshape(-1)
    half = flat.size // 2
    pool = np.arange(half + 1, flat.size) if real else np.arange(flat.size)
    keep = rng.choice(pool, size=count // 2 if real else count, replace=False)
    if real:
        keep = np.concatenate([keep, flat.size - 1 - keep])
    out = np.zeros_like(flat)
    out[keep] = flat[keep]
    return out.reshape(block.shape)


def _separable_threshold(n, side):
    # twice the nonzero count at which the paths cost the same: 2 modes per
    # axis, 1/8 of a mode per table entry, 1/256 per block entry
    return math.ceil(2 * (n * (16 + side) / 8 + side**n / 256))


@pytest.mark.parametrize(
    "n, D, count",
    # the count grows with the block size, not with its side alone
    [(1, 256, 137), (2, 64, 203), (3, 4, 25), (3, 20, 582)],
)
def test_separable_threshold_counts_the_work_per_point(n, D, count):
    side = 2 * D + 1
    assert _separable_threshold(n, side) == count
    for nonzero in (count - 1, count):
        block = np.zeros(side**n, dtype=complex)
        block[:nonzero] = 1.0
        f = TorusFunction(n, block.reshape((side,) * n))
        assert f._takes_separable_path() == (nonzero == count)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_separable_path_matches_direct_summation(monkeypatch, n, real):
    rng = np.random.default_rng(80 + n)
    D = {1: 40, 2: 12, 3: 4}[n]
    side = 2 * D + 1
    pts = rng.uniform(-0.5, 1.5, size=(50, 3, n))
    dense = _real_block(rng, n, D)
    if not real:
        dense = dense + 1j * _real_block(rng, n, D)[::-1]
    # at the threshold; a real block keeps its nonzeros in conjugate pairs
    count = _separable_threshold(n, side)
    count += real and count % 2
    sparse = _sparse(rng, dense, count, real)
    below = _sparse(rng, dense, count - 1 - real, real)
    assert not TorusFunction(n, below)._takes_separable_path()
    if not real:
        # complex blocks on the separable path are refused, by evaluate and
        # by a vector field
        for block in (dense, sparse):
            f = TorusFunction(n, block)
            assert not f.real and f._takes_separable_path()
            with pytest.raises(DimensionMismatch):
                f.evaluate(pts)
            with pytest.raises(DimensionMismatch):
                TorusVectorField([f] + [TorusFunction.constant(n, 0.0)] * (n - 1))
        return
    for block in (dense, sparse):
        # the values are at most 1 in size
        f = TorusFunction(n, block / np.abs(block).sum())
        assert f._takes_separable_path()
        got = torus._separable_values([f], pts)[0]
        assert got.dtype == float and got.shape == (50, 3)
        assert np.array_equal(f.evaluate(pts), got)
        with monkeypatch.context() as m:
            m.setattr(torus, "_SEPARABLE_MARGIN", math.inf)
            want = f.evaluate(pts)
        assert np.max(np.abs(got - want)) <= 1e-13
    # a field evaluates its separable components on shared tables
    g = TorusFunction(n, sparse / np.abs(sparse).sum() * 0.5)
    field = TorusVectorField([f, sine_mode(n, (1,) * n, 0.25), g])
    got = np.stack(field._component_values(pts), axis=-1)
    want = np.stack([c.evaluate(pts) for c in field.components], axis=-1)
    assert got.shape == (50, 3, 3)
    assert np.array_equal(got[..., 1], want[..., 1])
    assert np.max(np.abs(got - want)) <= 1e-13
