import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from nilflow.algebra import ActionParams, ConstantCocycle, const_cohomology_basis, const_delta0, heisenberg
from nilflow import cohomology, diophantine
from nilflow.cohomology import (
    Cochain1,
    VfCochain,
    VfField,
    delta1,
    delta1_star_split,
    gh_certificate,
    joint_kernel_dim,
    laplacian_solve,
    leafwise_laplacian_apply,
    rep_spectrum,
    trusted_count,
    vf_coboundary_solve,
    vf_delta0,
)
from nilflow.errors import (
    DimensionMismatch,
    NonzeroAverage,
    Resonance,
)
from nilflow.nilrep import NilFunction, _bands, apply_X1, apply_X2, nil_sobolev_norm
from nilflow.torus import TorusFunction

from dense_ladder import dense_ladder
from laplacian_route import split_via_laplacian
from oracles import delta0
from toral_coeffs import coeff

PHI = (1 + math.sqrt(5)) / 2


def golden_params(beta=1.0, mu=0.0, alpha=(1.0, PHI)):
    return ActionParams(alpha=alpha, beta=(beta,), mu=mu)


def norm_diff(F, G):
    return nil_sobolev_norm(F.sub(G), 0.0)


def random_nil(rng, toral_modes=4, rep_len=4, real=False):
    coeffs = {}
    for _ in range(toral_modes):
        k = tuple(int(x) for x in rng.integers(-4, 5, size=2))
        if k == (0, 0):
            continue
        c = rng.standard_normal() + 1j * rng.standard_normal()
        coeffs[k] = coeffs.get(k, 0) + c
        if real:
            neg = (-k[0], -k[1])
            coeffs[neg] = coeffs.get(neg, 0) + c.conjugate()
    reps = {
        (1, 0): rng.standard_normal(rep_len) + 1j * rng.standard_normal(rep_len),
        (-2, 0): rng.standard_normal(rep_len) + 1j * rng.standard_normal(rep_len),
    }
    return NilFunction(toral=TorusFunction(2, coeffs), reps=reps)


# ---------------------------------------------------------------------------
# coboundaries


def test_delta0_on_constant():
    w = delta0(golden_params(), NilFunction.constant(2.0))
    assert w.f.is_zero() and w.g.is_zero()


def test_delta0_single_toral_mode():
    p = golden_params()
    h = NilFunction(toral=TorusFunction(2, {(2, -1): 1.0}))
    w = delta0(p, h)
    assert coeff(w.f.toral, (2, -1)) == pytest.approx(2j * math.pi * (2 - PHI))
    assert w.g.is_zero()


def test_delta0_single_rep_mode():
    p = golden_params(beta=0.5)
    h = NilFunction(reps={(3, 0): np.array([1.0, 2.0])})
    w = delta0(p, h)
    assert np.allclose(w.g.rep(3), 2j * math.pi * 3 * 0.5 * np.array([1.0, 2.0]))


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_delta1_after_delta0_vanishes(mu):
    rng = np.random.default_rng(7)
    p = golden_params(mu=mu)
    h = random_nil(rng)
    w = delta0(p, h)
    phi = delta1(p, w)
    assert nil_sobolev_norm(phi, 0.0) < 1e-12 * max(w.norm(0.0), 1.0)


def test_delta1_on_toral_second_component():
    p = golden_params()
    g = NilFunction(toral=TorusFunction(2, {(1, 1): 2.0}))
    phi = delta1(p, Cochain1(NilFunction(), g))
    assert coeff(phi.toral, (1, 1)) == pytest.approx(-2j * math.pi * (1 + PHI) * 2.0)


def test_delta1_matches_matrix_assembly():
    rng = np.random.default_rng(19)
    p = golden_params(beta=0.75)
    f = NilFunction(reps={(2, 0): rng.standard_normal(5) + 1j * rng.standard_normal(5)})
    g = NilFunction(reps={(2, 0): rng.standard_normal(5) + 1j * rng.standard_normal(5)})
    phi = delta1(p, Cochain1(f, g))
    size = 6
    a = dense_ladder(2, size, p.x1_y)
    b = dense_ladder(2, size, p.x2_y, p.x2_z[0])
    fp = np.zeros(size, dtype=complex)
    fp[:5] = f.rep(2)
    gp = np.zeros(size, dtype=complex)
    gp[:5] = g.rep(2)
    oracle = b @ fp - a @ gp
    assert np.allclose(phi.rep(2), oracle, atol=1e-12 * np.max(np.abs(oracle)))


# ---------------------------------------------------------------------------
# delta0_star: the tame inverse of delta0 is the H of the split


def test_delta0_star_zero():
    h = delta1_star_split(golden_params(), Cochain1(NilFunction(), NilFunction())).H
    assert h.is_zero()


@pytest.mark.parametrize("mu", [0.0, 0.5, -2.0])
def test_delta0_star_roundtrip(mu):
    rng = np.random.default_rng(29)
    p = golden_params(beta=0.7, mu=mu)
    h0 = random_nil(rng)
    w = delta0(p, h0)
    h = delta1_star_split(p, w).H
    assert norm_diff(h, h0) < 1e-10 * nil_sobolev_norm(h0, 0.0)


def test_delta0_star_projects_out_constants():
    rng = np.random.default_rng(31)
    p = golden_params()
    h0 = random_nil(rng).add(NilFunction.constant(3.0))
    h = delta1_star_split(p, delta0(p, h0)).H
    expected = h0.sub(NilFunction.constant(3.0))
    assert norm_diff(h, expected) < 1e-10 * nil_sobolev_norm(h0, 0.0)


@pytest.mark.parametrize("h_length, odd_row", [(4, True), (3, False)])
def test_delta0_star_refuses_a_singular_x2_block(h_length, odd_row):
    # at beta = 0, X2 - mu X1 vanishes on every representation, so rows of
    # either parity are refused; delta0 grows each row of h by one
    assert (h_length + 1) % 2 == odd_row
    p = golden_params(beta=0.0, mu=0.7)
    h = NilFunction(reps={(2, 0): np.arange(1.0, h_length + 1)})
    omega = delta0(p, h)
    with pytest.raises(Resonance, match=r"no inverse on representation n=2$"):
        delta1_star_split(p, omega)


@pytest.mark.parametrize("rep_len", [3, 4])
@pytest.mark.parametrize("mu", [0.5, -2.0])
def test_delta0_star_divides_by_the_central_scalar(monkeypatch, mu, rep_len):
    # X2 - mu X1 is the scalar 2 pi i n beta on block n: no dense solve runs
    def refuse(*args, **kwargs):
        raise AssertionError("the split must not solve a dense system")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    rng = np.random.default_rng(59)
    p = golden_params(beta=0.7, mu=mu)
    h0 = random_nil(rng, rep_len=rep_len)
    w = delta0(p, h0)
    h = delta1_star_split(p, w).H
    assert norm_diff(h, h0) < 1e-10 * nil_sobolev_norm(h0, 0.0)


# ---------------------------------------------------------------------------
# splitting


def _toral_cochain(rng):
    def toral(degree):
        coeffs = {}
        for _ in range(6):
            k = tuple(int(x) for x in rng.integers(-degree, degree + 1, size=2))
            coeffs[k] = rng.standard_normal() + 1j * rng.standard_normal()
        return NilFunction(toral=TorusFunction(2, coeffs))

    return Cochain1(toral(4), toral(3))


def test_split_meets_a_resonant_alpha_only_on_its_support():
    # the inverses take no witness: at alpha = (1, 1/2) a cochain off the
    # resonant modes splits, and the resonant mode (1, -2) on the support is
    # refused where the small-divisor solve meets it
    p = golden_params(alpha=(1.0, 0.5))
    f = NilFunction(toral=TorusFunction(2, {(1, 0): 1.0, (-1, 0): 1.0}))
    s = delta1_star_split(p, Cochain1(f, NilFunction()))
    recon_f = apply_X1(p, s.H).add(s.f_err).add(NilFunction.constant(s.f_triv))
    assert norm_diff(recon_f, f) < 1e-14
    resonant = NilFunction(toral=TorusFunction(2, {(1, -2): 1.0, (-1, 2): 1.0}))
    with pytest.raises(Resonance, match=re.escape("resonant frequency (1, -2) ")):
        delta1_star_split(p, Cochain1(resonant, NilFunction()))


@pytest.mark.parametrize("mu", [0.0, 0.7, -2.0])
def test_split_of_toral_data_does_not_read_beta(mu):
    # beta enters only the central division of representation rows, so a
    # toral cochain splits bit for bit alike at beta = 0 and beta = 1
    w = _toral_cochain(np.random.default_rng(67))
    zero = delta1_star_split(golden_params(beta=0.0, mu=mu), w)
    one = delta1_star_split(golden_params(beta=1.0, mu=mu), w)
    for a, b in ((zero.H, one.H), (zero.f_err, one.f_err), (zero.g_err, one.g_err)):
        assert not a.keys and not b.keys
        assert np.array_equal(a.toral.block, b.toral.block)
    assert (zero.f_triv, zero.g_triv) == (one.f_triv, one.g_triv)
    assert zero.constants == one.constants


@pytest.mark.parametrize("mu", [0.0, 0.7])
@pytest.mark.parametrize("in_g", [True, False])
def test_zero_beta_is_refused_on_a_representation_row(mu, in_g):
    # one row, in g or only in f (then in the defect): the split refuses it
    # through the central division and names its block
    p = golden_params(beta=0.0, mu=mu)
    row = {(3, 0): np.array([1.0, -0.5, 0.25])}
    toral = TorusFunction(2, {(1, -2): 0.5, (2, 1): 1j})
    if in_g:
        w = Cochain1(NilFunction(toral=toral), NilFunction(reps=row))
    else:
        w = Cochain1(NilFunction(toral=toral, reps=row), NilFunction())
    with pytest.raises(Resonance, match=r"no inverse on representation n=3$"):
        delta1_star_split(p, w)


def test_split_of_cocycle_has_no_error_part():
    rng = np.random.default_rng(43)
    p = golden_params(beta=0.6)
    h0 = random_nil(rng)
    w = delta0(p, h0)
    w = Cochain1(
        w.f.add(NilFunction.constant(0.3)), w.g.add(NilFunction.constant(-0.2))
    )
    s = delta1_star_split(p, w)
    assert nil_sobolev_norm(s.f_err, 0.0) < 1e-10
    assert nil_sobolev_norm(s.g_err, 0.0) < 1e-10
    assert s.f_triv == pytest.approx(0.3)
    assert s.g_triv == pytest.approx(-0.2)
    recon_f = apply_X1(p, s.H).add(NilFunction.constant(s.f_triv))
    assert norm_diff(recon_f, w.f) < 1e-10 * max(w.norm(0.0), 1.0)


def test_split_single_rep_first_component():
    p = golden_params(beta=0.5)
    v = np.array([1.0 + 0.5j, -0.25])
    w = Cochain1(NilFunction(reps={(1, 0): v}), NilFunction())
    s = delta1_star_split(p, w)
    assert s.H.is_zero()
    assert np.allclose(s.f_err.rep(1), np.pad(v, (0, 0)), atol=1e-14)
    assert nil_sobolev_norm(s.g_err, 0.0) == 0.0


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_split_reconstruction_random(mu):
    rng = np.random.default_rng(47)
    p = golden_params(beta=0.8, mu=mu)
    w = Cochain1(random_nil(rng), random_nil(rng))
    s = delta1_star_split(p, w)
    scale = max(w.norm(0.0), 1.0)
    recon_f = apply_X1(p, s.H).add(s.f_err).add(NilFunction.constant(s.f_triv))
    recon_g = apply_X2(p, s.H).add(s.g_err).add(NilFunction.constant(s.g_triv))
    assert norm_diff(recon_f, w.f) < 1e-10 * scale
    assert norm_diff(recon_g, w.g) < 1e-10 * scale


def test_split_error_pair_reproduces_defect():
    rng = np.random.default_rng(53)
    p = golden_params(beta=0.8)
    w = Cochain1(random_nil(rng), random_nil(rng))
    s = delta1_star_split(p, w)
    phi = delta1(p, w)
    phi_err = delta1(p, Cochain1(s.f_err, s.g_err))
    assert norm_diff(phi_err, phi) < 1e-10 * max(nil_sobolev_norm(phi, 0.0), 1.0)


def _decayed_cochain(rng, K, rep_n, rep_len, decay=7.0):
    def decayed_nil():
        coeffs = {}
        for k1 in range(-K, K + 1):
            for k2 in range(-K, K + 1):
                if (k1, k2) == (0, 0):
                    continue
                w = (1.0 + k1 * k1 + k2 * k2) ** (-decay / 2.0)
                coeffs[(k1, k2)] = w * (
                    rng.standard_normal() + 1j * rng.standard_normal()
                )
        reps = {}
        for n in range(1, rep_n + 1):
            for sign in (1, -1):
                j = np.arange(rep_len)
                w = (1.0 + n * n + n * (2 * j + 1)) ** (-decay / 2.0)
                reps[(sign * n, 0)] = w * (
                    rng.standard_normal(rep_len) + 1j * rng.standard_normal(rep_len)
                )
        return NilFunction(toral=TorusFunction(2, coeffs), reps=reps)

    return Cochain1(decayed_nil(), decayed_nil())


def _truncate_nil(F, degree, length):
    reps = {k: v[:length] for k, v in F.reps.items()}
    return NilFunction(toral=F.toral.truncated(degree), reps=reps)


def test_split_constants_plateau_under_doubling():
    rng = np.random.default_rng(59)
    p = golden_params(beta=0.9)
    master = _decayed_cochain(rng, K=8, rep_n=4, rep_len=8)
    ratios = []
    for degree, length in ((4, 4), (8, 8)):
        w = Cochain1(
            _truncate_nil(master.f, degree, length),
            _truncate_nil(master.g, degree, length),
        )
        s = delta1_star_split(p, w)
        ratios.append(s.constants)
    for key in ("h_ratio", "err_ratio"):
        small, big = ratios[0][key], ratios[1][key]
        assert abs(big - small) <= 0.10 * max(big, 1e-300)


# ---------------------------------------------------------------------------
# leafwise Laplacian


def test_laplacian_kills_constants():
    assert leafwise_laplacian_apply(golden_params(), NilFunction.constant(5.0)).is_zero()


def test_laplacian_on_toral_mode():
    p = golden_params()
    F = NilFunction(toral=TorusFunction(2, {(1, 2): 1.0}))
    out = leafwise_laplacian_apply(p, F)
    assert coeff(out.toral, (1, 2)) == pytest.approx(-(2 * math.pi * (1 + 2 * PHI)) ** 2)


def test_laplacian_matches_assembled_matrix():
    rng = np.random.default_rng(61)
    p = golden_params(beta=0.4, mu=0.3)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    F = NilFunction(reps={(2, 0): v})
    out = leafwise_laplacian_apply(p, F)
    size = 8
    a = dense_ladder(2, size, p.x1_y)
    b = dense_ladder(2, size, p.x2_y, p.x2_z[0])
    vp = np.zeros(size, dtype=complex)
    vp[:6] = v
    oracle = (a @ a + b @ b) @ vp
    assert np.allclose(out.rep(2), oracle, atol=1e-10)


def test_laplacian_solve_trivial_cases():
    p = golden_params()
    assert laplacian_solve(p, NilFunction()).is_zero()
    F = NilFunction(toral=TorusFunction(2, {(2, 1): 3.0}))
    h = laplacian_solve(p, F)
    assert coeff(h.toral, (2, 1)) == pytest.approx(
        -3.0 / (2 * math.pi * (2 + PHI)) ** 2
    )
    # the message names the obstruction
    with pytest.raises(NonzeroAverage, match=re.escape("average (1+0j)")):
        laplacian_solve(p, NilFunction.constant(1.0))


def test_laplacian_solve_roundtrip():
    rng = np.random.default_rng(67)
    p = golden_params(beta=0.8)
    h0 = random_nil(rng)
    s = leafwise_laplacian_apply(p, h0)
    h = laplacian_solve(p, s)
    assert norm_diff(h, h0) < 1e-10 * nil_sobolev_norm(h0, 0.0)


@pytest.mark.parametrize("tol, converges", [(1e-7, True), (1e-9, False)])
def test_laplacian_solve_never_exceeds_size_cap(monkeypatch, tol, converges):
    # at beta = 1/3 a 40-entry row needs the largest truncation: sizes double
    # from 80, and the last attempt is at the cap itself
    sizes = []

    def recording(n, size, y, z):
        sizes.append(size)
        return _bands(n, size, y, z)

    monkeypatch.setattr(cohomology, "_bands", recording)
    p = golden_params(beta=1.0 / 3.0)
    v = np.random.default_rng(83).standard_normal(40)
    source = NilFunction(reps={(1, 0): v})
    if converges:
        h = laplacian_solve(p, source, tol=tol)
        assert len(h.rep(1)) == cohomology._LAP_SIZE_CAP
    else:
        with pytest.raises(Resonance):
            laplacian_solve(p, source, tol=tol)
    # none exceeds the cap of 8192
    assert sizes == [80, 160, 320, 640, 1280, 2560, 5120, 8192]


@pytest.mark.parametrize("mu", [0.0, 0.7])
def test_laplacian_solve_refuses_zero_beta_before_any_size(monkeypatch, mu):
    # at beta = 0 block n is (1 + mu^2) X1^2, whose inverse is unbounded
    def refuse(*args, **kwargs):
        raise AssertionError("no truncation may be tried at beta = 0")

    monkeypatch.setattr(cohomology, "_bands", refuse)
    p = golden_params(beta=0.0, mu=mu)
    with pytest.raises(Resonance, match=r"no bounded inverse at n=-3$"):
        laplacian_solve(p, NilFunction(reps={(-3, 2): np.ones(5)}))


def _toral_laplacian_reference(p, block, tol=1e-9):
    # reference: the two-grid quotient laplacian_solve's toral block replaced,
    # -c / (d1^2 + d2^2) with d_i = 2 pi k.x_i, and its resonance rule
    D = len(block) // 2
    r = np.arange(-D, D + 1)
    k0, k1 = r[:, None], r[None, :]
    d1 = 2 * math.pi * (k0 * p.x1_y[0] + k1 * p.x1_y[1])
    d2 = 2 * math.pi * (k0 * p.x2_y[0] + k1 * p.x2_y[1])
    support = block != 0
    support[D, D] = False
    eps = np.finfo(float).eps
    floor = 2 * math.pi * 8 * eps * (np.abs(k0 * p.x1_y[0]) + np.abs(k1 * p.x1_y[1]))
    resonant = support & (np.abs(d1) <= floor) & (np.abs(d2) <= tol)
    if resonant.any():
        return None, tuple(int(i) - D for i in np.argwhere(resonant)[-1])
    out = np.zeros_like(block)
    out[support] = -block[support] / (d1 * d1 + d2 * d2)[support]
    return out, None


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("mu", [0.0, 0.7, -2.0])
def test_laplacian_solve_toral_block_matches_the_two_grid_quotient(mu, real):
    rng = np.random.default_rng(89)
    D = 6
    block = rng.standard_normal((2 * D + 1,) * 2) + 1j * rng.standard_normal((2 * D + 1,) * 2)
    if real:
        block = block + np.conj(np.flip(block))
    block[D, D] = 0
    source = NilFunction(toral=TorusFunction(2, block))
    p = golden_params(beta=0.8, mu=mu)
    ref, mode = _toral_laplacian_reference(p, source.toral.block)
    assert mode is None
    h = laplacian_solve(p, source)
    assert h.toral.real == real
    assert float(np.max(np.abs(h.toral.block - ref))) <= 1e-14 * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("mu", [0.0, 0.7, -2.0])
def test_laplacian_solve_toral_resonance_matches_the_two_grid_rule(mu):
    # at alpha = (1, 0.5) the modes +-(1, -2) and +-(2, -4) resonate; both
    # rules report the last one in block order
    coeffs = {(1, -2): 1.0, (-2, 4): 0.5, (2, -4): 0.25, (1, 1): 2.0}
    source = NilFunction(toral=TorusFunction(2, coeffs))
    p = golden_params(mu=mu, alpha=(1.0, 0.5))
    _ref, mode = _toral_laplacian_reference(p, source.toral.block)
    assert mode == (2, -4)
    with pytest.raises(Resonance, match=re.escape("resonant frequency %r " % (mode,))):
        laplacian_solve(p, source)


def test_dual_route_splittings_agree():
    rng = np.random.default_rng(71)
    p = golden_params(beta=0.8)
    w = Cochain1(random_nil(rng, real=True), random_nil(rng, real=True))
    scale = max(w.norm(0.0), 1.0)
    direct = delta1_star_split(p, w)
    lap = split_via_laplacian(p, w)
    for s in (direct, lap):
        recon_f = apply_X1(p, s.H).add(s.f_err).add(NilFunction.constant(s.f_triv))
        recon_g = apply_X2(p, s.H).add(s.g_err).add(NilFunction.constant(s.g_triv))
        assert norm_diff(recon_f, w.f) < 1e-9 * scale
        assert norm_diff(recon_g, w.g) < 1e-9 * scale
    # the two error pairs differ by a coboundary plus constants, so their
    # difference is itself a cocycle
    df = direct.f_err.sub(lap.f_err)
    dg = direct.g_err.sub(lap.g_err)
    assert nil_sobolev_norm(delta1(p, Cochain1(df, dg)), 0.0) < 1e-9 * scale


# ---------------------------------------------------------------------------
# spectra and certificates


def _gh_node_law(p, n, M):
    from numpy.polynomial.hermite import hermgauss

    rho2 = p.x1_y[0] ** 2 + (2 * math.pi * n * p.x1_y[1]) ** 2
    r = 2 * math.pi * n * p.x2_z[0]
    nodes, _ = hermgauss(M)
    return np.sort(-(rho2 * nodes**2 + r * r))[::-1]


@pytest.mark.parametrize("M", [32, 64])
def test_rep_spectrum_matches_node_law(M):
    p = golden_params(beta=1.0)
    ev = np.array(rep_spectrum(p, 1, M))
    law = _gh_node_law(p, 1, M)
    t = trusted_count(M)
    assert np.max(np.abs(ev[:t] - law[:t]) / np.abs(law[:t])) < 1e-10
    assert np.all(ev <= 1e-9)


@pytest.mark.parametrize(
    "M, beta",
    [(16, 1.0), (17, 1.0), (64, 1.0), (16, 0.0), (17, 0.0), (64, 0.0)],
    ids=["16", "17", "64", "16-beta0", "17-beta0", "64-beta0"],
)
@pytest.mark.parametrize("n", [1, -3, 12])
@pytest.mark.parametrize("mu", [0.0, -2.0, 0.7])
def test_rep_spectrum_matches_dense_generator_squares(mu, n, M, beta):
    # oracle: the dense sum of squared generator matrices, symmetrized
    p = golden_params(beta=beta, mu=mu)
    a = dense_ladder(n, M, p.x1_y)
    b = dense_ladder(n, M, p.x2_y, p.x2_z[0])
    lap = a @ a + b @ b
    dense = np.sort(np.linalg.eigvalsh((lap + lap.conj().T) / 2.0))[::-1]
    ev = np.array(rep_spectrum(p, n, M))
    if beta == 0 and M % 2:
        # the middle node makes 0 an exact eigenvalue; the dense oracle
        # resolves it only to roundoff of the block's largest eigenvalue
        scale = np.abs(dense).max()
        assert abs(ev[0]) <= 1e-14 * scale and abs(dense[0]) <= 1e-14 * scale
        ev, dense = ev[1:], dense[1:]
    assert np.max(np.abs(ev - dense) / np.abs(dense)) < 1e-10
    # never below the closed-form bottom (2 pi n beta)^2 / (1 + mu^2)
    bottom = (2 * math.pi * n * p.x2_z[0]) ** 2 / (1 + mu * mu)
    assert np.all(np.abs(ev[: trusted_count(M)]) >= bottom * (1 - 1e-9))


def _rep_spectrum_elementwise(params, n, M):
    # the element-by-element form of rep_spectrum, kept as its oracle
    rho, c = cohomology._block_scales(params, n)
    t = rho * cohomology._hermite_nodes(M)
    return [float(-x) for x in np.sort(t * t + (params.mu * t + c) ** 2)]


@pytest.mark.parametrize("M", [16, 17, 256])
@pytest.mark.parametrize("n", [1, -3])
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("mu", [0.0, 0.7, -2.0])
def test_rep_spectrum_matches_the_elementwise_negation_bit_for_bit(mu, beta, n, M):
    p = golden_params(beta=beta, mu=mu)
    ev = rep_spectrum(p, n, M)
    oracle = _rep_spectrum_elementwise(p, n, M)
    assert all(type(x) is float for x in ev)
    assert np.array_equal(ev, oracle)
    np.testing.assert_array_equal(np.signbit(ev), np.signbit(oracle))


@pytest.mark.parametrize("M", [16, 17])
@pytest.mark.parametrize("mu", [0.0, 0.7])
def test_rep_spectrum_keeps_the_sign_of_an_exact_zero(mu, M):
    # a tiny alpha at beta = 0 underflows every t^2 + (mu t)^2 to an exact
    # 0.0, not only the middle node's
    p = golden_params(beta=0.0, mu=mu, alpha=(1e-170, 1e-170 * PHI))
    ev = rep_spectrum(p, 1, M)
    assert ev == _rep_spectrum_elementwise(p, 1, M)
    assert all(x == 0.0 and math.copysign(1.0, x) == -1.0 for x in ev)


@pytest.mark.parametrize(
    "mu, beta, alpha",
    [(1e160, 1.0, (1.0, PHI)), (0.0, 1e300, (1.0, PHI)), (0.0, 1.0, (1e300, PHI))],
    ids=["mu", "beta", "alpha"],
)
def test_rep_spectrum_refuses_an_overflowing_block_without_a_warning(mu, beta, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows at alpha"):
            rep_spectrum(golden_params(beta=beta, mu=mu, alpha=alpha), 1, 32)


@pytest.mark.parametrize("M", [16, 17, 48, 256])
@pytest.mark.parametrize("mu", [0.0, 0.7, -2.0])
def test_truncated_spectrum_is_even_in_n_bit_for_bit(mu, M):
    # the nodes are exactly antisymmetric, as the exact Gauss-Hermite nodes
    # are, so blocks n and -n have the same eigenvalues, zero signs included
    x = cohomology._hermite_nodes(M)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x + x[::-1], np.zeros(M))
    if M % 2:
        assert x[M // 2] == 0.0
    for beta in (0.0, 0.7):
        p = golden_params(beta=beta, mu=mu)
        a, b = rep_spectrum(p, 1, M), rep_spectrum(p, -1, M)
        assert a == b
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))
        if beta == 0 and M % 2:
            # the middle node's eigenvalue is the closed form's exact -0.0
            assert a[0] == 0.0 and math.copysign(1.0, a[0]) == -1.0


def test_rep_spectrum_even_in_n():
    p = golden_params(beta=0.7)
    a = np.array(rep_spectrum(p, 3, 32))
    b = np.array(rep_spectrum(p, -3, 32))
    assert np.max(np.abs(a - b)) < 1e-9 * np.max(np.abs(a))


def test_rep_spectrum_beta_shift():
    p1 = golden_params(beta=1.0)
    p2 = golden_params(beta=1.5)
    n, M = 2, 32
    a = np.array(rep_spectrum(p1, n, M))
    b = np.array(rep_spectrum(p2, n, M))
    shift = -((2 * math.pi * n) ** 2) * (1.5**2 - 1.0**2)
    assert np.max(np.abs(b - (a + shift))) < 1e-8 * np.max(np.abs(a))


def test_rep_spectrum_validation():
    with pytest.raises(ValueError):
        rep_spectrum(golden_params(), 0, 32)
    with pytest.raises(ValueError):
        rep_spectrum(golden_params(), 1, 8)
    # the dense node matrix is M x M; 6325^2 is past the 4e7-entry cap
    for M in (6325, 100000):
        with pytest.raises(DimensionMismatch, match="Hermite truncation too large"):
            rep_spectrum(golden_params(), 1, M)


def test_gh_certificate_golden_certified():
    p = golden_params(beta=1.0)
    report = gh_certificate(p, N=6, M=32, K=20)
    assert report["certified"]
    minima = [row["min_abs"] for row in report["rep"]]
    for a, b in zip(minima, minima[1:]):
        assert b >= a * 0.95
    assert report["fit"]["d"] >= 0.9
    assert report["toral"]["min"] >= report["toral"]["witness_bound"] * (1 - 1e-9)


def test_gh_certificate_scans_its_frequency_box_once(monkeypatch):
    p = golden_params()
    # the separate witnesses, each with its own scan, before the count
    k_star, div = diophantine.min_small_divisor(p.x1_y, 20)
    wit = diophantine.fit_witness(p.x1_y, 1.0, 20)
    calls = []
    reduced = diophantine._reduced_grid
    monkeypatch.setattr(
        diophantine, "_reduced_grid", lambda *args: calls.append(args) or reduced(*args)
    )
    report = gh_certificate(p, 4, 32, 20)
    assert len(calls) == 1
    assert report["toral"] == {
        "min": (2 * math.pi * div) ** 2,
        "argmin": k_star,
        "witness_bound": (2 * math.pi * wit.lower_bound(k_star)) ** 2,
    }
    for row in report["rep"]:
        ev = rep_spectrum(p, row["n"], 32)[: trusted_count(32)]
        assert row["truncated_min"] == min(abs(x) for x in ev)


def test_gh_certificate_resonant_negative():
    p = golden_params(alpha=(1.0, 0.5))
    report = gh_certificate(p, N=3, M=32, K=10)
    assert not report["certified"]
    assert report["resonant_mode"] == (1, -2)


def test_gh_certificate_degenerate_beta():
    p = golden_params(beta=0.0)
    report = gh_certificate(p, N=3, M=32, K=10)
    assert report["beta_degenerate"]
    assert not report["certified"]


def test_gh_certificate_zero_bottom_has_its_reason():
    p = golden_params(beta=0.0)
    report = gh_certificate(p, N=4, M=64, K=50)
    assert not report["certified"]
    assert report["reason"] == "ZeroSpectralBottom"
    assert "resonant_mode" not in report
    assert all(row["min_abs"] == 0.0 for row in report["rep"])
    # a resonant toral side is reported as the resonance it is
    resonant = gh_certificate(golden_params(beta=0.0, alpha=(1.0, 0.5)), N=3, M=32, K=10)
    assert resonant["resonant_mode"] == (1, -2)
    assert "reason" not in resonant


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_joint_kernel_counts_toral_modes_only(monkeypatch, beta):
    def refuse(*args, **kwargs):
        raise AssertionError("joint_kernel_dim must not touch representation blocks")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(cohomology, "_bands", refuse)
    assert joint_kernel_dim(golden_params(beta=beta), K=12) == 1


def test_joint_kernel_golden():
    p = golden_params(beta=1.0)
    assert joint_kernel_dim(p, K=12, tol=1e-8) == 1


def test_joint_kernel_degenerate_direction():
    p = golden_params(alpha=(1.0, 0.0))
    K = 6
    count = joint_kernel_dim(p, K=K, tol=1e-8)
    assert count == 2 * K + 1
    assert count > 1


def _joint_kernel_two_grids(p, K, tol):
    # reference: the relative count on separate k.x1 and k.x2 grids, in exact
    # rational arithmetic; a mode counts where both |k.x| <= tol sum |k_i x_i|
    def annihilated(x, k):
        x = [Fraction(float(c)) for c in x]
        return abs(sum(ki * c for ki, c in zip(k, x))) <= Fraction(tol) * sum(
            abs(ki * c) for ki, c in zip(k, x))

    r = range(-K, K + 1)
    return sum(annihilated(p.x1_y, k) and annihilated(p.x2_y, k) for k in itertools.product(r, r))


@pytest.mark.parametrize("alpha", [(1.0, PHI), (1.0, 0.5), (1.0, 0.0), (0.3, 0.7)])
def test_joint_kernel_matches_the_two_grid_count(alpha):
    """X2 = mu X1 adds no constraint under the relative test: the count is
    X1's alone, whatever mu and beta are."""
    counts = set()
    for K in (3, 12):
        for tol in (1e-8, 1e-3, 0.5, 10.0):
            wants = set()
            for mu in (0.0, 0.7, -2.0, 50.0):
                want = _joint_kernel_two_grids(golden_params(mu=mu, alpha=alpha), K, tol)
                for beta in (0.0, 1.0):
                    p = golden_params(beta=beta, mu=mu, alpha=alpha)
                    assert joint_kernel_dim(p, K, tol=tol) == want, (mu, beta, K, tol)
                wants.add(want)
            # the k.x2 grid never changes the count: it is X1's at every mu
            assert len(wants) == 1
            counts |= wants
    # the sweep reaches counts beyond the constant mode
    assert len(counts) > 2


@pytest.mark.parametrize("m", [-64, 0, 64])
def test_joint_kernel_is_scale_invariant(m):
    # the test is relative: scaling alpha by a power of two moves no count
    for alpha, K, want in [((1.0, PHI), 50, 1), ((1.0, 1.6246211481433281), 50, 1),
                           ((1.0, 0.5), 12, 13), ((1.0, 0.0), 6, 13)]:
        p = golden_params(alpha=tuple(2.0**m * a for a in alpha))
        assert joint_kernel_dim(p, K) == want, (alpha, m)


def test_joint_kernel_validation():
    with pytest.raises(ValueError):
        joint_kernel_dim(golden_params(), 4, tol=0.0)
    for K in (0, -1):
        with pytest.raises(ValueError, match="K must be >= 1"):
            joint_kernel_dim(golden_params(), K)


# ---------------------------------------------------------------------------
# vector-field coefficients


def _const_vf_cochain(c):
    q, p = len(c.a1), len(c.b1)
    return VfCochain(
        VfField(
            tuple(NilFunction.constant(float(x)) for x in c.a1),
            tuple(NilFunction.constant(float(x)) for x in c.b1),
        ),
        VfField(
            tuple(NilFunction.constant(float(x)) for x in c.a2),
            tuple(NilFunction.constant(float(x)) for x in c.b2),
        ),
    )


def test_vf_delta0_bracket_terms():
    p = golden_params()
    h1 = NilFunction(toral=TorusFunction(2, {(1, 0): 1.0}))
    H = VfField((h1, NilFunction()), (NilFunction(),))
    w = vf_delta0(p, H)
    # Y-coefficients move by the generator derivative
    assert coeff(w.x1.y[0].toral, (1, 0)) == pytest.approx(2j * math.pi * 1.0)
    # the central coefficient picks up kappa = -x1_y[1] = -phi ([Y1, Y2] = Z)
    assert coeff(w.x1.z[0].toral, (1, 0)) == pytest.approx(-PHI)
    # X2 is flat on toral data at mu = 0 and brackets to zero with x2_y = 0
    assert w.x2.y[0].is_zero()
    assert w.x2.z[0].is_zero()


def test_vf_roundtrip():
    rng = np.random.default_rng(73)
    p = golden_params(beta=0.8)
    H0 = VfField(
        (random_nil(rng), random_nil(rng)),
        (random_nil(rng),),
    )
    Omega = vf_delta0(p, H0)
    H, residual = vf_coboundary_solve(p, Omega)
    scale = max(nil_sobolev_norm(h, 0.0) for h in H0.y + H0.z)
    for got, want in zip(H.y + H.z, H0.y + H0.z):
        assert norm_diff(got, want) < 1e-9 * scale
    assert max(map(abs, residual.to_vector())) < 1e-9 * scale


def test_vf_constant_representative_is_fixed():
    A = heisenberg()
    p = golden_params()
    _dim, reps = const_cohomology_basis(A, p)
    target = reps[0]
    Omega = _const_vf_cochain(target)
    H, residual = vf_coboundary_solve(p, Omega)
    got = np.array([complex(x) for x in residual.to_vector()])
    want = np.array([complex(x) for x in target.to_vector()])
    assert np.max(np.abs(got - want)) < 1e-12 * max(np.max(np.abs(want)), 1.0)
    for h in H.y + H.z:
        assert nil_sobolev_norm(h, 0.0) < 1e-12


def test_vf_mixed_residual_projects_to_representatives():
    rng = np.random.default_rng(79)
    A = heisenberg()
    p = golden_params(beta=0.8)
    _dim, reps = const_cohomology_basis(A, p)
    e = [1.0, -0.5, 0.25]  # constant coboundary source
    img = const_delta0(A, p, e)
    mix = ConstantCocycle.from_vector(
        [x + 0.6 * y for x, y in zip(img.to_vector(), reps[1].to_vector())],
        A.q,
        A.p,
    )
    H0 = VfField((random_nil(rng), random_nil(rng)), (random_nil(rng),))
    base = vf_delta0(p, H0)
    shift = _const_vf_cochain(mix)
    Omega = VfCochain(
        VfField(
            tuple(a.add(b) for a, b in zip(base.x1.y, shift.x1.y)),
            tuple(a.add(b) for a, b in zip(base.x1.z, shift.x1.z)),
        ),
        VfField(
            tuple(a.add(b) for a, b in zip(base.x2.y, shift.x2.y)),
            tuple(a.add(b) for a, b in zip(base.x2.z, shift.x2.z)),
        ),
    )
    _H, residual = vf_coboundary_solve(p, Omega)
    # independent projection: decompose the constant part in the image +
    # representative basis directly
    cols = []
    for j in range(A.dim):
        unit = [0.0] * A.dim
        unit[j] = 1.0
        cols.append([complex(x) for x in const_delta0(A, p, unit).to_vector()])
    for w in reps:
        cols.append([complex(x) for x in w.to_vector()])
    basis = np.array(cols, dtype=complex).T
    coords, *_ = np.linalg.lstsq(
        basis, np.array([complex(x) for x in mix.to_vector()]), rcond=None
    )
    expected = np.zeros(2 * A.dim, dtype=complex)
    for idx, w in enumerate(reps):
        expected += coords[A.dim + idx] * np.array(
            [complex(x) for x in w.to_vector()]
        )
    got = np.array([complex(x) for x in residual.to_vector()])
    assert np.max(np.abs(got - expected)) < 1e-9


def _lstsq_reduction(params, r):
    """Oracle: the constant vector r in the basis of the constant coboundaries
    of the Heisenberg algebra and the representatives of
    const_cohomology_basis, by least squares.  Returns the least-norm shift
    and the representative part, as real vectors."""
    A = heisenberg()
    image = [const_delta0(A, params, e).to_vector() for e in np.eye(A.dim).tolist()]
    _dim, reps = const_cohomology_basis(A, params)
    rep_cols = np.array([w.to_vector() for w in reps], dtype=float).T
    basis = np.hstack([np.array(image, dtype=float).T, rep_cols])
    coords, *_ = np.linalg.lstsq(basis, np.asarray(r, dtype=float), rcond=None)
    return coords[: A.dim], rep_cols @ coords[A.dim :]


@pytest.mark.parametrize("mu", [0.0, 0.7, -2.0])
def test_closed_form_obstruction_matches_lstsq_oracle(mu):
    rng = np.random.default_rng(83)
    p = golden_params(beta=0.8, mu=mu)
    alpha = np.array(p.alpha)
    for _ in range(20):
        y1, (z1, z2, t) = rng.standard_normal(2), rng.standard_normal(3)
        # a constant cocycle: y2 - mu y1 lies along alpha
        r = np.concatenate([y1, [z1], mu * y1 + t * alpha, [z2]])
        H, obstruction = vf_coboundary_solve(
            p, _const_vf_cochain(ConstantCocycle.from_vector(r, 2, 1))
        )
        shift = [complex(h.toral.average).real for h in H.slots]
        got = np.array(obstruction.to_vector(), dtype=float)
        image = np.array(const_delta0(heisenberg(), p, shift).to_vector(), dtype=float)
        assert np.max(np.abs(image + got - r)) < 1e-12
        want_shift, want = _lstsq_reduction(p, r)
        d = got - want
        # the two complements differ by a constant coboundary (0, t; 0, mu t)
        assert np.max(np.abs(d[[0, 1, 3, 4]])) < 1e-12
        assert abs(d[5] - mu * d[2]) < 1e-12
        if mu == 0:
            assert np.max(np.abs(d)) < 1e-12
            assert np.max(np.abs(np.array(shift) - want_shift)) < 1e-12


def test_zero_alpha_has_no_shift_and_returns_the_averages():
    # at alpha = 0 no constant field has a coboundary
    p = golden_params(mu=0.7, alpha=(0.0, 0.0))
    r = ConstantCocycle((0.1, -0.2), (0.3,), (0.4, 0.5), (-0.6,))
    H, obstruction = vf_coboundary_solve(p, _const_vf_cochain(r))
    assert obstruction == r
    assert all(h.is_zero() for h in H.slots)


def test_complex_average_is_refused_by_slot():
    Omega = VfCochain(
        VfField.constant((0.0, 0.0), (0.0,)),
        VfField.constant((0.0, 0.001 + 0.002j), (0.0,)),
    )
    with pytest.raises(ValueError, match="slot x2.y1 has a complex average"):
        vf_coboundary_solve(golden_params(), Omega)


def test_vf_shape_validation():
    p = golden_params()
    with pytest.raises(DimensionMismatch):
        vf_delta0(p, VfField((NilFunction(),), ()))
    with pytest.raises(DimensionMismatch):
        vf_coboundary_solve(
            p, VfCochain(VfField((NilFunction(),), ()), VfField((NilFunction(),), ()))
        )
