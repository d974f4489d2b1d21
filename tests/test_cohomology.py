import math

import numpy as np
import pytest

from nilflow.algebra import ActionParams, ConstantCocycle, const_cohomology_basis, const_delta0, heisenberg
from nilflow import cohomology
from nilflow.cohomology import (
    Cochain1,
    VfCochain,
    VfField,
    delta0,
    delta0_star,
    delta1,
    delta1_star_split,
    gh_certificate,
    joint_kernel_dim,
    laplacian_solve,
    leafwise_laplacian_apply,
    rep_spectrum,
    split_via_laplacian,
    trusted_count,
    vf_coboundary_solve,
    vf_delta0,
)
from nilflow.diophantine import fit_witness
from nilflow.errors import (
    DimensionMismatch,
    NonzeroAverage,
    NotACocycle,
    Resonance,
)
from nilflow.nilrep import NilFunction, RepOperator, apply_X1, apply_X2, nil_sobolev_norm
from nilflow.torus import TorusFunction

PHI = (1 + math.sqrt(5)) / 2


def golden_params(beta=1.0, mu=0.0, alpha=(1.0, PHI)):
    return ActionParams(alpha=alpha, beta=(beta,), mu=mu)


def golden_witnesses(K=50):
    return {"alpha": fit_witness((1.0, PHI), 1.0, K)}


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
    return NilFunction(toral=TorusFunction(2, coeffs, real=real), reps=reps)


# ---------------------------------------------------------------------------
# coboundaries


def test_delta0_on_constant():
    w = delta0(golden_params(), NilFunction.constant(2.0))
    assert w.is_zero()


def test_delta0_single_toral_mode():
    p = golden_params()
    h = NilFunction(toral=TorusFunction(2, {(2, -1): 1.0}))
    w = delta0(p, h)
    assert w.f.toral.coeff((2, -1)) == pytest.approx(2j * math.pi * (2 - PHI))
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
    assert phi.toral.coeff((1, 1)) == pytest.approx(-2j * math.pi * (1 + PHI) * 2.0)


def test_delta1_matches_matrix_assembly():
    rng = np.random.default_rng(19)
    p = golden_params(beta=0.75)
    f = NilFunction(reps={(2, 0): rng.standard_normal(5) + 1j * rng.standard_normal(5)})
    g = NilFunction(reps={(2, 0): rng.standard_normal(5) + 1j * rng.standard_normal(5)})
    phi = delta1(p, Cochain1(f, g))
    size = 6
    a = RepOperator(2, size, y=p.x1_y).matrix()
    b = RepOperator(2, size, y=p.x2_y, z=p.x2_z[0]).matrix()
    fp = np.zeros(size, dtype=complex)
    fp[:5] = f.rep(2)
    gp = np.zeros(size, dtype=complex)
    gp[:5] = g.rep(2)
    oracle = b @ fp - a @ gp
    assert np.allclose(phi.rep(2), oracle, atol=1e-12 * np.max(np.abs(oracle)))


# ---------------------------------------------------------------------------
# delta0_star


def test_delta0_star_zero():
    h = delta0_star(golden_params(), Cochain1(NilFunction(), NilFunction()))
    assert h.is_zero()


def test_delta0_star_constant_obstruction():
    w = Cochain1(NilFunction.constant(0.5), NilFunction.constant(-0.25))
    with pytest.raises(NonzeroAverage) as exc:
        delta0_star(golden_params(), w)
    assert exc.value.obstruction == (0.5, -0.25)


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_delta0_star_roundtrip(mu):
    rng = np.random.default_rng(29)
    p = golden_params(beta=0.7, mu=mu)
    h0 = random_nil(rng)
    w = delta0(p, h0)
    h = delta0_star(p, w, golden_witnesses())
    assert norm_diff(h, h0) < 1e-10 * nil_sobolev_norm(h0, 0.0)


def test_delta0_star_projects_out_constants():
    rng = np.random.default_rng(31)
    p = golden_params()
    h0 = random_nil(rng).add(NilFunction.constant(3.0))
    h = delta0_star(p, delta0(p, h0), golden_witnesses())
    expected = h0.sub(NilFunction.constant(3.0))
    assert norm_diff(h, expected) < 1e-10 * nil_sobolev_norm(h0, 0.0)


def test_delta0_star_rejects_non_cocycle():
    rng = np.random.default_rng(37)
    f = random_nil(rng)
    g = random_nil(rng)
    with pytest.raises(NotACocycle):
        delta0_star(golden_params(), Cochain1(f, g))


def test_delta0_star_rejects_toral_second_component():
    # nearly resonant frequency: the cocycle defect is below tolerance but the
    # toral part of the second component is not removable
    p = golden_params(alpha=(1.0, 0.5 + 1e-12))
    g = NilFunction(toral=TorusFunction(2, {(1, -2): 1.0}))
    with pytest.raises(NotACocycle):
        delta0_star(p, Cochain1(NilFunction(), g))


def test_delta0_star_witness_gate():
    wit = {"alpha": fit_witness((1.0, 0.5), 1.0, 10)}
    assert not wit["alpha"].valid
    with pytest.raises(Resonance):
        delta0_star(golden_params(alpha=(1.0, 0.5)), Cochain1(NilFunction(), NilFunction()), wit)


# ---------------------------------------------------------------------------
# splitting


def test_split_of_cocycle_has_no_error_part():
    rng = np.random.default_rng(43)
    p = golden_params(beta=0.6)
    h0 = random_nil(rng)
    w = delta0(p, h0)
    w = Cochain1(
        w.f.add(NilFunction.constant(0.3)), w.g.add(NilFunction.constant(-0.2))
    )
    s = delta1_star_split(p, w, golden_witnesses())
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
    s = delta1_star_split(p, w, golden_witnesses())
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
    wit = golden_witnesses()
    master = _decayed_cochain(rng, K=8, rep_n=4, rep_len=8)
    ratios = []
    for degree, length in ((4, 4), (8, 8)):
        w = Cochain1(
            _truncate_nil(master.f, degree, length),
            _truncate_nil(master.g, degree, length),
        )
        s = delta1_star_split(p, w, wit)
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
    assert out.toral.coeff((1, 2)) == pytest.approx(-(2 * math.pi * (1 + 2 * PHI)) ** 2)


def test_laplacian_matches_assembled_matrix():
    rng = np.random.default_rng(61)
    p = golden_params(beta=0.4, mu=0.3)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    F = NilFunction(reps={(2, 0): v})
    out = leafwise_laplacian_apply(p, F)
    size = 8
    a = RepOperator(2, size, y=p.x1_y).matrix()
    b = RepOperator(2, size, y=p.x2_y, z=p.x2_z[0]).matrix()
    vp = np.zeros(size, dtype=complex)
    vp[:6] = v
    oracle = (a @ a + b @ b) @ vp
    assert np.allclose(out.rep(2), oracle, atol=1e-10)


def test_laplacian_solve_trivial_cases():
    p = golden_params()
    assert laplacian_solve(p, NilFunction()).is_zero()
    F = NilFunction(toral=TorusFunction(2, {(2, 1): 3.0}))
    h = laplacian_solve(p, F)
    assert h.toral.coeff((2, 1)) == pytest.approx(
        -3.0 / (2 * math.pi * (2 + PHI)) ** 2
    )
    with pytest.raises(NonzeroAverage):
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
    bands = cohomology._rep_laplacian_bands

    def recording(params, n, size):
        sizes.append(size)
        return bands(params, n, size)

    monkeypatch.setattr(cohomology, "_rep_laplacian_bands", recording)
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


def test_dual_route_splittings_agree():
    rng = np.random.default_rng(71)
    p = golden_params(beta=0.8)
    wit = golden_witnesses()
    w = Cochain1(random_nil(rng, real=True), random_nil(rng, real=True))
    scale = max(w.norm(0.0), 1.0)
    direct = delta1_star_split(p, w, wit)
    lap = split_via_laplacian(p, w, wit)
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


@pytest.mark.parametrize("M", [16, 64])
@pytest.mark.parametrize("n", [1, -3, 12])
@pytest.mark.parametrize("mu", [0.0, -2.0, 0.7])
def test_rep_spectrum_matches_dense_generator_squares(mu, n, M):
    # oracle: the dense sum of squared generator matrices, symmetrized
    p = golden_params(beta=1.0, mu=mu)
    a = RepOperator(n, M, y=p.x1_y).matrix()
    b = RepOperator(n, M, y=p.x2_y, z=p.x2_z[0]).matrix()
    lap = a @ a + b @ b
    dense = np.sort(np.linalg.eigvalsh((lap + lap.conj().T) / 2.0))[::-1]
    ev = np.array(rep_spectrum(p, n, M))
    assert np.max(np.abs(ev - dense) / np.abs(dense)) < 1e-10
    # never below the closed-form bottom (2 pi n beta)^2 / (1 + mu^2)
    bottom = (2 * math.pi * n * p.x2_z[0]) ** 2 / (1 + mu * mu)
    assert np.all(np.abs(ev[: trusted_count(M)]) >= bottom * (1 - 1e-9))


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


def test_gh_certificate_golden_certified():
    p = golden_params(beta=1.0)
    report = gh_certificate(p, N=6, M=32, K=20, witnesses=golden_witnesses())
    assert report["certified"]
    minima = [row["min_abs"] for row in report["rep"]]
    for a, b in zip(minima, minima[1:]):
        assert b >= a * 0.95
    assert report["fit"]["d"] >= 0.9
    assert report["toral"]["min"] >= report["toral"]["witness_bound"] * (1 - 1e-9)


def test_gh_certificate_resonant_negative():
    p = golden_params(alpha=(1.0, 0.5))
    report = gh_certificate(p, N=3, M=32, K=10)
    assert not report["certified"]
    assert report["resonant_mode"] == (1, -2)


def test_gh_certificate_degenerate_beta():
    p = golden_params(beta=0.0)
    report = gh_certificate(p, N=3, M=32, K=10, witnesses=golden_witnesses())
    assert report["beta_degenerate"]
    assert not report["certified"]


def test_gh_certificate_zero_bottom_has_its_reason():
    p = golden_params(beta=0.0)
    report = gh_certificate(p, N=4, M=64, K=50, witnesses=golden_witnesses())
    assert not report["certified"]
    assert report["reason"] == "ZeroSpectralBottom"
    assert "resonant_mode" not in report
    assert all(row["min_abs"] == 0.0 for row in report["rep"])
    # a resonant toral side is reported as the resonance it is
    resonant = gh_certificate(golden_params(beta=0.0, alpha=(1.0, 0.5)), N=3, M=32, K=10)
    assert resonant["resonant_mode"] == (1, -2)
    assert "reason" not in resonant


def test_gh_certificate_refuses_parameters_outside_the_closed_form():
    p = ActionParams((1.0, PHI), (1.0,), mu=0.5, offset_a=(0.1, 0.0))
    with pytest.raises(ValueError):
        gh_certificate(p, N=3, M=32, K=10)
    # at mu = 0 the second generator has no Y-part, so offsets are fine
    assert gh_certificate(p.replace(mu=0), N=3, M=32, K=10)["certified"]


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_joint_kernel_counts_toral_modes_only(monkeypatch, beta):
    def refuse(*args, **kwargs):
        raise AssertionError("joint_kernel_dim must not touch representation blocks")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(cohomology, "RepOperator", refuse)
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


def test_joint_kernel_validation():
    with pytest.raises(ValueError):
        joint_kernel_dim(golden_params(), 4, tol=0.0)


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
    A = heisenberg()
    p = golden_params()
    h1 = NilFunction(toral=TorusFunction(2, {(1, 0): 1.0}))
    H = VfField((h1, NilFunction()), (NilFunction(),))
    w = vf_delta0(A, p, H)
    # Y-coefficients move by the generator derivative
    assert w.x1.y[0].toral.coeff((1, 0)) == pytest.approx(2j * math.pi * 1.0)
    # the central coefficient picks up kappa = x1_y[1] * c[1][0][0] = -phi
    assert w.x1.z[0].toral.coeff((1, 0)) == pytest.approx(-PHI)
    # X2 is flat on toral data at mu = 0 and brackets to zero with x2_y = 0
    assert w.x2.y[0].is_zero()
    assert w.x2.z[0].is_zero()


def test_vf_roundtrip():
    rng = np.random.default_rng(73)
    A = heisenberg()
    p = golden_params(beta=0.8)
    wit = golden_witnesses()
    H0 = VfField(
        (random_nil(rng), random_nil(rng)),
        (random_nil(rng),),
    )
    Omega = vf_delta0(A, p, H0)
    H, residual = vf_coboundary_solve(A, p, Omega, wit)
    scale = max(nil_sobolev_norm(h, 0.0) for h in H0.y + H0.z)
    for got, want in zip(H.y + H.z, H0.y + H0.z):
        assert norm_diff(got, want) < 1e-9 * scale
    assert residual.max_abs() < 1e-9 * scale


def test_vf_constant_representative_is_fixed():
    A = heisenberg()
    p = golden_params()
    _dim, reps = const_cohomology_basis(A, p)
    target = reps[0]
    Omega = _const_vf_cochain(target)
    H, residual = vf_coboundary_solve(A, p, Omega)
    got = np.array([complex(x) for x in residual.to_vector()])
    want = np.array([complex(x) for x in target.to_vector()])
    assert np.max(np.abs(got - want)) < 1e-12 * max(np.max(np.abs(want)), 1.0)
    for h in H.y + H.z:
        assert nil_sobolev_norm(h, 0.0) < 1e-12


def test_vf_mixed_residual_projects_to_representatives():
    rng = np.random.default_rng(79)
    A = heisenberg()
    p = golden_params(beta=0.8)
    wit = golden_witnesses()
    _dim, reps = const_cohomology_basis(A, p)
    e = [1.0, -0.5, 0.25]  # constant coboundary source
    img = const_delta0(A, p, e)
    mix = ConstantCocycle.from_vector(
        [x + 0.6 * y for x, y in zip(img.to_vector(), reps[1].to_vector())],
        A.q,
        A.p,
    )
    H0 = VfField((random_nil(rng), random_nil(rng)), (random_nil(rng),))
    base = vf_delta0(A, p, H0)
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
    _H, residual = vf_coboundary_solve(A, p, Omega, wit)
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


def test_vf_shape_validation():
    A = heisenberg()
    p = golden_params()
    with pytest.raises(DimensionMismatch):
        vf_delta0(A, p, VfField((NilFunction(),), ()))
    with pytest.raises(DimensionMismatch):
        vf_coboundary_solve(
            A, p, VfCochain(VfField((NilFunction(),), ()), VfField((NilFunction(),), ()))
        )
