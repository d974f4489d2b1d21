import json
import math
import tracemalloc

import numpy as np
import pytest

from nilflow.algebra import ActionParams, heisenberg
from nilflow import cohomology, rigidity
from nilflow.cohomology import (
    Cochain1,
    VfCochain,
    VfField,
    delta1,
    vf_coboundary_solve,
    vf_delta0,
)
from nilflow.cli import main
from nilflow.corpus import member_rng, toral_function, vf_cocycle_member
from nilflow.errors import (
    DimensionMismatch,
    FormatError,
    ThresholdExceeded,
    UnrepresentableProduct,
    UnsupportedPerturbation,
)
from nilflow.nilrep import (
    _GENERATORS,
    NilFunction,
    _apply_element,
    apply_X1,
    apply_X2,
    nil_sobolev_norm,
    serialize_nil_function,
)
from nilflow.rigidity import (
    FamilyCoordinates,
    _named_slots,
    newton_step,
    nil_multiply,
    parse_vf_cochain,
    project_P,
    section_s,
    smoothing_truncate,
    vf_bracket,
)
from nilflow.torus import TorusFunction, _smooth_size, _zeros

from oracles import (
    delta0,
    delta_op,
    double_sum_bracket,
    newton_step_two_splits,
    shift_and_add,
)
from toral_coeffs import coeff, coeffs

PHI = (1 + math.sqrt(5)) / 2


def golden_params(beta=1.0, mu=0.0):
    return ActionParams(alpha=(1.0, PHI), beta=(beta,), mu=mu)


def norm_diff(F, G):
    return nil_sobolev_norm(F.sub(G), 0.0)


def toral_nil(coeffs):
    return NilFunction(toral=TorusFunction(2, coeffs))


def rand_toral(rng, deg=3, real=True):
    coeffs = {}
    for k1 in range(-deg, deg + 1):
        for k2 in range(-deg, deg + 1):
            if (k1, k2) == (0, 0):
                continue
            c = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[(k1, k2)] = coeffs.get((k1, k2), 0) + c
            if real:
                neg = (-k1, -k2)
                coeffs[neg] = coeffs.get(neg, 0) + c.conjugate()
    return NilFunction(toral=TorusFunction(2, coeffs))


def rand_field(rng, scale=1.0, deg=2):
    return VfField(
        (rand_toral(rng, deg).scaled(scale), rand_toral(rng, deg).scaled(scale)),
        (rand_toral(rng, deg).scaled(scale),),
    )


# ---------------------------------------------------------------------------
# projection and section


def test_section_of_zero_is_zero():
    sec = section_s(golden_params(mu=0.3), FamilyCoordinates(0.0, (0.0, 0.0, 0.0)))
    for h in sec.x1.y + sec.x1.z + sec.x2.y + sec.x2.z:
        assert h.is_zero()


@pytest.mark.parametrize(
    "alpha, lam",
    [
        ((1.0, PHI), (0.1, 0.2)),
        ((1.0, PHI), (0.1, 0.2, 0.3, 0.4)),
        ((1.0, PHI, 2.0), (0.1, 0.2, 0.3)),
    ],
    ids=["two-offsets", "four-offsets", "three-alpha"],
)
def test_section_refuses_fields_outside_the_frame(alpha, lam):
    p = ActionParams(alpha=alpha, beta=(1.0,), mu=0.0)
    with pytest.raises(DimensionMismatch):
        section_s(p, FamilyCoordinates(0.3, lam))


@pytest.mark.parametrize("mu", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_projection_inverts_section(mu):
    p = golden_params().replace(mu=mu)
    coords = FamilyCoordinates(0.37, (0.21, -0.11, 0.05))
    got = project_P(p, section_s(p, coords))
    assert np.allclose(got.vector, coords.vector, atol=1e-12)


def test_section_is_linear():
    p = golden_params()
    c1 = FamilyCoordinates(0.2, (0.1, -0.3, 0.4))
    c2 = FamilyCoordinates(-0.5, (0.25, 0.0, -0.2))
    c3 = FamilyCoordinates(c1.mu1 + c2.mu1, tuple(a + b for a, b in zip(c1.lam, c2.lam)))
    s1, s2, s3 = (section_s(p, c) for c in (c1, c2, c3))
    for a, b, c in zip(
        s1.x1.y + s1.x2.y + s1.x2.z,
        s2.x1.y + s2.x2.y + s2.x2.z,
        s3.x1.y + s3.x2.y + s3.x2.z,
    ):
        assert norm_diff(a.add(b), c) < 1e-12


def test_projection_is_linear():
    rng = np.random.default_rng(5)
    p = golden_params()
    o1 = VfCochain(rand_field(rng), rand_field(rng))
    o2 = VfCochain(rand_field(rng), rand_field(rng))
    both = VfCochain(
        VfField(
            tuple(a.add(b) for a, b in zip(o1.x1.y, o2.x1.y)),
            tuple(a.add(b) for a, b in zip(o1.x1.z, o2.x1.z)),
        ),
        VfField(
            tuple(a.add(b) for a, b in zip(o1.x2.y, o2.x2.y)),
            tuple(a.add(b) for a, b in zip(o1.x2.z, o2.x2.z)),
        ),
    )
    v1 = np.array(project_P(p, o1).vector)
    v2 = np.array(project_P(p, o2).vector)
    v3 = np.array(project_P(p, both).vector)
    assert np.allclose(v1 + v2, v3, atol=1e-12)


def test_projection_kills_coboundaries():
    rng = np.random.default_rng(7)
    p = golden_params()
    omega = vf_delta0(p, rand_field(rng))
    assert np.allclose(project_P(p, omega).vector, 0.0, atol=1e-12)


def test_projection_recovers_constant_cocycle():
    p = golden_params()
    a, mu1, b = (0.3, -0.7), 0.45, (0.12,)
    omega = VfCochain(
        VfField(
            tuple(NilFunction.constant(x) for x in a),
            (NilFunction(),),
        ),
        VfField(
            tuple(NilFunction.constant(mu1 * x) for x in p.alpha),
            tuple(NilFunction.constant(x) for x in b),
        ),
    )
    got = project_P(p, omega)
    assert got.mu1 == pytest.approx(mu1, abs=1e-14)
    assert got.lam == pytest.approx(a + b, abs=1e-14)


def test_projection_needs_leading_frequency():
    p = ActionParams(alpha=(0.0, PHI), beta=(1.0,))
    omega = VfCochain(
        VfField((NilFunction(), NilFunction()), (NilFunction(),)),
        VfField((NilFunction(), NilFunction()), (NilFunction(),)),
    )
    with pytest.raises(ValueError):
        project_P(p, omega)


# ---------------------------------------------------------------------------
# the regularizer of the two-split oracle (`oracles.delta_op`)


def test_delta_op_fixes_cocycles():
    rng = np.random.default_rng(11)
    p = golden_params()
    h0 = rand_toral(rng)
    w = delta0(p, h0)
    w = Cochain1(w.f.add(NilFunction.constant(0.4)), w.g.add(NilFunction.constant(-0.6)))
    out = delta_op(p, w)
    scale = max(w.norm(0.0), 1.0)
    assert norm_diff(out.f, w.f) < 1e-12 * scale
    assert norm_diff(out.g, w.g) < 1e-12 * scale


def test_delta_op_reduces_pure_error_to_constants():
    p = golden_params(beta=0.5)
    f = NilFunction(reps={(1, 0): np.array([0.5, -1.0])})
    w = Cochain1(f.add(NilFunction.constant(0.25)), NilFunction.constant(-0.125))
    out = delta_op(p, w)
    assert norm_diff(out.f, NilFunction.constant(0.25)) < 1e-12
    assert norm_diff(out.g, NilFunction.constant(-0.125)) < 1e-12


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_delta_op_output_is_closed(mu):
    rng = np.random.default_rng(13)
    p = golden_params(mu=mu)
    w = Cochain1(rand_toral(rng), rand_toral(rng))
    out = delta_op(p, w)
    scale = max(w.norm(0.0), 1.0)
    assert nil_sobolev_norm(delta1(p, out), 0.0) < 1e-9 * scale
    again = delta_op(p, out)
    assert norm_diff(again.f, out.f) < 1e-9 * scale
    assert norm_diff(again.g, out.g) < 1e-9 * scale


def test_delta_op_vector_field_slots():
    rng = np.random.default_rng(17)
    p = golden_params()
    omega = vf_delta0(p, rand_field(rng))
    shifted = VfCochain(
        VfField(
            tuple(h.add(NilFunction.constant(0.1)) for h in omega.x1.y),
            omega.x1.z,
        ),
        omega.x2,
    )
    out = delta_op(p, shifted)
    for got, want in zip(
        out.x1.y + out.x1.z + out.x2.y + out.x2.z,
        shifted.x1.y + shifted.x1.z + shifted.x2.y + shifted.x2.z,
    ):
        assert norm_diff(got, want) < 1e-10 * max(nil_sobolev_norm(want, 0.0), 1.0)


# ---------------------------------------------------------------------------
# smoothing


def test_truncate_is_identity_above_support():
    rng = np.random.default_rng(19)
    F = rand_toral(rng, deg=3)
    F = NilFunction(
        toral=F.toral, reps={(2, 0): rng.standard_normal(3) + 0j}
    )
    assert norm_diff(smoothing_truncate(F, 5), F) == 0.0


def test_truncate_preserves_constants():
    F = NilFunction.constant(2.5)
    out = smoothing_truncate(F, 0)
    assert complex(out.toral.average) == 2.5
    assert not out.reps


def test_truncate_commutes_with_projection():
    rng = np.random.default_rng(23)
    p = golden_params()
    lifted = rand_field(rng, deg=4)
    lifted = VfField(
        (lifted.y[0].add(NilFunction.constant(0.3)), lifted.y[1]), lifted.z
    )
    omega = VfCochain(lifted, rand_field(rng, deg=4))
    cut = VfCochain(
        VfField(
            tuple(smoothing_truncate(h, 2) for h in omega.x1.y),
            tuple(smoothing_truncate(h, 2) for h in omega.x1.z),
        ),
        VfField(
            tuple(smoothing_truncate(h, 2) for h in omega.x2.y),
            tuple(smoothing_truncate(h, 2) for h in omega.x2.z),
        ),
    )
    assert project_P(p, cut).vector == project_P(p, omega).vector


def test_truncate_error_bound():
    rng = np.random.default_rng(29)
    from nilflow.nilrep import nil_sobolev_norm as norm

    for trial in range(5):
        toral = rand_toral(rng, deg=8)
        F = NilFunction(
            toral=toral.toral,
            reps={
                (1, 0): rng.standard_normal(4) + 1j * rng.standard_normal(4),
                (5, 0): rng.standard_normal(4) + 1j * rng.standard_normal(4),
            },
        )
        for cutoff in (3, 4):
            diff = F.sub(smoothing_truncate(F, cutoff))
            assert norm(diff, 0.0) <= cutoff ** (-2.0) * norm(F, 2.0) * (1 + 1e-12)


def test_truncate_rejects_negative_cutoff():
    with pytest.raises(ValueError):
        smoothing_truncate(NilFunction(), -1)


# ---------------------------------------------------------------------------
# coefficient products and brackets


def test_multiply_single_modes():
    F = toral_nil({(1, 2): 2.0})
    G = toral_nil({(-1, 3): 0.5})
    out = nil_multiply(F, G)
    assert coeff(out.toral, (0, 5)) == pytest.approx(1.0)


def test_multiply_constant_scales_reps():
    F = NilFunction.constant(3.0)
    G = NilFunction(reps={(1, 0): np.array([1.0, 2.0])})
    out = nil_multiply(F, G)
    assert np.allclose(out.rep(1), [3.0, 6.0])


def test_multiply_rejects_unrepresentable():
    rep = NilFunction(reps={(1, 0): np.array([1.0])})
    toral = toral_nil({(1, 0): 1.0})
    with pytest.raises(UnrepresentableProduct):
        nil_multiply(rep, rep)
    with pytest.raises(UnrepresentableProduct):
        nil_multiply(toral, rep)


def test_bracket_hand_example():
    u = toral_nil({(1, 0): 2.0})
    v = toral_nil({(0, 1): 3.0})
    U = VfField((u, NilFunction()), (NilFunction(),))
    V = VfField((NilFunction(), v), (NilFunction(),))
    out = vf_bracket(U, V)
    # -v * (Y2 u) on the first slot, u * (Y1 v) on the second, u*v into Z
    assert out.y[0].is_zero()
    assert coeff(out.y[1].toral, (1, 1)) == pytest.approx(0.0)
    assert coeff(out.z[0].toral, (1, 1)) == pytest.approx(6.0)


def test_bracket_derivative_terms():
    u = toral_nil({(1, 1): 2.0})
    v = toral_nil({(2, -1): 3.0})
    U = VfField((u, NilFunction()), (NilFunction(),))
    V = VfField((NilFunction(), v), (NilFunction(),))
    out = vf_bracket(U, V)
    assert coeff(out.y[0].toral, (3, 0)) == pytest.approx(-(2j * math.pi * 1) * 6.0)
    assert coeff(out.y[1].toral, (3, 0)) == pytest.approx((2j * math.pi * 2) * 6.0)


def test_bracket_central_direction():
    h = toral_nil({(1, 0): 1.0})
    g = toral_nil({(0, 2): 1.0})
    U = VfField((NilFunction(), NilFunction()), (h,))
    V = VfField((g, NilFunction()), (NilFunction(),))
    out = vf_bracket(U, V)
    # no product reaches the Y slots: they are the shared zero
    assert out.y[0].toral is out.y[1].toral is NilFunction().toral
    # -(g * Y1 h) Z survives; Z applied to toral data vanishes
    assert coeff(out.z[0].toral, (1, 2)) == pytest.approx(-(2j * math.pi * 1))


def test_bracket_antisymmetry():
    rng = np.random.default_rng(31)
    U = rand_field(rng)
    V = rand_field(rng)
    fwd = vf_bracket(U, V)
    bwd = vf_bracket(V, U)
    for a, b in zip(fwd.y + fwd.z, bwd.y + bwd.z):
        assert norm_diff(a, b.scaled(-1.0)) < 1e-12 * max(
            nil_sobolev_norm(a, 0.0), 1.0
        )


# ---------------------------------------------------------------------------
# newton step


def test_newton_pure_family_shift():
    p = golden_params(mu=0.5)
    coords0 = FamilyCoordinates(0.02, (0.005, -0.01, 0.007))
    omega = section_s(p, coords0)
    coords, H, residual = newton_step(p, omega)
    assert np.allclose(coords.vector, coords0.vector, atol=1e-14)
    for h in H.y + H.z:
        assert nil_sobolev_norm(h, 0.0) < 1e-12
    assert residual == 0.0


def _zero_avg_field(rng):
    return rand_field(rng, deg=2)


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_newton_recovers_coboundary(mu):
    rng = np.random.default_rng(37)
    p = golden_params()
    combined = p.replace(mu=mu)
    H0 = _zero_avg_field(rng)
    eps = 1e-3
    omega = vf_delta0(combined, _field_scale(H0, eps))
    coords, H, residual = newton_step(combined, omega, threshold=10.0)
    assert np.max(np.abs(coords.vector)) < 1e-12
    for got, want in zip(H.y + H.z, H0.y + H0.z):
        assert norm_diff(got, want.scaled(eps)) < 1e-9 * eps
    assert residual < 1e5 * eps**2


def _field_scale(F, s):
    return VfField(
        tuple(h.scaled(s) for h in F.y), tuple(h.scaled(s) for h in F.z)
    )


def _vf_add(a, b):
    return VfCochain(
        VfField(
            tuple(x.add(y) for x, y in zip(a.x1.y, b.x1.y)),
            tuple(x.add(y) for x, y in zip(a.x1.z, b.x1.z)),
        ),
        VfField(
            tuple(x.add(y) for x, y in zip(a.x2.y, b.x2.y)),
            tuple(x.add(y) for x, y in zip(a.x2.z, b.x2.z)),
        ),
    )


def test_newton_residual_quadratic():
    rng = np.random.default_rng(41)
    p = golden_params()
    H0 = _zero_avg_field(rng)
    sizes = np.logspace(-4, -2, 5)
    residuals = []
    for eps in sizes:
        omega = vf_delta0(p, _field_scale(H0, eps))
        _, _, residual = newton_step(p, omega, threshold=10.0)
        residuals.append(residual)
    slope = np.polyfit(np.log(sizes), np.log(residuals), 1)[0]
    assert 1.7 <= slope <= 2.3
    ratios = np.array(residuals) / sizes**2
    assert np.max(ratios) <= 1.3 * np.min(ratios)


def test_newton_mixed_input():
    rng = np.random.default_rng(43)
    p = golden_params()
    H0 = _zero_avg_field(rng)
    coords0 = FamilyCoordinates(0.6, (0.3, -0.2, 0.45))
    sizes = np.logspace(-4, -2, 5)
    residuals = []
    for eps in sizes:
        scaled0 = FamilyCoordinates(
            eps * coords0.mu1, tuple(eps * x for x in coords0.lam)
        )
        omega = _vf_add(
            section_s(p, scaled0),
            vf_delta0(p, _field_scale(H0, eps)),
        )
        coords, H, residual = newton_step(p, omega, threshold=10.0)
        assert np.allclose(coords.vector, scaled0.vector, atol=1e-12)
        for got, want in zip(H.y + H.z, H0.y + H0.z):
            assert norm_diff(got, want.scaled(eps)) < 1e-8 * eps
        residuals.append(residual)
    slope = np.polyfit(np.log(sizes), np.log(residuals), 1)[0]
    assert 1.7 <= slope <= 2.3


def test_newton_threshold():
    rng = np.random.default_rng(47)
    p = golden_params()
    omega = VfCochain(rand_field(rng, scale=5.0), rand_field(rng, scale=5.0))
    with pytest.raises(ThresholdExceeded):
        newton_step(p, omega)


@pytest.mark.parametrize("slot", ["x1.y1", "x2.z0"])
def test_newton_step_refuses_representation_rows_before_any_work(monkeypatch, slot):
    text = "x1.y0 toral 1 0 0.001 0.0\n%s rep 2 1 0 0.001 0.0005\n" % slot
    omega = parse_vf_cochain(text)

    def no_work(*args):
        raise AssertionError("the step ran")

    monkeypatch.setattr(rigidity, "project_P", no_work)
    monkeypatch.setattr(rigidity, "_field_norm", no_work)
    with pytest.raises(UnsupportedPerturbation, match=r"slot %s .*\(2, 1\)" % slot):
        newton_step(golden_params(), omega)


def test_a_representation_row_in_a_y_slot_reaches_the_bracket(monkeypatch):
    # the Z slot of a vector-field coboundary is a scalar cocycle only up to
    # kappa X2(H_Y), which the triangular solve feeds in, so the linear step
    # recovers H; only the bracket's products refuse the row
    p = golden_params()
    rng = np.random.default_rng(71)
    H0 = _field_scale(_zero_avg_field(rng), 1e-3)
    row = NilFunction(reps={(1, 0): 1e-3 * np.array([1.0, 0.5])})
    H0 = VfField((H0.y[0].add(row), H0.y[1]), H0.z)
    omega = vf_delta0(p, H0)
    H, _resid = vf_coboundary_solve(p, omega)
    for got, want in zip(H.slots, H0.slots):
        assert norm_diff(got, want) <= 1e-15
    monkeypatch.setattr(rigidity, "require_toral_perturbation", lambda omega: None)
    with pytest.raises(UnrepresentableProduct):
        newton_step(p, omega)


def _toral_draw(rng, x1_scale, x2_scale):
    """Six slots of one seeded toral draw in slot order, nonzero averages
    and all: X1's scaled by x1_scale and X2's by x2_scale.  Not a cocycle."""
    slots = [
        NilFunction(toral=toral_function(rng, 2, 3, 3.0, zero_average=False))
        for _ in range(6)
    ]
    x1 = [h.scaled(x1_scale) for h in slots[:3]]
    x2 = [h.scaled(x2_scale) for h in slots[3:]]
    return VfCochain(VfField(x1[:2], x1[2:]), VfField(x2[:2], x2[2:]))


def _cochain_text(omega):
    return "".join(
        "%s %s\n" % (name, rec)
        for name, F in _named_slots(omega)
        for rec in serialize_nil_function(F).splitlines()
    )


@pytest.mark.parametrize("mu", [0.0, 0.7])
def test_newton_step_takes_a_tiny_first_generator_at_any_mu(mu):
    # X1's slots at 1e-12, X2's at 1e-3: after the error pair is removed, a
    # slot's norm is at roundoff next to its defect at mu = 0.7, so no gate
    # may be scaled by it; X1's slots move the residual by their own size
    p = golden_params(mu=mu)
    _c, _H, residual = newton_step(p, _toral_draw(member_rng(3, 0), 1e-12, 1e-3))
    _c, _H, without = newton_step(p, _toral_draw(member_rng(3, 0), 0.0, 1e-3))
    assert residual == pytest.approx(without, rel=1e-9)


@pytest.mark.parametrize("mu", [0.0, 0.7])
def test_rigidity_step_reads_a_tiny_first_generator_as_no_progress(tmp_path, mu):
    # the same draw through the command line: X2's slots are not a cocycle,
    # so the step leaves the residual at the input's size, a negative
    # verdict, not an error record.  At mu = 0 the residual ends 6e-16 below
    # the input and at mu = 0.7 2.5e-10 above it: the margin reads both alike
    pert = tmp_path / "pert.txt"
    pert.write_text(_cochain_text(_toral_draw(member_rng(3, 0), 1e-12, 1e-3)))
    cfg = tmp_path / "r.cfg"
    cfg.write_text("alpha = 1.0 %r\n" % PHI)
    out = tmp_path / "out"
    status = main([
        "rigidity-step", "--config", str(cfg), "--out", str(out),
        "--mu", repr(mu), "--perturbation-file", str(pert),
    ])
    rec = json.loads((out / "summary.jsonl").read_text().splitlines()[0])
    assert (status, rec["verdict"], rec["reason"]) == (2, "negative", "NoConvergence")
    assert rec["residual_norm"] == pytest.approx(rec["input_norm"], rel=1e-9)


def _two_split_sweep():
    """The criterion-7 members 174/0-19 at its four scales, then 20 generic
    toral draws at 1e-3."""
    p = golden_params()
    for i in range(20):
        base = vf_cocycle_member(member_rng(174, i), p, degree=3, decay=3.0, scale=1.0)
        norm0 = max(nil_sobolev_norm(h, 0) for h in base.x1.slots + base.x2.slots)
        for eps in np.logspace(-4, -2, 4):
            c = eps / norm0
            yield VfCochain(_field_scale(base.x1, c), _field_scale(base.x2, c))
    for i in range(20):
        yield _toral_draw(member_rng(32, i), 1e-3, 1e-3)


@pytest.mark.parametrize("mu", [0.0, 0.7, -2.0])
def test_newton_step_matches_the_two_split_route_bit_for_bit(mu):
    # on toral data the split's f_err is zero and its g_err has a +0 centre,
    # so subtracting the error pair first changes no bit that the
    # projection, H or the constant obstruction read
    p = golden_params(mu=mu)
    for omega in _two_split_sweep():
        coords, H, residual = newton_step(p, omega, threshold=10.0)
        want_coords, want_H, want_residual = newton_step_two_splits(p, omega)
        assert coords.vector == want_coords.vector
        assert all(_same_bits(g, w) for g, w in zip(H.slots, want_H.slots))
        assert residual == want_residual


@pytest.mark.parametrize("mu", [0.0, 0.7])
def test_newton_step_forms_no_cocycle_defect(monkeypatch, mu):
    # the vector-field solve keeps only each slot's H, so it takes no defect;
    # the two-split route, which does, runs before the patch
    p = golden_params(mu=mu)
    omega = vf_cocycle_member(member_rng(5, 0), p, scale=1e-3)
    want_coords, want_H, want_residual = newton_step_two_splits(p, omega)

    def refuse(*args):
        raise AssertionError("the vector-field solve formed a cocycle defect")

    monkeypatch.setattr(cohomology, "delta1", refuse)
    coords, H, residual = newton_step(p, omega)
    assert coords.vector == want_coords.vector
    assert all(_same_bits(g, w) for g, w in zip(H.slots, want_H.slots))
    assert residual == want_residual


def test_bracket_requires_heisenberg_shape():
    # a field outside the frame is refused where it is built
    def field(ny, nz):
        return VfField(
            tuple(NilFunction() for _ in range(ny)),
            tuple(NilFunction() for _ in range(nz)),
        )

    for a, b in (((3, 1), (3, 1)), ((2, 1), (3, 1)), ((2, 0), (2, 1))):
        with pytest.raises(DimensionMismatch):
            vf_bracket(field(*a), field(*b))


def _grid_bound(weight, D):
    """The grid product's stated rounding bound at degree D: 4 eps (1 + log2
    G) times the sum of ||a||_1 ||b||_1 over the products, G the grid side."""
    return 4 * np.finfo(float).eps * (1 + math.log2(_smooth_size(2 * D + 1))) * weight


def _gap(f, block):
    """Largest entry of f's block minus a centred block, both zero-padded to
    the larger degree."""
    D = max(f.size, len(block) // 2)
    pad = [np.pad(b, D - len(b) // 2) for b in (f.block, block)]
    return float(np.max(np.abs(pad[0] - pad[1])))


def test_multiply_matches_double_loop_reference():
    rng = np.random.default_rng(31)
    F, G = rand_toral(rng, deg=3), rand_toral(rng, deg=2, real=False)
    ref = {}
    for k, a in coeffs(F.toral).items():
        for l, b in coeffs(G.toral).items():
            key = (k[0] + l[0], k[1] + l[1])
            ref[key] = ref.get(key, 0) + a * b
    out = nil_multiply(F, G).toral
    want = _zeros(2, out.size)
    for (k1, k2), c in ref.items():
        want[k1 + out.size, k2 + out.size] = c
    l1 = [sum(abs(c) for c in coeffs(H.toral).values()) for H in (F, G)]
    assert _gap(out, want) <= _grid_bound(l1[0] * l1[1], out.size)


def _seeded_block(rng, degree, real, density=0.7):
    # the corner is kept, so the block is never a constant
    side = 2 * degree + 1
    block = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    keep = rng.random((side, side)) < density
    keep[0, 0] = True
    block[~keep] = 0
    if real:
        block = block + np.conj(block[::-1, ::-1])
    return NilFunction(toral=TorusFunction(2, block))


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 12, 16, 24])
def test_products_match_the_double_sum_within_the_stated_bound(degree):
    # dense and sparse blocks, real and complex, of degrees up to `degree`;
    # one field pair has a zero slot, which no product reads
    rng = np.random.default_rng(400 + degree)
    for real, density in ((True, 0.7), (True, 0.1), (False, 0.7), (False, 0.1)):
        def draw():
            return _seeded_block(rng, int(rng.integers(1, degree + 1)), real, density)

        F, G = draw(), draw()
        out = nil_multiply(F, G).toral
        weight = np.abs(F.toral.block).sum() * np.abs(G.toral.block).sum()
        assert out.real == real and out.size == F.toral.size + G.toral.size
        assert _gap(out, shift_and_add(F.toral.block, G.toral.block)) <= _grid_bound(
            weight, out.size
        )
        U = VfField((draw(), draw()), (draw(),))
        V = VfField((draw(), NilFunction() if density < 0.5 else draw()), (draw(),))
        D = max(h.toral.size for h in U.slots) + max(h.toral.size for h in V.slots)
        for got, (want, weight) in zip(vf_bracket(U, V).slots, double_sum_bracket(U, V)):
            assert got.toral.real == real and got.toral.size == D
            assert _gap(got.toral, want) <= _grid_bound(weight, D)


def test_bracket_refuses_representation_rows_before_any_transform(monkeypatch):
    rows = NilFunction(toral=toral_nil({(1, 0): 1.0}).toral, reps={(2, 1): np.array([1.0])})
    toral = toral_nil({(0, 1): 2.0})
    monkeypatch.setattr(np.fft, "ifft2", None)
    for U, V, slot in (
        (VfField((toral, toral), (rows,)), VfField((toral, toral), (toral,)), r"U\.z0"),
        (VfField((toral, toral), (toral,)), VfField((toral, rows), (toral,)), r"V\.y1"),
        # a constant partner does not make the row representable here
        (VfField((rows,) * 2, (rows,)), VfField.constant((1.0, 0.0), (0.0,)), r"U\.y0"),
    ):
        with pytest.raises(UnrepresentableProduct, match=r"slot %s .*\(2, 1\)" % slot):
            vf_bracket(U, V)


def test_product_grids_are_capped_before_allocation(monkeypatch):
    # degree-3 slots sample on a grid of side 15: the four Y slots' values
    # and both partials of all six slots are 16 grids
    rng = np.random.default_rng(83)
    U, V = rand_field(rng, deg=3), rand_field(rng, deg=3)
    monkeypatch.setattr(rigidity, "_SIZE_CAP", 16 * 15**2 - 1)
    with pytest.raises(DimensionMismatch, match=r"\(16 of 15\^2 entries\)"):
        vf_bracket(U, V)
    monkeypatch.setattr(rigidity, "_SIZE_CAP", 16 * 15**2)
    vf_bracket(U, V)


def test_multiply_of_dense_degree_24_blocks_stays_small():
    # a scatter over all nnz * m^2 products would hold 49^4 entries per index
    # array, about 180 MB; the grid product holds a few 100 x 100 grids
    rng = np.random.default_rng(61)
    F, G = (_seeded_block(rng, 24, False) for _ in range(2))
    tracemalloc.start()
    try:
        nil_multiply(F, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_multiply_padded_constant_scales_reps():
    # a constant whose block carries a zero border is still a constant
    block = _zeros(2, 2)
    block[2, 2] = 3.0
    F = NilFunction(toral=TorusFunction(2, block))
    G = NilFunction(reps={(1, 0): np.array([1.0, 2.0])})
    for out in (nil_multiply(F, G), nil_multiply(G, F)):
        assert np.allclose(out.rep(1), [3.0, 6.0])


def test_zero_toral_parts_are_shared_and_read_only():
    zero = NilFunction().toral
    assert NilFunction().toral is zero
    assert zero.real and zero.is_zero()
    with pytest.raises(ValueError):
        zero.block[...] = 1.0
    # a central element kills the toral part: the zero of the same reality
    for real in (True, False):
        F = NilFunction(toral=TorusFunction(2, {(1, 0): 1.0, (-1, 0): 1.0 if real else 1j}))
        first, second = (_apply_element(F, (0.0, 0.0), 1.0).toral for _ in range(2))
        assert first is second
        assert first.real == real and first.is_zero()


def test_newton_step_builds_few_checked_toral_parts(monkeypatch):
    # the benchmark's draw at seed 1: degree 3, smoothed at cutoff 3.  The
    # closed operations skip the checked constructor and zeros are shared;
    # what is left are the products and the constants.
    params = golden_params()
    om = vf_cocycle_member(member_rng(1, 0), params, degree=3, decay=3.0, scale=1e-3)
    om = VfCochain(
        *(f.map(lambda h: smoothing_truncate(h, 3.0)) for f in (om.x1, om.x2))
    )
    calls = []
    init = TorusFunction.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TorusFunction, "__init__", counted)
    newton_step(params, om)
    assert len(calls) <= 32


# ---------------------------------------------------------------------------
# the vector-field layer's frame against the generic structure constants


def _generic_bracket(algebra, U, V):
    """vf_bracket with its structure term summed over c[l][i][t]."""
    q, p = algebra.q, algebra.p
    basis = [_GENERATORS[gen] for gen in ("Y1", "Y2", "Z")]
    u = U.slots
    v = V.slots
    out = [NilFunction() for _ in range(q + p)]
    for a, (y, z) in enumerate(basis):
        if u[a].is_zero() and v[a].is_zero():
            continue
        for b in range(q + p):
            if not (u[a].is_zero() or v[b].is_zero()):
                out[b] = out[b].add(nil_multiply(u[a], _apply_element(v[b], y, z)))
            if not (v[a].is_zero() or u[b].is_zero()):
                out[b] = out[b].sub(nil_multiply(v[a], _apply_element(u[b], y, z)))
    for t in range(p):
        for l in range(q):
            for i in range(q):
                c = float(algebra.c[l][i][t])
                if c != 0.0:
                    out[q + t] = out[q + t].add(
                        nil_multiply(U.y[l], V.y[i]).scaled(c)
                    )
    return VfField(tuple(out[:q]), tuple(out[q:]))


def _generic_delta0(algebra, params, H):
    """vf_delta0 with kappa summed over c[l][i][t]."""
    values = []
    for apply_gen, y_vec in (
        (apply_X1, params.x1_y),
        (apply_X2, params.x2_y),
    ):
        y_out = tuple(apply_gen(params, h) for h in H.y)
        z_out = []
        for t in range(algebra.p):
            term = apply_gen(params, H.z[t])
            for i in range(algebra.q):
                kappa = float(
                    sum(y_vec[l] * algebra.c[l][i][t] for l in range(algebra.q))
                )
                if kappa != 0.0:
                    term = term.add(H.y[i].scaled(kappa))
            z_out.append(term)
        values.append(VfField(y_out, tuple(z_out)))
    return VfCochain(values[0], values[1])


def _same_bits(F, G):
    return (
        F.toral.real == G.toral.real
        and F.toral.block.shape == G.toral.block.shape
        and F.toral.block.tobytes() == G.toral.block.tobytes()
        and F.keys == G.keys
        and F.lengths.tobytes() == G.lengths.tobytes()
        and F.block.shape == G.block.shape
        and F.block.tobytes() == G.block.tobytes()
    )


def _with_reps(rng, F):
    rows = {
        (1, 0): rng.standard_normal(3) + 1j * rng.standard_normal(3),
        (-2, 1): rng.standard_normal(2) + 1j * rng.standard_normal(2),
    }
    return NilFunction(toral=F.toral, reps=rows)


@pytest.mark.parametrize("mu", [0.0, 0.7])
def test_frame_matches_the_generic_structure_constants(mu):
    A = heisenberg()
    p = golden_params(mu=mu)
    rng = np.random.default_rng(61)
    for _trial in range(6):
        U, V = rand_field(rng), rand_field(rng)
        # a zero and a constant slot take the short paths of nil_multiply; the
        # bracket's grid and the per-product ones each round within the bound
        W = VfField((NilFunction(), V.y[1]), (NilFunction.constant(0.25),))
        for a, b in ((U, V), (V, U), (U, W), (W, U)):
            got = vf_bracket(a, b)
            want = _generic_bracket(A, a, b)
            D = max(h.toral.size for h in a.slots) + max(h.toral.size for h in b.slots)
            for g, w, (_exact, weight) in zip(got.slots, want.slots, double_sum_bracket(a, b)):
                assert g.toral.real == w.toral.real and not g.keys and not w.keys
                assert _gap(g.toral, w.toral.block) <= 2 * _grid_bound(weight, D)
        H = VfField(tuple(_with_reps(rng, h) for h in U.y), U.z)
        got = vf_delta0(p, H)
        want = _generic_delta0(A, p, H)
        for g_fld, w_fld in ((got.x1, want.x1), (got.x2, want.x2)):
            assert all(_same_bits(g, w) for g, w in zip(g_fld.slots, w_fld.slots))


# ---------------------------------------------------------------------------
# serialization


def test_vf_cochain_text_roundtrip():
    rng = np.random.default_rng(53)
    x2 = rand_field(rng)
    with_reps = NilFunction(
        toral=x2.z[0].toral, reps={(1, 0): [1 + 2j, 0.5], (-2, 1): [0.0, -0.25j]}
    )
    omega = VfCochain(rand_field(rng), VfField(x2.y, (with_reps,)))
    back = parse_vf_cochain(_cochain_text(omega))
    for got, want in zip(back.x1.slots + back.x2.slots, omega.x1.slots + omega.x2.slots):
        assert norm_diff(got, want) == 0.0
    assert back.x2.z[0].reps.keys() == with_reps.reps.keys()


def test_vf_cochain_sums_repeated_records_in_a_slot():
    text = "x2.z0 rep 1 0 3 0.1 -0.2\nx1.y0 toral 1 0 0.5 0.0\nx2.z0 rep 1 0 3 0.1 -0.2\n"
    back = parse_vf_cochain(text)
    assert back.x2.z[0].rep(1)[3] == 0.2 - 0.4j
    assert coeff(back.x1.y[0].toral, (1, 0)) == 0.5


def test_vf_cochain_unknown_slot_reports_its_line():
    text = "x1.y0 toral 1 0 0.5 0.0\n# comment\nx3.y0 toral 1 0 0.5 0.0\n"
    with pytest.raises(FormatError, match="^line 3: unknown slot"):
        parse_vf_cochain(text)


def test_vf_cochain_malformed_record_in_a_slot_reports_its_line():
    # the bad record sits in a slot that already has one, after other slots'
    text = (
        "x1.y0 toral 1 0 0.5 0.0\n"
        "x2.z0 rep 1 0 3 0.1 -0.2\n"
        "x1.y1 toral 0 1 0.25 0.0  # comment\n"
        "x2.z0 rep 1 0 oops 0.1 -0.2\n"
        "x1.y0 toral -1 0 0.5 0.0\n"
    )
    with pytest.raises(FormatError, match="^line 4: malformed record"):
        parse_vf_cochain(text)
