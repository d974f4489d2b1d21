"""Acceptance suite.

One criterion per test; each prints a single pass/fail line (with its
runtime) straight to the terminal and enforces its stated tolerance and
runtime budget.
"""

import math
import time

import numpy as np
import pytest

from nilflow.algebra import (
    ActionParams,
    algebra_from_brackets,
    const_cohomology_basis,
    heisenberg,
)
from nilflow.cohomology import (
    delta0,
    delta0_star,
    delta1_star_split,
    gh_certificate,
    joint_kernel_dim,
)
from nilflow.corpus import (
    member_rng,
    nil_corpus,
    restrict_frequencies,
    torus_corpus,
    vf_cocycle_member,
)
from nilflow.diophantine import fit_witness
from nilflow.errors import NoConvergence
from nilflow.nilrep import NilFunction, cg_decay_report, nil_sobolev_norm
from nilflow.rigidity import FamilyCoordinates, newton_step, project_P, section_s
from nilflow.torus import TorusFunction, TorusVectorField, birkhoff_average, kam_iterate

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = (1.0, PHI)


def golden_params(beta=1.0, mu=0.0):
    return ActionParams(GOLDEN, (beta,), mu=mu)


def golden_witnesses(K=50):
    return {"alpha": fit_witness(GOLDEN, 1.0, K)}


def _verdict(capsys, num, label, checks, elapsed, cap):
    ok = all(flag for _, flag in checks) and elapsed < cap
    with capsys.disabled():
        print(
            "criterion %d (%s): %s [%.1fs < %ds]"
            % (num, label, "PASS" if ok else "FAIL", elapsed, cap),
            flush=True,
        )
    for desc, flag in checks:
        assert flag, "criterion %d: %s" % (num, desc)
    assert elapsed < cap, "criterion %d exceeded %ds" % (num, cap)


# ---------------------------------------------------------------------------
# 1: constant cohomology dimension, exact arithmetic


def _oracle_h1_dim(A, params):
    """Brute-force rank count over the constant cochains, built directly from
    the structure constants with exact rational arithmetic."""
    import sympy

    q, p, d = A.q, A.p, A.q + A.p

    def ad(xy, w):
        # bracket of a Y-combination with basis vector w; lands in the center
        out = [sympy.Integer(0)] * d
        if w < q:
            for l in range(q):
                for t in range(p):
                    out[q + t] += sympy.Rational(A.c[l][w][t]) * xy[l]
        return out

    x1y = [sympy.Rational(a) for a in params.x1_y]
    x2y = [sympy.Rational(a) for a in params.x2_y]
    A0 = sympy.zeros(2 * d, d)
    A1 = sympy.zeros(d, 2 * d)
    for j in range(d):
        b1, b2 = ad(x1y, j), ad(x2y, j)
        for i in range(d):
            A0[i, j] = b1[i]
            A0[d + i, j] = b2[i]
            A1[i, j] = -b2[i]
            A1[i, d + j] = b1[i]
    return (2 * d - A1.rank()) - A0.rank()


def test_criterion_1_constant_cohomology(capsys):
    t0 = time.monotonic()
    heis = heisenberg()
    params = ActionParams((1, 2), (1,))
    dim, _reps = const_cohomology_basis(heis, params)

    second = algebra_from_brackets(
        3, 2, [(1, 2, 1, 1), (1, 3, 2, 1), (2, 3, 1, 1), (2, 3, 2, 2)]
    )
    params2 = ActionParams((1, 2, 3), (1, 2))
    dim2, _ = const_cohomology_basis(second, params2)
    oracle2 = _oracle_h1_dim(second, params2)
    elapsed = time.monotonic() - t0
    _verdict(
        capsys,
        1,
        "constant cohomology dimension",
        [
            ("Heisenberg dimension is exactly 4 = p+q+1", dim == 4),
            ("q=3, p=2 dimension matches the rank oracle", dim2 == oracle2),
            ("q=3, p=2 dimension is p+q+1", dim2 == 6),
        ],
        elapsed,
        1,
    )


# ---------------------------------------------------------------------------
# 2: solve-then-apply roundtrip for the first coboundary


def test_criterion_2_coboundary_roundtrip(capsys):
    t0 = time.monotonic()
    p = golden_params()
    wit = golden_witnesses()
    worst = 0.0
    for h in nil_corpus(170, 50, degree=32, n_max=10, length=64, decay=3.0):
        back = delta0_star(p, delta0(p, h), wit)
        rel = nil_sobolev_norm(back.sub(h), 0) / nil_sobolev_norm(h, 0)
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    _verdict(
        capsys,
        2,
        "first-coboundary roundtrip",
        [("50 seeded roundtrips within 1e-10 relative (worst %.2e)" % worst,
          worst <= 1e-10)],
        elapsed,
        30,
    )


# ---------------------------------------------------------------------------
# 3: splitting reconstruction and tame plateau


def _truncate_nil(F, degree, length):
    reps = {k: v[:length] for k, v in F.reps.items()}
    return NilFunction(toral=F.toral.truncated(degree), reps=reps)


def test_criterion_3_splitting(capsys):
    from nilflow.cohomology import Cochain1
    from nilflow.corpus import cochain_corpus
    from nilflow.nilrep import apply_X1, apply_X2

    t0 = time.monotonic()
    p = golden_params()
    wit = golden_witnesses()
    worst = 0.0
    for om in cochain_corpus(171, 50, degree=8, n_max=3, length=8, decay=7.0):
        s = delta1_star_split(p, om, wit)
        f_back = apply_X1(p, s.H).add(s.f_err).add(NilFunction.constant(s.f_triv))
        g_back = apply_X2(p, s.H).add(s.g_err).add(NilFunction.constant(s.g_triv))
        scale = max(nil_sobolev_norm(om.f, 0), nil_sobolev_norm(om.g, 0))
        rel = max(
            nil_sobolev_norm(f_back.sub(om.f), 0),
            nil_sobolev_norm(g_back.sub(om.g), 0),
        ) / scale
        worst = max(worst, rel)

    drift_ok = True
    for i, master in enumerate(
        cochain_corpus(172, 3, degree=8, n_max=4, length=8, decay=7.0)
    ):
        ratios = []
        for degree, length in ((4, 4), (8, 8)):
            w = Cochain1(
                _truncate_nil(master.f, degree, length),
                _truncate_nil(master.g, degree, length),
            )
            ratios.append(delta1_star_split(p, w, wit).constants)
        for key in ("h_ratio", "err_ratio"):
            small, big = ratios[0][key], ratios[1][key]
            drift_ok = drift_ok and abs(big - small) <= 0.10 * max(big, 1e-300)
    elapsed = time.monotonic() - t0
    _verdict(
        capsys,
        3,
        "splitting reconstruction and plateau",
        [
            ("50 reconstructions within 1e-10 (worst %.2e)" % worst,
             worst <= 1e-10),
            ("measured constants drift < 10% under truncation doubling",
             drift_ok),
        ],
        elapsed,
        120,
    )


# ---------------------------------------------------------------------------
# 4: hypoellipticity certificate


def test_criterion_4_gh_certificate(capsys):
    t0 = time.monotonic()
    p = golden_params()
    report = gh_certificate(p, N=20, M=64, K=50, witnesses=golden_witnesses())
    kdim = joint_kernel_dim(p, K=50)

    resonant = gh_certificate(ActionParams((1.0, 0.5), (1.0,)), N=4, M=48, K=20)
    elapsed = time.monotonic() - t0
    _verdict(
        capsys,
        4,
        "hypoellipticity certificate",
        [
            ("golden frequencies certified", report["certified"]),
            ("trusted minima grow at least linearly (fit %.3f)"
             % report["fit"]["d"], report["fit"]["d"] >= 0.9),
            ("no nontrivial near-kernel mode", not report["near_zero"]),
            ("joint kernel dimension is 1", kdim == 1),
            ("alpha = (1, 1/2) verdict is negative", not resonant["certified"]),
            ("toral resonance detected at (1, -2)",
             resonant.get("resonant_mode") == (1, -2)),
        ],
        elapsed,
        120,
    )


# ---------------------------------------------------------------------------
# 5: representation-component decay


def test_criterion_5_component_decay(capsys):
    t0 = time.monotonic()
    corpus40 = nil_corpus(173, 30, degree=6, n_max=40, length=8, decay=3.0)
    corpus20 = [restrict_frequencies(F, 20) for F in corpus40]
    r40 = cg_decay_report(corpus40, 0.0, 2.0)
    r20 = cg_decay_report(corpus20, 0.0, 2.0)
    drift = abs(r40["ratio_max"] - r20["ratio_max"]) / max(r40["ratio_max"], 1e-300)
    elapsed = time.monotonic() - t0
    _verdict(
        capsys,
        5,
        "component decay plateau",
        [
            ("bounded ratio (max %.3f)" % r40["ratio_max"],
             np.isfinite(r40["ratio_max"])),
            ("drift from N=20 to N=40 below 10%% (%.2f%%)" % (100 * drift),
             drift < 0.10),
            ("inner-window plateau holds at N=40", r40["plateau_ok"]),
        ],
        elapsed,
        60,
    )


# ---------------------------------------------------------------------------
# 6: torus conjugacy iteration


def test_criterion_6_torus_kam(capsys):
    t0 = time.monotonic()
    amp = 1e-3
    beta = TorusVectorField([
        TorusFunction(2, {(1, 1): amp / 2j, (-1, -1): -amp / 2j}, real=True),
        TorusFunction.constant(2, 0.0, real=True),
    ])
    state = kam_iterate(GOLDEN, beta, max_iter=10, floor=1e-12, trunc_degree=64)
    hist = state.residual_history[:5]
    logs = np.log(hist)
    slope = float(np.polyfit(logs[:-1], logs[1:], 1)[0])
    elapsed = time.monotonic() - t0
    _verdict(
        capsys,
        6,
        "torus conjugacy iteration",
        [
            ("residual slope 2.0 +- 0.2 (got %.2f)" % slope,
             1.8 <= slope <= 2.2),
            ("residual reaches 1e-12 (final %.2e)" % state.residual,
             state.residual <= 1e-12),
            ("conjugacy verified on the 256^2 grid within 1e-8 (%.2e)"
             % state.verified_sup_error, state.verified_sup_error <= 1e-8),
        ],
        elapsed,
        60,
    )


# ---------------------------------------------------------------------------
# 7: rigidity scheme


def _scale_cochain(om, c):
    from nilflow.cohomology import VfCochain, VfField

    def fld(f):
        return VfField(
            tuple(h.scaled(c) for h in f.y), tuple(h.scaled(c) for h in f.z)
        )

    return VfCochain(fld(om.x1), fld(om.x2))


def test_criterion_7_rigidity_scheme(capsys):
    t0 = time.monotonic()
    A = heisenberg()
    p = golden_params()
    wit = golden_witnesses()

    proj_ok = True
    for mu in (-1.0, -0.5, 0.0, 0.5, 1.0):
        coords = FamilyCoordinates(0.37, (0.21, -0.11, 0.05))
        got = project_P(A, p, mu, section_s(p, mu, coords))
        proj_ok = proj_ok and bool(
            np.allclose(got.vector, coords.vector, atol=1e-12)
        )

    slopes = []
    scales = np.logspace(-4, -2, 4)
    for i in range(20):
        base = vf_cocycle_member(member_rng(174, i), A, p, mu=0.0, degree=3,
                                 decay=3.0, scale=1.0)
        norm0 = max(
            nil_sobolev_norm(h, 0)
            for h in base.x1.y + base.x1.z + base.x2.y + base.x2.z
        )
        residuals = []
        for eps in scales:
            om = _scale_cochain(base, eps / norm0)
            _c, _H, resid = newton_step(A, p, 0.0, om, wit, threshold=10.0)
            residuals.append(max(resid, 1e-300))
        slopes.append(float(np.polyfit(np.log(scales), np.log(residuals), 1)[0]))
    elapsed = time.monotonic() - t0
    _verdict(
        capsys,
        7,
        "rigidity scheme",
        [
            ("projection inverts the section at five tilts within 1e-12",
             proj_ok),
            ("residual slope 2.0 +- 0.3 on all 20 members (range %.2f..%.2f)"
             % (min(slopes), max(slopes)),
             all(1.7 <= s <= 2.3 for s in slopes)),
        ],
        elapsed,
        120,
    )


# ---------------------------------------------------------------------------
# 8: equidistribution


def test_criterion_8_unique_ergodicity(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for i, f in enumerate(torus_corpus(175, 20, degree=8, decay=3.0)):
        rng = member_rng(9175, i)
        x0 = rng.uniform(0.0, 1.0, size=2)
        avg = birkhoff_average(GOLDEN, f, x0, T=1e4)
        worst = max(worst, abs(avg - f.average))
    kdim = joint_kernel_dim(golden_params(), K=50)
    elapsed = time.monotonic() - t0
    _verdict(
        capsys,
        8,
        "unique ergodicity",
        [
            ("Birkhoff averages within 1e-3 of the mean at T=1e4 (worst %.2e)"
             % worst, worst <= 1e-3),
            ("spectral joint-kernel count is 1", kdim == 1),
        ],
        elapsed,
        30,
    )
