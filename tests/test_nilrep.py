import math
import warnings

import numpy as np
import pytest

from nilflow.errors import DimensionMismatch, EmptyCorpus, FormatError
from nilflow.algebra import ActionParams
from nilflow.cohomology import (
    _rep_laplacian_solve,
    delta0,
    delta0_star,
    laplacian_solve,
)
from nilflow.nilrep import (
    NilFunction,
    RepOperator,
    apply_X1,
    apply_X2,
    cg_decay_report,
    dpi_apply,
    load_nil_function,
    nil_sobolev_norm,
    parse_nil_function,
    pi_norm,
    serialize_nil_function,
)
from nilflow.torus import TorusFunction, sobolev_norm

PHI = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# quadrature oracle: matrix elements of x and d/dx between explicit Hermite
# functions h_j(x) = H_j(x) exp(-x^2/2) / sqrt(2^j j! sqrt(pi)), integrated
# with Gauss-Hermite nodes (exact for the polynomial integrands involved)


def _oracle_matrices(size):
    from numpy.polynomial import hermite as H

    nodes, weights = H.hermgauss(size + 8)
    vals = np.zeros((size, len(nodes)))
    dvals = np.zeros((size, len(nodes)))
    for j in range(size):
        c = np.zeros(j + 1)
        c[j] = 1.0 / math.sqrt(2.0**j * math.factorial(j) * math.sqrt(math.pi))
        vals[j] = H.hermval(nodes, c)
        dc = H.hermder(c) if j > 0 else np.zeros(1)
        dvals[j] = H.hermval(nodes, dc)
    x_mat = np.einsum("il,l,jl->ij", vals, weights * nodes, vals)
    d_mat = np.einsum("il,l,jl->ij", vals, weights, dvals - nodes * vals)
    return x_mat, d_mat


def test_position_matrix_matches_quadrature():
    size = 10
    x_mat, _ = _oracle_matrices(size)
    ladder = RepOperator.generator("Y2", 1, size).matrix() / (2j * np.pi)
    assert np.max(np.abs(ladder - x_mat)) < 1e-12


def test_derivative_matrix_matches_quadrature():
    size = 10
    _, d_mat = _oracle_matrices(size)
    ladder = RepOperator.generator("Y1", 1, size).matrix()
    assert np.max(np.abs(ladder - d_mat)) < 1e-12


def test_position_on_ground_state():
    out = dpi_apply("Y2", 1, np.array([1.0])) / (2j * np.pi)
    assert np.allclose(out, [0.0, 1.0 / math.sqrt(2)], atol=1e-15)


def test_derivative_on_ground_state():
    out = dpi_apply("Y1", 1, np.array([1.0]))
    assert np.allclose(out, [0.0, -1.0 / math.sqrt(2)], atol=1e-15)


def test_center_acts_by_scalar():
    rng = np.random.default_rng(11)
    for n in (1, -4, 7):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.allclose(dpi_apply("Z", n, v), 2j * np.pi * n * v, rtol=0, atol=0)


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        dpi_apply("Q", 1, np.array([1.0]))
    with pytest.raises(ValueError):
        dpi_apply("Y1", 0, np.array([1.0]))
    with pytest.raises(ValueError):
        RepOperator.generator("W", 2, 4)


def test_ladder_output_has_headroom():
    v = np.ones(5)
    assert len(dpi_apply("Y1", 2, v)) == 6
    assert len(dpi_apply("Y2", 2, v)) == 6
    assert len(dpi_apply("Z", 2, v)) == 5


def test_generator_matrices_skew_adjoint():
    for gen in ("Y1", "Y2", "Z"):
        m = RepOperator.generator(gen, 3, 12).matrix()
        interior = (m + m.conj().T)[:-2, :-2]
        assert np.max(np.abs(interior)) < 1e-12


def test_heisenberg_commutation_relation():
    rng = np.random.default_rng(5)
    for n in (1, -3):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a = dpi_apply("Y1", n, dpi_apply("Y2", n, v))
        b = dpi_apply("Y2", n, dpi_apply("Y1", n, v))
        comm = a - b
        expected = np.zeros(len(comm), dtype=complex)
        expected[: len(v)] = 2j * np.pi * n * v
        scale = 2 * np.pi * abs(n) * np.max(np.abs(v))
        assert np.max(np.abs(comm - expected)) < 1e-12 * scale


def test_rep_operator_apply_matches_matrix():
    rng = np.random.default_rng(3)
    op = RepOperator(2, 9, y=(0.7, -0.3), z=0.2)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert np.allclose(op.apply(v), op.matrix() @ v, atol=1e-13)
    with pytest.raises(DimensionMismatch):
        op.apply(np.ones(4))


# ---------------------------------------------------------------------------
# flow generator actions


def _params(alpha=(1.0, PHI), beta=1.0 / 3.0, mu=0.0):
    return ActionParams(alpha=alpha, beta=(beta,), mu=mu)


def test_flow_generators_kill_constants():
    F = NilFunction.constant(3.0)
    p = _params()
    assert apply_X1(p, F).is_zero()
    assert apply_X2(p, F).is_zero()


def test_second_generator_is_scalar_on_rep_mode():
    p = _params(beta=0.25)
    F = NilFunction(reps={(1, 0): np.array([1.0, 0.5])})
    G = apply_X2(p, F)
    assert not G.toral.coeffs
    assert np.allclose(G.rep(1), 2j * np.pi * 0.25 * np.array([1.0, 0.5]), atol=0)


def test_first_generator_is_directional_derivative_on_toral():
    p = _params()
    F = NilFunction(toral=TorusFunction(2, {(2, -1): 1.5}))
    G = apply_X1(p, F)
    assert G.toral.coeff((2, -1)) == pytest.approx(
        2j * np.pi * (2 * 1.0 - 1 * PHI) * 1.5
    )
    assert not G.reps


def _random_nil_function(rng, length=5):
    toral = TorusFunction(
        2,
        {
            (1, 0): rng.standard_normal() + 1j * rng.standard_normal(),
            (0, 2): rng.standard_normal() + 1j * rng.standard_normal(),
        },
    )
    reps = {
        (1, 0): rng.standard_normal(length) + 1j * rng.standard_normal(length),
        (-2, 1): rng.standard_normal(length) + 1j * rng.standard_normal(length),
    }
    return NilFunction(toral=toral, reps=reps)


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_flow_generators_commute(mu):
    rng = np.random.default_rng(17)
    p = _params(mu=mu)
    F = _random_nil_function(rng)
    a = apply_X1(p, apply_X2(p, F))
    b = apply_X2(p, apply_X1(p, F))
    diff = a.sub(b)
    scale = max(nil_sobolev_norm(F, 0), 1e-300) * (2 * np.pi * 2) ** 2
    assert nil_sobolev_norm(diff, 0) < 1e-12 * scale


# ---------------------------------------------------------------------------
# norms


def test_sobolev_norm_of_constant():
    assert nil_sobolev_norm(NilFunction.constant(1.0), 3.0) == pytest.approx(1.0)


def test_sobolev_norm_single_rep_mode():
    for n, j, r in [(1, 0, 2.0), (-3, 4, 1.0), (2, 2, 0.0)]:
        v = np.zeros(j + 1, dtype=complex)
        v[j] = 0.7j
        F = NilFunction(reps={(n, 0): v})
        w = 1.0 + n * n + abs(n) * (2 * j + 1)
        assert nil_sobolev_norm(F, r) == pytest.approx(0.7 * w ** (r / 2.0))


def test_sobolev_norm_monotone_in_order():
    rng = np.random.default_rng(23)
    F = _random_nil_function(rng)
    norms = [nil_sobolev_norm(F, r) for r in (0.0, 1.0, 2.0, 3.5)]
    for a, b in zip(norms, norms[1:]):
        assert b >= a


def test_rep_norm_weight_via_pi_norm():
    assert pi_norm(1) == 1.0
    assert pi_norm(-5) == 5.0
    with pytest.raises(ValueError):
        pi_norm(0)


def test_pi_norm_matches_hyperplane_distance():
    # distance from {lambda(Z) = n} to the origin, minimized over a grid
    for n in (1, -3):
        ys = np.linspace(-5 * abs(n), 5 * abs(n), 201)
        y1, y2 = np.meshgrid(ys, ys)
        dist = np.sqrt(y1**2 + y2**2 + float(n) ** 2)
        assert np.min(dist) == pytest.approx(pi_norm(n))


# ---------------------------------------------------------------------------
# component decay reports


def test_cg_single_mode_closed_form():
    n, j, s, k = 3, 2, 1.0, 2.0
    v = np.zeros(j + 1, dtype=complex)
    v[j] = 2.0
    F = NilFunction(reps={(n, 0): v})
    report = cg_decay_report([F], s, k)
    w = 1.0 + n * n + abs(n) * (2 * j + 1)
    assert report["ratio_max"] == pytest.approx(abs(n) ** k * w ** (-k / 2.0))
    assert report["ratio_max"] <= 1.0


def test_cg_toral_member_reported_vacuous():
    F = NilFunction(toral=TorusFunction(2, {(1, 1): 1.0, (-1, -1): 1.0}, real=True))
    report = cg_decay_report([F], 0.0, 2.0)
    assert report["vacuous"] == 1
    assert report["ratios"][0] is None
    assert report["ratio_max"] == 0.0


def test_cg_zero_member_meets_the_bound_trivially():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cg_decay_report([NilFunction(reps={(1, 0): np.zeros(3)})], 0.0, 2.0)
    assert report["ratios"] == [{"full": 0.0, "inner": 0.0}]
    assert report["ratio_max"] == 0.0
    assert report["ratio_max_inner"] == 0.0
    assert report["vacuous"] == 0


def test_cg_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        cg_decay_report([], 0.0, 2.0)


def test_cg_random_corpus_plateau():
    rng = np.random.default_rng(41)
    corpus = []
    for _ in range(6):
        reps = {}
        for n in range(1, 41):
            for sign in (1, -1):
                v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                # decay fast enough that the worst ratio sits at small |n|
                weights = 1.0 + n * n + n * (2 * np.arange(3) + 1)
                reps[(sign * n, 0)] = v / weights**2
        corpus.append(NilFunction(reps=reps))
    report = cg_decay_report(corpus, 0.0, 2.0)
    assert report["n_max"] == 40
    assert report["plateau_ok"]
    assert report["ratio_max"] <= 1.0
    sums = dict(report["tail_sums"])
    assert sums[40] - sums[20] < sums[20] - sums[10]


# ---------------------------------------------------------------------------
# text format


def test_serialization_roundtrip():
    F = NilFunction(
        toral=TorusFunction(2, {(1, 2): 0.5 + 0.25j, (-1, -2): 0.5 - 0.25j}, real=True),
        reps={(2, 1): np.array([0.0, 1.0 - 0.5j]), (-1, 0): np.array([0.125j])},
    )
    text = serialize_nil_function(F)
    G = parse_nil_function(text)
    assert G.toral.coeffs == F.toral.coeffs
    assert G.toral.real
    assert set(G.reps) == set(F.reps)
    for key in F.reps:
        assert np.array_equal(G.reps[key], F.reps[key])


def test_parse_skips_comments_and_blanks():
    F = parse_nil_function("# header\n\ntoral 1 0 1.0 0.0  # trailing\n")
    assert F.toral.coeff((1, 0)) == 1.0


def test_parse_rejects_malformed_lines():
    with pytest.raises(FormatError) as exc:
        parse_nil_function("toral 1 0 1.0\n")
    assert exc.value.line == 1
    with pytest.raises(FormatError) as exc:
        parse_nil_function("toral 0 0 0.0 0.0\nbogus 1 2 3\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError):
        parse_nil_function("rep 1 0 -1 1.0 0.0\n")


def test_parse_validates_copy_index_bound():
    with pytest.raises(FormatError):
        parse_nil_function("rep 2 2 0 1.0 0.0\n")
    with pytest.raises(FormatError):
        parse_nil_function("rep 0 0 0 1.0 0.0\n")


def test_load_from_file(tmp_path):
    path = tmp_path / "member.txt"
    path.write_text("toral 0 0 2.0 0.0\nrep 1 0 0 1.0 -1.0\n")
    F = load_nil_function(str(path))
    assert F.toral.average == 2.0
    assert F.rep(1)[0] == 1.0 - 1.0j


def test_nil_function_validates_copy_index():
    with pytest.raises(ValueError):
        NilFunction(reps={(1, 1): np.array([1.0])})
    with pytest.raises(ValueError):
        NilFunction(reps={(0, 0): np.array([1.0])})
    with pytest.raises(DimensionMismatch):
        NilFunction(toral=TorusFunction(3))


# ---------------------------------------------------------------------------
# block storage against a dict-of-rows reference: each operation written one
# representation row at a time, on ragged rows

RAGGED_A = """\
toral 1 0 0.5 0.25
toral 0 -2 -0.125 0.75
rep 1 0 0 1.0 -0.5
rep 1 0 4 0.25 0.125
rep -2 1 2 -0.75 0.5
rep 3 2 6 0.5 0.5
rep 3 0 1 1.5 0.0
rep 2 0 39 0.01 -0.02
"""

RAGGED_B = """\
toral 1 0 -0.25 0.5
rep 1 0 1 0.5 0.5
rep -2 1 5 0.25 -1.0
rep -1 0 2 -1.0 0.25
rep 3 2 1 2.0 0.0
"""


def _ref_rows(F):
    return {key: np.array(v) for key, v in F.reps.items()}


def _ref_add(a, b):
    out = {}
    for key in set(a) | set(b):
        u, v = a.get(key), b.get(key)
        if u is None or v is None:
            out[key] = v if u is None else u
        else:
            s = np.zeros(max(len(u), len(v)), dtype=complex)
            s[: len(u)] += u
            s[: len(v)] += v
            out[key] = s
    return out


def _ref_act(rows, y, z):
    if y == (0.0, 0.0):
        return {(n, m): 2j * np.pi * n * z * v for (n, m), v in rows.items()}
    return {
        (n, m): RepOperator(n, len(v) + 1, y=y, z=z).matrix() @ np.append(v, 0.0)
        for (n, m), v in rows.items()
    }


def _ref_weight_sq(n, length, r):
    return (1.0 + n * n + abs(n) * (2 * np.arange(length) + 1)) ** r


def _ref_norm_sq(rows, r):
    return sum(
        float(np.sum(np.abs(v) ** 2 * _ref_weight_sq(n, len(v), r)))
        for (n, _m), v in rows.items()
    )


def _assert_rows(F, ref):
    assert F.keys == tuple(sorted(ref))
    assert F.lengths.tolist() == [len(ref[key]) for key in F.keys]
    assert F.ns.tolist() == [n for n, _m in F.keys]
    assert F.block.shape == (len(F.keys), max(map(len, ref.values()), default=0))
    for key, v in F.reps.items():
        scale = max(float(np.max(np.abs(ref[key]))), 1e-300)
        assert np.max(np.abs(v - ref[key]), initial=0.0) <= 1e-14 * scale
        # past its length a row of the block is zero
        assert not F.block[F.keys.index(key), len(v):].any()


def _ragged_functions():
    A = parse_nil_function(RAGGED_A)
    B = parse_nil_function(RAGGED_B)
    # beta = 2 keeps the adaptive truncation short (256 and 640 entries)
    lap = laplacian_solve(_params(beta=2.0), A, tol=1e-9)
    return A, B, lap


def test_ragged_inputs_are_ragged():
    A, B, lap = _ragged_functions()
    assert A.keys == ((-2, 1), (1, 0), (2, 0), (3, 0), (3, 2))
    assert A.lengths.tolist() == [3, 5, 40, 2, 7]
    assert B.lengths.tolist() == [6, 3, 2, 2]
    # the laplacian solve sizes each row from its own length
    assert len(set(lap.lengths.tolist())) > 1


@pytest.mark.parametrize("mu", [0.0, 0.4])
def test_block_matches_row_reference(mu):
    A, B, lap = _ragged_functions()
    p = _params(mu=mu)
    for F in (A, B, lap):
        _assert_rows(F, _ref_rows(F))
        scaled = {k: (-0.5 + 2j) * v for k, v in _ref_rows(F).items()}
        _assert_rows(F.scaled(-0.5 + 2j), scaled)
        _assert_rows(apply_X1(p, F), _ref_act(_ref_rows(F), p.x1_y, 0.0))
        _assert_rows(apply_X2(p, F), _ref_act(_ref_rows(F), p.x2_y, p.x2_z[0]))
        for r in (0.0, 1.0, 3.5):
            ref = math.sqrt(sobolev_norm(F.toral, r) ** 2 + _ref_norm_sq(_ref_rows(F), r))
            assert nil_sobolev_norm(F, r) == pytest.approx(ref, rel=1e-14)
        for G in (A, B, lap):
            _assert_rows(F.add(G), _ref_add(_ref_rows(F), _ref_rows(G)))
            neg = {k: -1.0 * v for k, v in _ref_rows(G).items()}
            _assert_rows(F.sub(G), _ref_add(_ref_rows(F), neg))


def test_cg_report_matches_row_reference():
    A, B, lap = _ragged_functions()
    corpus = [A, B, lap, A.add(B), NilFunction.constant(1.0)]
    s, k = 0.5, 2.0
    report = cg_decay_report(corpus, s, k)
    n_max = max(abs(n) for F in corpus for n, _m in F.reps)
    assert report["n_max"] == n_max
    assert report["vacuous"] == 1 and report["ratios"][-1] is None
    for F, got in zip(corpus[:-1], report["ratios"]):
        rows = _ref_rows(F)
        denom = math.sqrt(sobolev_norm(F.toral, s + k) ** 2 + _ref_norm_sq(rows, s + k))
        ratios = {}
        for n in sorted({n for n, _m in rows}):
            at_n = {key: v for key, v in rows.items() if key[0] == n}
            ratios[n] = math.sqrt(_ref_norm_sq(at_n, s)) * abs(n) ** k / denom
        full = max(ratios.values())
        inner = max((x for n, x in ratios.items() if 2 * abs(n) <= n_max), default=0.0)
        assert got["full"] == pytest.approx(full, rel=1e-14)
        assert got["inner"] == pytest.approx(inner, rel=1e-14)


def test_laplacian_solve_rows_match_per_row_solves():
    p = _params(beta=2.0, mu=0.3)
    for F in _ragged_functions()[:2]:
        out = laplacian_solve(p, F, tol=1e-9)
        ref = {
            (n, m): _rep_laplacian_solve(p, n, v, 1e-9)
            for (n, m), v in _ref_rows(F).items()
        }
        _assert_rows(out, ref)


def test_delta0_star_at_negative_mu_matches_per_row_solves():
    p = _params(mu=-2.0)
    A, _B, lap = _ragged_functions()
    for h in (A, lap):
        h = NilFunction(toral=h.toral - TorusFunction.constant(2, h.toral.average),
                        reps=h.reps)
        omega = delta0(p, h)
        out = delta0_star(p, omega)
        ref = {
            (n, m): np.linalg.solve(
                RepOperator(n, len(v), y=p.x2_y, z=p.x2_z[0]).matrix(), v
            )
            for (n, m), v in _ref_rows(omega.g).items()
        }
        _assert_rows(out, ref)
        # and the solve inverts the coboundary
        for key, v in out.reps.items():
            assert np.allclose(v[: h.lengths[h.keys.index(key)]], h.reps[key], atol=1e-9)


def test_reps_view_and_block_are_read_only():
    A = parse_nil_function(RAGGED_A)
    key = A.keys[0]
    with pytest.raises(TypeError):
        A.reps[key] = np.zeros(3)
    with pytest.raises(ValueError):
        A.reps[key][0] = 1.0
    with pytest.raises(ValueError):
        A.block[0, 0] = 1.0
    with pytest.raises(ValueError):
        A.lengths[0] = 1
    assert A.reps is A.reps  # cached
