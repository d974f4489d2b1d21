"""Structure constants, constant cochains, and the constant-cohomology rank."""

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy

from nilflow.algebra import (
    ActionParams,
    ConstantCocycle,
    TwoStepAlgebra,
    algebra_from_brackets,
    bracket,
    const_cohomology_basis,
    const_delta0,
    const_delta1,
    heisenberg,
    parse_algebra,
)
from nilflow.errors import DimensionMismatch, FormatError

PHI = (1 + math.sqrt(5)) / 2


def three_two():
    # q=3, p=2 with [Y1,Y2]=Z1, [Y1,Y3]=Z2
    return algebra_from_brackets(3, 2, [(1, 2, 1, 1), (1, 3, 2, 1)])


# the definition-file text of heisenberg() and of three_two()
HEISENBERG_TEXT = "q=2 p=1\nc 1 2 1 1\n"
THREE_TWO_TEXT = "q=3 p=2\nc 1 2 1 1\nc 1 3 2 1\n"


def delta1_size(A, params, omega):
    """Largest entry of const_delta1 relative to omega's largest (at least 1)."""
    scale = max([1] + [abs(x) for x in omega.to_vector()])
    return max(abs(x) for x in const_delta1(A, params, omega)) / scale


def e(n, k):
    v = [0] * n
    v[k] = 1
    return v


def rand_fraction_vec(rng, n):
    return [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(n)]


# ---------------------------------------------------------------------------
# bracket


def test_bracket_heisenberg_readoff():
    A = heisenberg()
    assert bracket(A, e(3, 0), e(3, 1)) == [0, 0, 1]
    assert bracket(A, e(3, 1), e(3, 0)) == [0, 0, -1]


def test_bracket_centrality_and_antisymmetry():
    A = heisenberg()
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rand_fraction_vec(rng, 3)
        v = rand_fraction_vec(rng, 3)
        assert bracket(A, e(3, 2), v) == [0, 0, 0]
        assert bracket(A, u, u) == [0, 0, 0]
        lhs = bracket(A, u, v)
        rhs = [-x for x in bracket(A, v, u)]
        assert lhs == rhs
        # result lands in the center
        assert lhs[: A.q] == [0, 0]


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bracket(heisenberg(), [1, 0], [0, 1, 0])


def test_algebra_rejects_asymmetric_constants():
    with pytest.raises(FormatError):
        TwoStepAlgebra(2, 1, [[[0], [1]], [[1], [0]]])
    with pytest.raises(FormatError):
        TwoStepAlgebra(2, 1, [[[1], [1]], [[-1], [0]]])


# ---------------------------------------------------------------------------
# constant coboundaries and the cocycle predicate


def test_const_delta0_central_input_is_zero():
    A = heisenberg()
    params = ActionParams(alpha=(1, PHI), beta=(1,))
    c = const_delta0(A, params, e(3, 2))
    assert c.to_vector() == [0] * 6


def test_const_delta0_y2_input():
    # [a1 Y1 + a2 Y2, Y2] = a1 Z1
    A = heisenberg()
    params = ActionParams(alpha=(1.5, PHI), beta=(1,))
    c = const_delta0(A, params, e(3, 1))
    assert c.a1 == (0, 0)
    assert c.b1 == (1.5,)
    assert c.a2 == (0, 0)
    assert c.b2 == (0,)


def test_const_delta0_of_first_generator_is_zero():
    A = heisenberg()
    params = ActionParams(alpha=(Fraction(2), Fraction(3, 2)), beta=(Fraction(1),))
    c = const_delta0(A, params, list(params.generator(1)))
    assert c.to_vector() == [0] * 6


def test_const_delta0_second_generator_scales_with_mu():
    A = heisenberg()
    rng = np.random.default_rng(1)
    for _ in range(10):
        mu = Fraction(int(rng.integers(-4, 5)), 3)
        params = ActionParams(
            alpha=(Fraction(1), Fraction(5, 3)), beta=(Fraction(1),), mu=mu
        )
        H = rand_fraction_vec(rng, 3)
        c = const_delta0(A, params, H)
        assert c.b2 == tuple(mu * x for x in c.b1)


def test_cocycle_check_proportional_a2():
    A = heisenberg()
    params = ActionParams(alpha=(1, PHI), beta=(1,))
    for t in (-2.0, 0.0, 0.25, 3.0):
        omega = ConstantCocycle(
            a1=(0.3, -1.2), b1=(0.7,), a2=(t * 1, t * PHI), b2=(2.0,)
        )
        assert delta1_size(A, params, omega) <= 1e-9


def test_cocycle_check_rejects_nonproportional_a2():
    A = heisenberg()
    params = ActionParams(alpha=(1, PHI), beta=(1,))
    omega = ConstantCocycle(a1=(0, 0), b1=(0,), a2=(1, 0), b2=(0,))
    assert delta1_size(A, params, omega) > 1e-9


def test_zero_cocycle_passes():
    A = heisenberg()
    params = ActionParams(alpha=(1, PHI), beta=(1,))
    assert const_delta1(A, params, ConstantCocycle.from_vector([0] * 6, 2, 1)) == [0] * 3


def test_delta1_after_delta0_vanishes_exactly():
    # exact rational chain: no tolerance at all
    rng = np.random.default_rng(2)
    for A in (heisenberg(), three_two()):
        for _ in range(15):
            params = ActionParams(
                alpha=rand_fraction_vec(rng, A.q),
                beta=rand_fraction_vec(rng, A.p),
                mu=Fraction(int(rng.integers(-3, 4)), 2),
            )
            H = rand_fraction_vec(rng, A.dim)
            c = const_delta0(A, params, H)
            assert const_delta1(A, params, c) == [0] * A.dim


def test_image_members_have_alternating_b1_form():
    # b1_j of a coboundary is sum over bracketing pairs of h_i alpha_l - alpha_i h_l
    A = three_two()
    rng = np.random.default_rng(3)
    for _ in range(10):
        al = rand_fraction_vec(rng, 3)
        params = ActionParams(alpha=al, beta=(Fraction(1), Fraction(1)))
        H = rand_fraction_vec(rng, 5)
        c = const_delta0(A, params, H)
        assert c.b1[0] == al[0] * H[1] - al[1] * H[0]
        assert c.b1[1] == al[0] * H[2] - al[2] * H[0]


# ---------------------------------------------------------------------------
# coordinate changes


def apply_coordinate_change(params, mu1):
    # precomposing with X2 -> X2 + mu1 X1 adds mu1 to the tilt
    return params.replace(mu=params.mu + mu1)


def test_coordinate_change_zero_is_identity():
    params = ActionParams(alpha=(1, PHI), beta=(0.5,), mu=0.25)
    out = apply_coordinate_change(params, 0)
    assert out.generator(1) == params.generator(1)
    assert out.generator(2) == params.generator(2)


def test_coordinate_change_group_law():
    params = ActionParams(alpha=(1, PHI), beta=(0.5,))
    back = apply_coordinate_change(apply_coordinate_change(params, 1.0), -1.0)
    assert back.generator(2) == params.generator(2)
    both = apply_coordinate_change(apply_coordinate_change(params, 0.125), 0.25)
    assert both.mu == apply_coordinate_change(params, 0.375).mu


def test_coordinate_change_generator_coefficients():
    params = ActionParams(alpha=(1, PHI), beta=(0.5,))
    out = apply_coordinate_change(params, 0.75)
    assert out.x2_y == (0.75 * 1, 0.75 * PHI)
    assert out.x2_z == (0.5,)
    assert out.generator(1) == params.generator(1)


# ---------------------------------------------------------------------------
# constant cohomology: dimension against an independent symbolic rank oracle


def sympy_constant_cohomology_dim(q, p, brackets, alpha, mu):
    """Brute-force dim ker(delta1) - rank(delta0) with sympy matrices.

    brackets: {(l, i): {j: value}} zero-based with l < i.  The two generators
    are X1 = sum alpha_i Y_i and X2 = mu * X1 + center; a constant cochain is
    the stacked vector (a1, b1, a2, b2).
    """
    d = q + p

    def ad_into_center(coeff_y, v_y):
        out = [sympy.Integer(0)] * p
        for (l, i), row in brackets.items():
            for j, val in row.items():
                out[j] += val * (coeff_y[l] * v_y[i] - coeff_y[i] * v_y[l])
        return out

    x1 = list(alpha)
    x2 = [mu * a for a in alpha]

    def delta1(vec):
        a1, a2 = vec[:q], vec[d : d + q]
        t1 = ad_into_center(x1, a2)
        t2 = ad_into_center(x2, a1)
        return [x - y for x, y in zip(t1, t2)]

    def delta0(h_full):
        h = h_full[:q]
        return ad_into_center(x1, h) + ad_into_center(x2, h)

    n = 2 * d
    m1 = sympy.Matrix([delta1([sympy.Integer(k == col) for k in range(n)]) for col in range(n)]).T
    rows0 = []
    for col in range(d):
        h = [sympy.Integer(k == col) for k in range(d)]
        b = delta0(h)
        rows0.append([sympy.Integer(0)] * q + b[:p] + [sympy.Integer(0)] * q + b[p:])
    m0 = sympy.Matrix(rows0).T
    return (n - m1.rank()) - m0.rank()


def test_heisenberg_dimension_float_and_exact():
    A = heisenberg()
    dim_f, reps_f = const_cohomology_basis(A, ActionParams(alpha=(1, PHI), beta=(1,)))
    assert dim_f == 4
    assert len(reps_f) == 4
    dim_e, reps_e = const_cohomology_basis(
        A, ActionParams(alpha=(Fraction(1), Fraction(2, 3)), beta=(Fraction(1),))
    )
    assert dim_e == 4
    assert len(reps_e) == 4


def test_heisenberg_dimension_matches_symbolic_oracle():
    oracle = sympy_constant_cohomology_dim(
        2, 1, {(0, 1): {0: sympy.Integer(1)}}, [sympy.Integer(1), sympy.sqrt(2)], sympy.Integer(0)
    )
    A = heisenberg()
    dim, _ = const_cohomology_basis(A, ActionParams(alpha=(1, math.sqrt(2)), beta=(1,)))
    assert dim == oracle == 4


def test_three_two_dimension_matches_symbolic_oracle():
    brackets = {(0, 1): {0: sympy.Integer(1)}, (0, 2): {1: sympy.Integer(1)}}
    oracle = sympy_constant_cohomology_dim(
        3, 2, brackets, [sympy.Integer(1), sympy.sqrt(2), sympy.sqrt(3)], sympy.Integer(0)
    )
    assert oracle == 6
    A = three_two()
    dim, reps = const_cohomology_basis(
        A, ActionParams(alpha=(1, math.sqrt(2), math.sqrt(3)), beta=(1, 1))
    )
    assert dim == 6
    assert len(reps) == 6


def test_representatives_are_cocycles_outside_image():
    A = three_two()
    params = ActionParams(alpha=(1, math.sqrt(2), math.sqrt(3)), beta=(1, 1))
    dim, reps = const_cohomology_basis(A, params)
    for r in reps:
        assert delta1_size(A, params, r) <= 1e-9
    # stacking image columns with the representatives must enlarge the rank
    image = [const_delta0(A, params, e(5, k)).to_vector() for k in range(5)]
    rank_im = np.linalg.matrix_rank(np.array(image, dtype=float))
    m2 = np.array(image + [r.to_vector() for r in reps], dtype=float)
    assert np.linalg.matrix_rank(m2) == rank_im + len(reps)


def test_dimension_invariant_under_coordinate_change():
    A = three_two()
    base = ActionParams(alpha=(1, math.sqrt(2), math.sqrt(3)), beta=(1, 1))
    dim0, _ = const_cohomology_basis(A, base)
    for mu1 in (0.5, -2.0, 3.25):
        dim1, _ = const_cohomology_basis(A, apply_coordinate_change(base, mu1))
        assert dim1 == dim0
    oracle = sympy_constant_cohomology_dim(
        3,
        2,
        {(0, 1): {0: sympy.Integer(1)}, (0, 2): {1: sympy.Integer(1)}},
        [sympy.Integer(1), sympy.sqrt(2), sympy.sqrt(3)],
        sympy.Rational(1, 2),
    )
    assert oracle == dim0


def test_cocycle_parameter_count():
    # kernel splits as q free a1, p free b1, proportional a2, p+1 free center
    for A, params in (
        (heisenberg(), ActionParams(alpha=(1, PHI), beta=(1,))),
        (three_two(), ActionParams(alpha=(1, math.sqrt(2), math.sqrt(3)), beta=(1, 1))),
    ):
        dim, _ = const_cohomology_basis(A, params)
        image = [const_delta0(A, params, e(A.dim, k)).to_vector() for k in range(A.dim)]
        rank_im = np.linalg.matrix_rank(np.array(image, dtype=float))
        assert dim + rank_im == A.q + 2 * A.p + 1


def test_zero_alpha_component_is_exact_without_warning():
    oracle = sympy_constant_cohomology_dim(
        2, 1, {(0, 1): {0: sympy.Integer(1)}}, [sympy.Integer(0), sympy.Integer(1)], sympy.Integer(0)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in ((0, 1), (0.0, 1.0)):
            dim, reps = const_cohomology_basis(heisenberg(), ActionParams(alpha=alpha, beta=(1,)))
            assert dim == len(reps) == oracle == 4


def random_algebra(rng, q, p):
    """A q x p algebra with sparse small-integer structure constants."""
    entries = [
        (l, i, j, int(rng.integers(-2, 3)))
        for l in range(1, q + 1)
        for i in range(l + 1, q + 1)
        for j in range(1, p + 1)
        if rng.random() < 0.4
    ]
    return algebra_from_brackets(q, p, entries)


def float_rank_dim(A, alpha, mu):
    """dim ker(delta1) - rank(delta0) from float matrices and
    np.linalg.matrix_rank.  Only central components of a bracket are
    nonzero, so delta1 is p x 2(q+p) and delta0 is 2(q+p) x (q+p); beta
    brackets to zero and does not enter."""
    q, p, d = A.q, A.p, A.dim
    C = np.array([[[float(x) for x in row] for row in plane] for plane in A.c]).reshape(q, q, p)
    x1 = np.array(alpha, dtype=float)
    ad1 = np.einsum("l,lij->ji", x1, C)  # ad_X1 from Y into Z, shape (p, q)
    ad2 = mu * ad1
    d1 = np.zeros((p, 2 * d))
    d1[:, :q] = -ad2
    d1[:, d : d + q] = ad1
    d0 = np.zeros((2 * d, d))
    d0[q:d, :q] = ad1
    d0[d + q :, :q] = ad2
    rank = lambda m: np.linalg.matrix_rank(m) if m.size else 0
    return 2 * d - rank(d1) - rank(d0)


def test_exact_ranks_match_a_float_rank_oracle_on_random_algebras():
    rng = np.random.default_rng(31)
    choices = (0.0, 1.0, -0.5, math.sqrt(2), math.sqrt(3), PHI, 1e-3)
    for _ in range(60):
        q, p = int(rng.integers(1, 7)), int(rng.integers(0, 4))
        A = random_algebra(rng, q, p)
        alpha = tuple(float(rng.choice(choices)) for _ in range(q))
        beta = tuple(float(rng.choice((1.0, 1e-6, 1e-12, 0.0))) for _ in range(p))
        for mu in (0, 0.7, -2):
            params = ActionParams(alpha=alpha, beta=beta, mu=mu)
            dim, reps = const_cohomology_basis(A, params)
            assert dim == len(reps) == float_rank_dim(A, alpha, mu), (q, p, alpha, mu)
            exact = ActionParams(
                [Fraction(x) for x in alpha], [Fraction(x) for x in beta], Fraction(mu)
            )
            for r in reps:
                assert all(isinstance(x, Fraction) for x in r.to_vector())
                assert all(x == 0 for x in const_delta1(A, exact, r))


# ---------------------------------------------------------------------------
# definition-file format


def test_parse_serialize_roundtrip():
    assert parse_algebra(THREE_TWO_TEXT) == three_two()


def test_parse_with_comments_and_fractions():
    text = """
    # three generators, two central
    q=3 p=2
    c 1 2 1 1/3   # [Y1,Y2] = Z1/3
    c 1 3 2 -2
    """
    A = parse_algebra(text)
    assert A.c[0][1][0] == Fraction(1, 3)
    assert A.c[1][0][0] == Fraction(-1, 3)
    assert A.c[0][2][1] == Fraction(-2)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_algebra("q=two p=1\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_algebra("q=2 p=1\nc 1 2 1\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_algebra("q=2 p=1\nc 1 2 1 1\nc 1 2 1 1/0\n")
    with pytest.raises(FormatError):
        parse_algebra("# only a comment\n")
    with pytest.raises(FormatError):
        parse_algebra("q=2 p=1\nc 1 2 2 1\n")


def test_load_algebra(tmp_path):
    f = tmp_path / "alg.txt"
    f.write_text(HEISENBERG_TEXT)
    from nilflow.algebra import load_algebra

    assert load_algebra(f) == heisenberg()


def test_load_algebra_reads_utf8_under_an_ascii_locale(tmp_path):
    # the default text encoding follows the locale; an ASCII locale must not
    # refuse a UTF-8 comment
    f = tmp_path / "alg.txt"
    f.write_text("# Heisenberg \u2014 [Y1, Y2] = Z\n" + HEISENBERG_TEXT,
                 encoding="utf-8")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.path.join(root, "src"))
    code = ("import sys; from nilflow.algebra import heisenberg, load_algebra; "
            "sys.exit(load_algebra(sys.argv[1]) != heisenberg())")
    proc = subprocess.run([sys.executable, "-c", code, str(f)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_constant_cocycle_vector_roundtrip():
    c = ConstantCocycle(a1=(1, 2), b1=(3,), a2=(4, 5), b2=(6,))
    assert ConstantCocycle.from_vector(c.to_vector(), 2, 1) == c
    assert c.to_vector() == [1, 2, 3, 4, 5, 6]
