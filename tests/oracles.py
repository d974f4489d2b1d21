"""Reference computations that the acceptance and unit tests compare the
package against: the closed-form Birkhoff average on the torus, the
composition of two near-identity changes of coordinates, the first
coboundary of a function, the cut of a function's representation rows to a
frequency window, the rigidity step that splits each slot twice, and toral
products and brackets by exact double sums."""

import numpy as np

from nilflow.cohomology import (
    Cochain1,
    VfCochain,
    VfField,
    delta1_star_split,
    vf_coboundary_solve,
    vf_delta0,
)
from nilflow.errors import DimensionMismatch
from nilflow.nilrep import apply_X1, apply_X2, nil_sobolev_norm
from nilflow.rigidity import project_P, section_s, vf_bracket
from nilflow.torus import _divisors, _field_from_grid, _freqs, _moved_points, _sampled


def birkhoff_average(alpha, f, x0, T):
    """Time average (1/T) int_0^T f(x0 + t alpha) dt in closed form: mode k
    contributes c_k exp(2 pi i k.x0) expm1(z) / z with z = 2 pi i T k.alpha,
    or c_k exp(2 pi i k.x0) where k.alpha is resonant (`_divisors`).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    alpha = np.asarray(alpha, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if alpha.shape != (f.n,) or x0.shape != (f.n,):
        raise DimensionMismatch("alpha and x0 must have length n")
    ka, floor = _divisors(tuple(alpha.tolist()), f.size)
    kx = sum(k * x for k, x in zip(_freqs(f.n, f.size), x0))
    z = 2j * np.pi * T * ka
    window = np.divide(np.expm1(z), z, out=np.ones_like(z), where=np.abs(ka) > floor)
    avg = np.sum(f.block * np.exp(2j * np.pi * kx) * window)
    return float(avg.real) if f.real else complex(avg)


def composed_displacement(u_new, u_acc, out_degree):
    """Displacement of (id + u_acc) o (id + u_new): u_new + u_acc(x + u_new),
    with u_acc evaluated at the moved points of a grid of 4 points per input
    mode that re-expands out_degree without aliasing.  The Newton step's
    additive update `torus._corrected` agrees with it to second order in
    u_new."""
    K_in = max(u_new.degree, u_acc.degree, 1)
    G = max(4 * K_in, 2 * out_degree + 2, 8)
    U = _sampled(u_new.components, G)
    vals = u_acc._component_values(_moved_points(U, G))
    for v, row in zip(vals, U):
        v += row
    return _field_from_grid(vals, G, out_degree)


def delta0(params, h):
    """First coboundary: the pair of generator derivatives of h."""
    return Cochain1(apply_X1(params, h), apply_X2(params, h))


def restrict_frequencies(F, n_max):
    """Drop representation components with |n| above n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return F._cut(F.toral, n_max, F.lengths.max(initial=0))


def delta_op(params, omega):
    """Regularized cochain: subtract the split's error pair, leaving a
    coboundary plus a constant cochain.  Vector-field cochains are treated
    coefficient slot by coefficient slot."""
    if isinstance(omega, Cochain1):
        s = delta1_star_split(params, omega)
        return Cochain1(omega.f.sub(s.f_err), omega.g.sub(s.g_err))
    # slot by slot, the two generator values form one scalar cochain
    pairs = omega.x1.map(
        lambda f, g: delta_op(params, Cochain1(f, g)), omega.x2
    )
    return VfCochain(pairs.map(lambda c: c.f), pairs.map(lambda c: c.g))


def newton_step_two_splits(params, omega):
    """The rigidity step with each slot split twice: regularize first
    (`delta_op`), then project, take the section and solve the regularized
    remainder; the residual is measured on omega itself, as the package's
    step measures it.  Returns (coordinates, H, residual norm)."""
    reduced = delta_op(params, omega)
    coords = project_P(params, reduced)
    sec = section_s(params, coords)
    lin = VfCochain(reduced.x1.sub(sec.x1), reduced.x2.sub(sec.x2))
    H, resid_const = vf_coboundary_solve(params, lin)
    D = vf_delta0(params, H)
    residual = 0.0
    for om_i, s_i, d_i, yc, zc in (
        (omega.x1, sec.x1, D.x1, resid_const.a1, resid_const.b1),
        (omega.x2, sec.x2, D.x2, resid_const.a2, resid_const.b2),
    ):
        lin_err = om_i.sub(s_i).sub(d_i).sub(VfField.constant(yc, zc))
        half_d = d_i.map(lambda h: h.scaled(0.5))
        field = lin_err.add(vf_bracket(H, om_i.sub(half_d)))
        residual = max([residual] + [nil_sobolev_norm(h, 0.0) for h in field.slots])
    return coords, H, residual


def shift_and_add(a, b):
    """The product of two centred toral blocks on T^2 as the exact double
    sum: one shifted copy of the block with more nonzeros per nonzero of the
    other, added in their order.  Its rounding is relative per entry."""
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    m = len(b)
    out = np.zeros((len(a) + m - 1,) * 2, dtype=complex)
    for i, j in np.argwhere(a):
        out[i : i + m, j : j + m] += a[i, j] * b
    return out


def double_sum_bracket(U, V):
    """vf_bracket's components for toral slots by double sums
    (`shift_and_add`), each a pair (block, weight): the centred block at
    degree d_u + d_v, the largest slot sizes of U and V, and the sum of
    ||a||_1 ||b||_1 over its products a b, which scales the grid product's
    rounding."""
    u = [F.toral for F in U.slots]
    v = [F.toral for F in V.slots]
    D = max(f.size for f in u) + max(f.size for f in v)
    terms = [[], [], []]
    for b, ts in enumerate(terms):
        for a in (0, 1):
            ts += [(1.0, u[a], v[b].partial(a)), (-1.0, v[a], u[b].partial(a))]
    terms[2] += [(1.0, u[0], v[1]), (-1.0, u[1], v[0])]
    out = []
    for ts in terms:
        block = np.zeros((2 * D + 1,) * 2, dtype=complex)
        weight = 0.0
        for sign, f, g in ts:
            prod = shift_and_add(f.block, g.block)
            cut = slice(D - len(prod) // 2, D + len(prod) // 2 + 1)
            block[cut, cut] += sign * prod
            weight += np.abs(f.block).sum() * np.abs(g.block).sum()
        out.append((block, weight))
    return out
