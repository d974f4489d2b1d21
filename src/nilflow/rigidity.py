"""Transversal local rigidity toolkit: the projection onto family directions,
its section, average-preserving smoothing, and a verified Newton step for
perturbed actions on the Heisenberg model.  The step splits each slot once:
a coboundary, an error pair controlled by the cocycle defect, and the
family directions."""

import math
import re
from dataclasses import dataclass

import numpy as np

from .cohomology import VfCochain, VfField, vf_coboundary_solve, vf_delta0
from .errors import (
    DimensionMismatch,
    FormatError,
    ThresholdExceeded,
    UnrepresentableProduct,
    UnsupportedPerturbation,
)
from .nilrep import NilFunction, _parse_records, nil_sobolev_norm
from .torus import _SIZE_CAP, TorusFunction, _re_expanded, _real_samples, _smooth_size


@dataclass
class FamilyCoordinates:
    """Point of the transversal family: a coordinate-change direction and the
    Y1, Y2 and Z constant offsets of the generator coefficients."""

    mu1: float
    lam: tuple

    def __post_init__(self):
        self.mu1 = float(self.mu1)
        self.lam = tuple(float(x) for x in self.lam)
        if len(self.lam) != 3:
            raise DimensionMismatch("offset vector must hold the Y1, Y2 and Z offsets")

    @property
    def vector(self):
        return (self.mu1,) + self.lam


def _avg(F):
    return float(complex(F.toral.average).real)


def project_P(params, omega):
    """Family coordinates of a vector-field cochain by averaging.

    The first-generator value averages to the Y offsets; the second-generator
    value yields the coordinate-change direction through its leading Y
    component and the Z offsets directly.
    """
    if params.alpha[0] == 0:
        raise ValueError("leading frequency component must be nonzero")
    a = [_avg(h) for h in omega.x1.y]
    mu1 = _avg(omega.x2.y[0]) / float(params.alpha[0])
    b = [_avg(h) for h in omega.x2.z]
    return FamilyCoordinates(mu1, tuple(a) + tuple(b))


def section_s(params, coords):
    """Constant cochain of the family member at coords relative to the action
    of params: the generator-coefficient difference rho_{mu+mu1, lam} -
    rho_{mu, 0}, the same at every mu.  lam holds the Y1, Y2 and Z offsets.
    """
    y1, y2, z = coords.lam
    x2 = VfField.constant([coords.mu1 * float(a) for a in params.alpha], (z,))
    return VfCochain(VfField.constant((y1, y2), (0.0,)), x2)


def smoothing_truncate(F, cutoff):
    """Drop toral modes with sup norm beyond the cutoff, representations with
    central frequency beyond it, and Hermite coefficients past index cutoff.
    Averages along the family directions live at k = 0 and are untouched."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    return F._cut(F.toral.truncated(cutoff), cutoff, int(math.floor(cutoff)) + 1)


def _grid_products(tori, sums, D):
    """Sums of products of real toral functions on T^2 and their partials, on
    one grid.  sums[i] lists (op, (f, a), (g, b)) terms, op np.add or
    np.subtract, each adding or subtracting tori[f]_a tori[g]_b; index 0 reads
    the values, 1 and 2 the partials along Y1 and Y2.  The factors read are
    sampled, and the sums re-expanded at |k| <= D, in one stacked pass each of
    torus's real layer on the smallest 5-smooth side G >= 2 D + 1, where no
    product aliases.  The rounding is absolute, eps log G ||a||_1 ||b||_1 per
    product a b (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 24), where a double sum's is relative per entry."""
    G = _smooth_size(2 * D + 1)
    factors = sorted({x for terms in sums for _op, *pq in terms for x in pq})
    if len(factors) * G * G > _SIZE_CAP:
        raise DimensionMismatch("product grids too large (%d of %d^2 entries)" % (len(factors), G))
    d = max(t.size for t in tori)
    padded = np.zeros((len(tori), 2 * d + 1, 2 * d + 1), dtype=complex)
    for block, t in zip(padded, tori):
        block[d - t.size : d + t.size + 1, d - t.size : d + t.size + 1] = t.block
    scale = np.ones((3, 2 * d + 1, 2 * d + 1), dtype=complex)
    k = 2j * np.pi * np.arange(-d, d + 1)
    scale[1], scale[2] = k[:, None], k[None, :]
    f, a = np.array(factors).T
    samples = _real_samples(padded[f] * scale[a], G)
    grid = np.zeros((len(sums), G * G))
    for out, terms in zip(grid, sums):
        for op, p, q in terms:
            op(out, samples[factors.index(p)] * samples[factors.index(q)], out=out)
    return [TorusFunction._exact(2, b, True) for b in _re_expanded(grid.reshape(-1, G, G), D)]


def nil_multiply(F, G):
    """Pointwise product where it stays inside the real coefficient frame: toral
    times toral is a convolution (`_grid_products` for one pair), constants
    scale anything, and complex toral factors are refused, as are products of
    representation parts with nonconstant factors, which leave the frame."""
    if not (F.toral.real and G.toral.real):
        raise UnrepresentableProduct("complex toral factor: the grid products are real")
    for A, B in ((F, G), (G, F)):
        # a constant: every nonzero coefficient sits at the centre
        if not A.keys and np.count_nonzero(A.toral.block) == (A.toral.average != 0):
            return B.scaled(complex(A.toral.average))
    if F.keys or G.keys:
        raise UnrepresentableProduct("product of representation data with a nonconstant "
                                     "factor is not representable in the coefficient frame")
    one = [[(np.add, (0, 0), (1, 0))]]
    [toral] = _grid_products([F.toral, G.toral], one, F.toral.size + G.toral.size)
    return NilFunction(toral=toral)


def vf_bracket(U, V):
    """Bracket of vector fields with toral coefficient functions: the terms
    u_a (Y_a v_b) - v_a (Y_a u_b) move coefficients along Y1 and Y2, Z acting
    trivially on toral data, and [Y1, Y2] = Z feeds u1 v2 - u2 v1 into the
    center.  Every product is formed on one grid at degree d_u + d_v, the
    largest slot sizes of U and V (`_grid_products`); none with a zero factor
    is formed, and a component none reaches is the zero NilFunction().  A
    slot with representation rows or complex toral coefficients is refused
    first (UnrepresentableProduct)."""
    for name, F in zip(("U.y0", "U.y1", "U.z0", "V.y0", "V.y1", "V.z0"), U.slots + V.slots):
        if F.keys:
            raise UnrepresentableProduct("bracket slot %s carries representation rows, "
                                         "first %r" % (name, F.keys[0]))
        if not F.toral.real:
            raise UnrepresentableProduct("bracket slot %s has complex toral coefficients" % name)
    # U's slots are tori 0-2 and V's 3-5
    tori = [F.toral for F in U.slots + V.slots]
    live = [not t.is_zero() for t in tori]
    sums = [[(op, (i, 0), (j, a + 1)) for a in (0, 1)
             for op, i, j in ((np.add, a, 3 + b), (np.subtract, 3 + a, b))
             if live[i] and live[j]] for b in range(3)]
    sums[2] += [(op, (i, 0), (j, 0)) for op, i, j in ((np.add, 0, 4), (np.subtract, 1, 3))
                if live[i] and live[j]]
    D = max(t.size for t in tori[:3]) + max(t.size for t in tori[3:])
    products = iter(_grid_products(tori, [t for t in sums if t], D) if any(sums) else ())
    out = [NilFunction(toral=next(products)) if terms else NilFunction() for terms in sums]
    return VfField(tuple(out[:2]), tuple(out[2:]))


def _field_norm(A):
    return max(nil_sobolev_norm(h, 0.0) for h in A.slots)


def require_toral_perturbation(omega):
    """Refuse a perturbation cochain with representation rows or complex
    toral coefficients, c_{-k} != conj(c_k), in any slot
    (UnsupportedPerturbation): the bracket multiplies real toral
    coefficients only, and would refuse the rest itself (`vf_bracket`)."""
    for name, F in _named_slots(omega):
        what = ("carries representation rows, first %r" % (F.keys[0],) if F.keys
                else None if F.toral.real else "has complex toral coefficients")
        if what:
            raise UnsupportedPerturbation("perturbation slot %s %s; the rigidity step takes "
                                          "real toral coefficients only" % (name, what))


def newton_step(params, omega, threshold=0.5):
    """One linearized rigidity step at the family point params.mu.

    Project the perturbation cochain onto the family directions, split the
    remainder slot by slot into a coboundary, an error pair controlled by the
    cocycle defect, and constants (`vf_coboundary_solve`), then measure the
    second-order residue: the linear leftover, the error pair included, plus
    the first conjugacy bracket [H, omega - D/2] per generator.  The residual
    must shrink quadratically in the perturbation size.  Representation rows
    and complex toral data are refused first (`require_toral_perturbation`).
    """
    require_toral_perturbation(omega)
    size = max(_field_norm(omega.x1), _field_norm(omega.x2))
    if size > threshold:
        raise ThresholdExceeded(
            "perturbation norm %.3e exceeds the step threshold %.3e"
            % (size, threshold)
        )
    coords = project_P(params, omega)
    sec = section_s(params, coords)
    lin = VfCochain(omega.x1.sub(sec.x1), omega.x2.sub(sec.x2))
    H, resid_const = vf_coboundary_solve(params, lin)
    D = vf_delta0(params, H)
    residual_fields = []
    for om_i, lin_i, d_i, yc, zc in (
        (omega.x1, lin.x1, D.x1, resid_const.a1, resid_const.b1),
        (omega.x2, lin.x2, D.x2, resid_const.a2, resid_const.b2),
    ):
        lin_err = lin_i.sub(d_i).sub(VfField.constant(yc, zc))
        half_d = d_i.map(lambda h: h.scaled(0.5))
        residual_fields.append(lin_err.add(vf_bracket(H, om_i.sub(half_d))))
    residual_norm = max(_field_norm(f) for f in residual_fields)
    return coords, H, residual_norm


# --- serialization ----------------------------------------------------------

_SLOT_RE = re.compile(r"(x1|x2)\.(y|z)(\d+)\Z")


def _named_slots(omega):
    """(name, coefficient function) of each slot of a vector-field cochain,
    named as in the text form: x1.y0, x1.y1, x1.z0, then x2's."""
    for gen, fld in (("x1", omega.x1), ("x2", omega.x2)):
        for kind, slots in (("y", fld.y), ("z", fld.z)):
            for idx, F in enumerate(slots):
                yield "%s.%s%d" % (gen, kind, idx), F


def parse_vf_cochain(text):
    """The vector-field cochain of a flat text form, in which every record of
    a slot's coefficient function is prefixed with the slot name, e.g.
    ``x1.y0 toral 1 2 0.5 0.0``; slots absent from the text are zero.

    Record syntax after the slot prefix matches parse_nil_function; ``#``
    starts a comment.  Errors carry the line number in the original text.
    """
    per_slot = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        head, _, rest = stripped.partition(" ")
        m = _SLOT_RE.match(head)
        if not m:
            raise FormatError("unknown slot %r" % head, line=lineno)
        gen, kind, idx = m.group(1), m.group(2), int(m.group(3))
        if idx >= (2 if kind == "y" else 1):
            raise FormatError("slot index out of range: %r" % head, line=lineno)
        per_slot.setdefault((gen, kind, idx), []).append((lineno, rest.strip()))

    def build(*key):
        # each slot's records keep their line numbers in the combined file
        return _parse_records(per_slot.get(key, []))

    def field(gen):
        return VfField((build(gen, "y", 0), build(gen, "y", 1)), (build(gen, "z", 0),))

    return VfCochain(field("x1"), field("x2"))


def load_vf_cochain(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vf_cochain(fh.read())
