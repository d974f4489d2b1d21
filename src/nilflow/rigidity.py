"""Transversal local rigidity toolkit: the projection onto family directions,
its section, average-preserving smoothing, and a verified Newton step for
perturbed actions on the Heisenberg model.  The step splits each slot once:
a coboundary, an error pair controlled by the cocycle defect, and the
family directions."""

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cohomology import VfCochain, VfField, vf_coboundary_solve, vf_delta0
from .errors import (
    DimensionMismatch,
    FormatError,
    ThresholdExceeded,
    UnrepresentableProduct,
    UnsupportedPerturbation,
)
from .nilrep import (
    _GENERATORS,
    NilFunction,
    _apply_element,
    _parse_records,
    nil_sobolev_norm,
)
from .torus import TorusFunction, _readonly, _symmetrized, _zeros


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


# largest side of the denser factor's block at which nil_multiply's bincount
# kernel beats its shifted adds
_SCATTER_SIDE = 11


@lru_cache(maxsize=64)
def _shift_offsets(m, S):
    """Flat offsets k S + l of an m x m block's entries inside an S x S one."""
    k, l = np.divmod(np.arange(m * m), m)
    return _readonly(k * S + l)


def _is_constant(f):
    """Whether every nonzero coefficient of f sits at the centre."""
    return np.count_nonzero(f.block) == (f.block[(f.size,) * f.n] != 0)


def nil_multiply(F, G):
    """Pointwise product where it stays inside the coefficient frame: toral
    times toral is a convolution, constants scale anything.  Products involving
    a representation part and a nonconstant factor leave the frame.

    The convolution adds one shifted copy of the denser block per nonzero mode
    of the sparser: the products of the double sum, no FFT roundoff.  Up to
    side _SCATTER_SIDE two np.bincount calls over flat output indices, one
    for the real and one for the imaginary parts, add them in the same order,
    faster, with index arrays of nnz * side^2 <= side^4 entries; past it one
    add per nonzero wins and needs no index arrays."""
    for A, B in ((F, G), (G, F)):
        if not A.keys and _is_constant(A.toral):
            return B.scaled(complex(A.toral.average))
    if F.keys or G.keys:
        raise UnrepresentableProduct(
            "product of representation data with a nonconstant factor is not "
            "representable in the coefficient frame"
        )
    a, b = F.toral.block, G.toral.block
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    m = b.shape[0]
    out = _zeros(2, F.toral.size + G.toral.size)
    if m <= _SCATTER_SIDE:
        # bincount sums each output entry's terms in input order: the
        # sparser factor's nonzeros in block order, as the shifted adds do
        S = len(out)
        i, j = np.nonzero(a)
        idx = ((i * S + j)[:, None] + _shift_offsets(m, S)).reshape(-1)
        terms = (a[i, j][:, None] * b.reshape(-1)).reshape(-1)
        flat = out.reshape(-1)
        flat.real = np.bincount(idx, terms.real, S * S)
        flat.imag = np.bincount(idx, terms.imag, S * S)
    else:
        for i, j in np.argwhere(a):
            out[i : i + m, j : j + m] += a[i, j] * b
    # the sums' rounding breaks conjugate symmetry: a real product is repaired
    real = F.toral.real and G.toral.real
    return NilFunction(toral=TorusFunction._exact(2, _symmetrized(out) if real else out, real))


def vf_bracket(U, V):
    """Bracket of vector fields with function coefficients: derivative terms
    move coefficients along the basis elements, and [Y1, Y2] = Z feeds
    u1 v2 - u2 v1 into the center."""
    basis = [_GENERATORS[gen] for gen in ("Y1", "Y2", "Z")]
    u = U.slots
    v = V.slots
    out = [NilFunction() for _ in range(3)]
    for a, (y, z) in enumerate(basis):
        if u[a].is_zero() and v[a].is_zero():
            continue
        for b in range(3):
            if not (u[a].is_zero() or v[b].is_zero()):
                out[b] = out[b].add(nil_multiply(u[a], _apply_element(v[b], y, z)))
            if not (v[a].is_zero() or u[b].is_zero()):
                out[b] = out[b].sub(nil_multiply(v[a], _apply_element(u[b], y, z)))
    center = out[2].add(nil_multiply(u[0], v[1])).sub(nil_multiply(u[1], v[0]))
    return VfField(tuple(out[:2]), (center,))


def _field_norm(A):
    return max(nil_sobolev_norm(h, 0.0) for h in A.slots)


def require_toral_perturbation(omega):
    """Refuse a perturbation cochain with representation rows in any slot
    (UnsupportedPerturbation): the bracket's products `nil_multiply` cannot
    multiply representation rows by nonconstant coefficients."""
    for name, F in _named_slots(omega):
        if F.keys:
            raise UnsupportedPerturbation(
                "perturbation slot %s carries representation rows, first %r; "
                "the rigidity step takes toral coefficients only" % (name, F.keys[0])
            )


def newton_step(params, omega, threshold=0.5):
    """One linearized rigidity step at the family point params.mu.

    Project the perturbation cochain onto the family directions, split the
    remainder slot by slot into a coboundary, an error pair controlled by the
    cocycle defect, and constants (`vf_coboundary_solve`), then measure the
    second-order residue: the linear leftover, the error pair included, plus
    the first conjugacy bracket [H, omega - D/2] per generator.  The residual
    must shrink quadratically in the perturbation size.  A perturbation with
    representation rows is refused first (`require_toral_perturbation`).
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
