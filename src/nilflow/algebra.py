"""2-step nilpotent Lie algebras with exact structure constants, and the
cohomology of constant cochains over a commuting pair of generators.

Basis convention: Y_1..Y_q span a complement of the center, Z_1..Z_p span the
center, and the only nonzero brackets are [Y_l, Y_i] = sum_j c[l][i][j] Z_j.
The acting pair is X1 = sum_i alpha_i Y_i and X2 = mu X1 + sum_j beta_j Z_j;
mu is the coordinate-change parameter, zero for the base action.  X2 - mu X1
is central, so the pair commutes for every (alpha, beta, mu).

Structure constants are exact rationals, and the constant cohomology is
computed exactly: the action parameters are read as rationals and every rank
is an elimination over Fraction, with no tolerance.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, FormatError

def _as_number(x):
    # Fraction survives untouched so exact inputs stay exact
    if isinstance(x, (int, Fraction)):
        return x
    return float(x)


class TwoStepAlgebra:
    """Structure constants c[l][i][j] of [Y_l, Y_i] = sum_j c[l][i][j] Z_j.

    All brackets with central elements vanish by construction; antisymmetry in
    (l, i) is validated on construction.
    """

    def __init__(self, q, p, c):
        if q < 1 or p < 0:
            raise DimensionMismatch("need q >= 1 and p >= 0")
        self.q = int(q)
        self.p = int(p)
        if len(c) != q:
            raise DimensionMismatch("c must have shape q x q x p")
        self.c = [
            [[Fraction(c[l][i][j]) for j in range(p)] for i in range(q)]
            for l in range(q)
        ]
        for l in range(q):
            if len(c[l]) != q or any(len(c[l][i]) != p for i in range(q)):
                raise DimensionMismatch("c must have shape q x q x p")
        for l in range(q):
            for i in range(q):
                for j in range(p):
                    if self.c[l][i][j] != -self.c[i][l][j]:
                        raise FormatError(
                            "structure constants not antisymmetric at (%d,%d,%d)"
                            % (l + 1, i + 1, j + 1)
                        )

    @property
    def dim(self):
        return self.q + self.p


def heisenberg():
    """The q=2, p=1 algebra with [Y1, Y2] = Z1."""
    return algebra_from_brackets(2, 1, [(1, 2, 1, 1)])


def algebra_from_brackets(q, p, entries):
    """Build an algebra from 1-based sparse entries (l, i, j, value) meaning
    [Y_l, Y_i] has Z_j coefficient value; antisymmetric completion applied."""
    c = [[[Fraction(0)] * p for _ in range(q)] for _ in range(q)]
    for l, i, j, v in entries:
        v = Fraction(v)
        if not (1 <= l <= q and 1 <= i <= q and 1 <= j <= p):
            raise FormatError("bracket indices out of range: (%d,%d,%d)" % (l, i, j))
        if l == i and v != 0:
            raise FormatError("nonzero [Y_%d, Y_%d]" % (l, l))
        if c[l - 1][i - 1][j - 1] not in (Fraction(0), v):
            raise FormatError("conflicting entries for c[%d][%d][%d]" % (l, i, j))
        c[l - 1][i - 1][j - 1] = v
        c[i - 1][l - 1][j - 1] = -v
    return TwoStepAlgebra(q, p, c)


def parse_algebra(text):
    """Parse the definition format: header ``q=<int> p=<int>``, then lines
    ``c <l> <i> <j> <num>[/<den>]``.  Omitted entries are zero."""
    q = p = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if q is None:
            parts = line.split()
            try:
                kv = dict(tok.split("=") for tok in parts)
                q, p = int(kv["q"]), int(kv["p"])
            except (ValueError, KeyError):
                raise FormatError("expected header 'q=<int> p=<int>'", line=lineno)
            continue
        parts = line.split()
        if parts[0] != "c" or len(parts) != 5:
            raise FormatError("expected 'c <l> <i> <j> <value>'", line=lineno)
        try:
            l, i, j = int(parts[1]), int(parts[2]), int(parts[3])
            v = Fraction(parts[4])
        except (ValueError, ZeroDivisionError):
            raise FormatError("bad entry %r" % line, line=lineno)
        entries.append((l, i, j, v))
    if q is None:
        raise FormatError("missing 'q=<int> p=<int>' header")
    try:
        return algebra_from_brackets(q, p, entries)
    except FormatError as exc:
        raise FormatError(str(exc))


def load_algebra(path):
    with open(path, encoding="utf-8") as fh:
        return parse_algebra(fh.read())


class ActionParams:
    """Parameters (alpha, beta, mu) of the acting pair X1 = alpha.Y and
    X2 = mu X1 + beta.Z.

    alpha, beta are the base coefficients; mu tracks coordinate changes.
    The generator coefficient vectors x1_y = alpha, x2_y = mu alpha and
    x2_z = beta follow, so the pair commutes by construction.
    """

    def __init__(self, alpha, beta, mu=0):
        self.alpha = tuple(_as_number(x) for x in alpha)
        self.beta = tuple(_as_number(x) for x in beta)
        self.mu = _as_number(mu)

    @property
    def q(self):
        return len(self.alpha)

    @property
    def p(self):
        return len(self.beta)

    # generator coefficient vectors in the (Y, Z) basis
    @property
    def x1_y(self):
        return self.alpha

    @property
    def x2_y(self):
        return tuple(self.mu * a for a in self.alpha)

    @property
    def x2_z(self):
        return self.beta

    def generator(self, which):
        """Full (q+p)-coefficient vector of X1 or X2 (which in {1, 2})."""
        if which == 1:
            return tuple(self.x1_y) + (0,) * self.p
        if which == 2:
            return tuple(self.x2_y) + tuple(self.x2_z)
        raise ValueError("which must be 1 or 2")

    def replace(self, **kw):
        base = dict(alpha=self.alpha, beta=self.beta, mu=self.mu)
        base.update(kw)
        return ActionParams(**base)

    def __repr__(self):
        return "ActionParams(alpha=%r, beta=%r, mu=%r)" % (
            self.alpha,
            self.beta,
            self.mu,
        )


@dataclass
class ConstantCocycle:
    """Constant 1-cochain: omega(X1) = a1.Y + b1.Z, omega(X2) = a2.Y + b2.Z."""

    a1: tuple
    b1: tuple
    a2: tuple
    b2: tuple

    def __post_init__(self):
        self.a1 = tuple(_as_number(x) for x in self.a1)
        self.b1 = tuple(_as_number(x) for x in self.b1)
        self.a2 = tuple(_as_number(x) for x in self.a2)
        self.b2 = tuple(_as_number(x) for x in self.b2)
        if len(self.a1) != len(self.a2) or len(self.b1) != len(self.b2):
            raise DimensionMismatch("component lengths disagree")

    def to_vector(self):
        return list(self.a1) + list(self.b1) + list(self.a2) + list(self.b2)

    @classmethod
    def from_vector(cls, v, q, p):
        v = list(v)
        if len(v) != 2 * (q + p):
            raise DimensionMismatch("vector length must be 2(q+p)")
        return cls(v[:q], v[q : q + p], v[q + p : 2 * q + p], v[2 * q + p :])


def bracket(A, u, v):
    """[u, v] for coefficient vectors in the (Y, Z) basis; lands in the center."""
    if len(u) != A.dim or len(v) != A.dim:
        raise DimensionMismatch("vectors must have length q + p")
    out = [0] * A.dim
    for j in range(A.p):
        s = 0
        for l in range(A.q):
            ul = u[l]
            if ul == 0:
                continue
            for i in range(A.q):
                cij = A.c[l][i][j]
                if cij != 0:
                    s += ul * v[i] * cij
        out[A.q + j] = s
    return out


def const_delta0(A, params, H):
    """Coboundary of a constant vector field: (adjoint action of X1 and X2 on H)."""
    if len(H) != A.dim:
        raise DimensionMismatch("H must have length q + p")
    b1 = bracket(A, params.generator(1), H)
    b2 = bracket(A, params.generator(2), H)
    return ConstantCocycle(b1[: A.q], b1[A.q :], b2[: A.q], b2[A.q :])


def const_delta1(A, params, omega):
    """Value of the constant 2-cochain [X1, omega(X2)] - [X2, omega(X1)]
    as a (q+p)-vector (only central components can be nonzero)."""
    w1 = list(omega.a1) + list(omega.b1)
    w2 = list(omega.a2) + list(omega.b2)
    t1 = bracket(A, params.generator(1), w2)
    t2 = bracket(A, params.generator(2), w1)
    return [x - y for x, y in zip(t1, t2)]


# ---------------------------------------------------------------------------
# rank computations, exact over Fraction


def _insert(basis, row):
    """Reduce row against the echelon rows [(pivot_col, row)] of basis and,
    unless it reduces to zero, append it normalized at its first nonzero
    entry; returns True if it enlarged the span."""
    row = list(row)
    for pc, br in basis:
        x = row[pc]
        if x != 0:
            row = [a - x * b for a, b in zip(row, br)]
    pc = next((i for i, x in enumerate(row) if x != 0), None)
    if pc is None:
        return False
    piv = row[pc]
    basis.append((pc, [x / piv for x in row]))
    return True


def _unit(n, j):
    return [Fraction(int(i == j)) for i in range(n)]


def _nullspace(rows, ncols):
    """Basis of the kernel of the linear map given by matrix rows (acting on
    column vectors): reduce the transpose-free way via rref on rows."""
    basis = []
    for r in rows:
        _insert(basis, r)
    # back-substitute to full rref
    for idx, (pc, row) in enumerate(basis):
        for pc2, row2 in basis:
            if pc2 != pc and row[pc2] != 0:
                x = row[pc2]
                row = [a - x * b for a, b in zip(row, row2)]
        basis[idx] = (pc, row)
    pivots = {pc for pc, _ in basis}
    out = []
    for f in range(ncols):
        if f not in pivots:
            v = _unit(ncols, f)
            for pc, row in basis:
                v[pc] = -row[f]
            out.append(v)
    return out


def const_cohomology_basis(A, params):
    """Dimension of the constant cohomology and representatives of a complement
    of the constant coboundaries inside the constant cocycles.

    Ranks are exact: alpha, beta and mu are read as rationals (a float is a
    binary rational, so nothing is lost) and every elimination runs over
    Fraction with the first nonzero entry as pivot.  The representatives are
    Fractions, and no parameter, a zero component of alpha included, needs a
    tolerance: the dimension returned is the true one.
    """
    q, p, d = A.q, A.p, A.dim
    if params.q != q or params.p != p:
        raise DimensionMismatch(
            "alpha and beta need %d and %d components, got %d and %d"
            % (q, p, params.q, params.p)
        )
    params = ActionParams(
        [Fraction(x) for x in params.alpha],
        [Fraction(x) for x in params.beta],
        Fraction(params.mu),
    )
    n = 2 * d
    # delta1 matrix: rows indexed by target coordinates, columns by cochain basis
    cols = [
        const_delta1(A, params, ConstantCocycle.from_vector(_unit(n, j), q, p))
        for j in range(n)
    ]
    kernel = _nullspace([[c[i] for c in cols] for i in range(d)], n)

    # echelon rows of the image of delta0, spanned by the coboundaries of the
    # basis vectors of the algebra; the kernel vectors that enlarge it are
    # the representatives
    span = []
    rank_im = sum(
        _insert(span, const_delta0(A, params, _unit(d, j)).to_vector()) for j in range(d)
    )
    reps = [ConstantCocycle.from_vector(v, q, p) for v in kernel if _insert(span, v)]
    return len(kernel) - rank_im, reps
