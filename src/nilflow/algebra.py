"""2-step nilpotent Lie algebras with exact structure constants, and the
cohomology of constant cochains over a commuting pair of generators.

Basis convention: Y_1..Y_q span a complement of the center, Z_1..Z_p span the
center, and the only nonzero brackets are [Y_l, Y_i] = sum_j c[l][i][j] Z_j.
The acting pair is X1 = sum_i alpha_i Y_i and X2 = mu X1 + sum_j beta_j Z_j;
mu is the coordinate-change parameter, zero for the base action.  X2 - mu X1
is central, so the pair commutes for every (alpha, beta, mu).

Structure constants are exact rationals.  Rank computations run exactly over
Fraction whenever every input is rational, and in floating point with a pivot
tolerance otherwise.
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, FormatError

RANK_TOL = 1e-10


def _is_exact(x):
    return isinstance(x, (int, Fraction))


def _as_number(x):
    # Fraction survives untouched so exact paths stay exact
    if _is_exact(x):
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

    def __eq__(self, other):
        return (
            isinstance(other, TwoStepAlgebra)
            and self.q == other.q
            and self.p == other.p
            and self.c == other.c
        )


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
# rank computations, exact over Fraction when possible


def _reduce_against(row, basis, tol, exact):
    """Eliminate row against reduced basis rows [(pivot_col, row)]; return
    (pivot_col, normalized_row) or None if row reduces to zero."""
    row = list(row)
    for pc, br in basis:
        x = row[pc]
        if x != 0:
            row = [a - x * b for a, b in zip(row, br)]
    scale = max((abs(x) for x in row), default=0)
    if scale == 0:
        return None
    if not exact and scale <= tol:
        return None
    # pick the largest entry as pivot for float stability; exact path takes first
    if exact:
        pc = next(i for i, x in enumerate(row) if x != 0)
    else:
        pc = max(range(len(row)), key=lambda i: abs(row[i]))
        if abs(row[pc]) <= tol:
            return None
    piv = row[pc]
    return pc, [x / piv for x in row]


class _RowSpace:
    """Incremental row-echelon accumulator used for kernels and complements."""

    def __init__(self, tol, exact):
        self.basis = []
        self.tol = tol
        self.exact = exact

    def insert(self, row):
        """Insert a row; returns True if it enlarged the span."""
        res = _reduce_against(row, self.basis, self.tol, self.exact)
        if res is None:
            return False
        self.basis.append(res)
        return True


def _nullspace(rows, ncols, tol, exact):
    """Basis of the kernel of the linear map given by matrix rows (acting on
    column vectors): reduce the transpose-free way via rref on rows."""
    rs = _RowSpace(tol, exact)
    for r in rows:
        rs.insert(r)
    # back-substitute to full rref
    basis = list(rs.basis)
    for idx in range(len(basis)):
        pc, row = basis[idx]
        for pc2, row2 in basis:
            if pc2 != pc and row[pc2] != 0:
                x = row[pc2]
                row = [a - x * b for a, b in zip(row, row2)]
        basis[idx] = (pc, row)
    pivots = {pc for pc, _ in basis}
    free = [j for j in range(ncols) if j not in pivots]
    out = []
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for pc, row in basis:
            v[pc] = -row[f]
        out.append(v)
    return out


def const_cohomology_basis(A, params):
    """Dimension of the constant cohomology and representatives of a complement
    of the constant coboundaries inside the constant cocycles.

    Exact (zero-tolerance) whenever the structure constants and all action
    parameters are rational; otherwise floating point with pivot tolerance
    RANK_TOL.
    """
    q, p, d = A.q, A.p, A.dim
    if params.q != q or params.p != p:
        raise DimensionMismatch(
            "alpha and beta need %d and %d components, got %d and %d"
            % (q, p, params.q, params.p)
        )
    exact = all(_is_exact(x) for x in (*params.alpha, *params.beta, params.mu))
    if any(x == 0 for x in params.x1_y):
        warnings.warn(
            "alpha has a zero component; constant-cohomology ranks may be degenerate",
            RuntimeWarning,
            stacklevel=2,
        )

    n = 2 * d
    # delta1 matrix: rows indexed by target coordinates, columns by cochain basis
    cols = []
    for j in range(n):
        e = [Fraction(0) if exact else 0.0] * n
        e[j] = Fraction(1) if exact else 1.0
        cols.append(const_delta1(A, params, ConstantCocycle.from_vector(e, q, p)))
    delta1_rows = [[cols[j][i] for j in range(n)] for i in range(d)]
    kernel = _nullspace(delta1_rows, n, RANK_TOL, exact)

    # image of delta0: columns are coboundaries of basis vectors of the algebra
    image = []
    for j in range(d):
        e = [Fraction(0) if exact else 0.0] * d
        e[j] = Fraction(1) if exact else 1.0
        image.append(const_delta0(A, params, e).to_vector())

    rs = _RowSpace(RANK_TOL, exact)
    rank_im = 0
    for v in image:
        if rs.insert(v):
            rank_im += 1
    reps = []
    for v in kernel:
        if rs.insert(v):
            reps.append(ConstantCocycle.from_vector(v, q, p))
    return len(kernel) - rank_im, reps
