"""Kirillov-type model for functions on the Heisenberg nilmanifold.

A function is stored as a toral component (Fourier modes on the associated
2-torus) together with finitely many representation components, one complex
coefficient vector per central frequency n and copy index, expressed in the
Hermite function basis of the Schrodinger model.  The vectors are the rows of
one zero-padded block, so norms, sums and generator actions are whole-block
array operations.

Convention, fixed once for the whole package: the first lattice generator acts
as d/dx, the second as multiplication by 2*pi*i*n*x, and the center as the
scalar 2*pi*i*n.  Every spectrum and certificate downstream inherits it.

The Hermite ladder x.h_j = sqrt((j+1)/2) h_{j+1} + sqrt(j/2) h_{j-1} has
one home: the tridiagonal bands of `_bands`, and of `_row_bands` for a whole
block.  Generator actions (`_act`, under `apply_X1`, `apply_X2` and the
brackets of the rigidity step) apply those bands, one entry larger than the
vector, to every row of a block at once.  Those bands are built once
per row layout (the rows' frequencies, the width and the element) and cached
read-only, and an element without a central part, such as X1, skips the
zero main diagonal.  Sums and differences of functions align rows by label
and combine them entry by entry.  The leafwise Laplacian of `cohomology`
inverts the bands: its block factors into two shifted copies of X1's bands,
each undone by one `_tridiag_solve`.  `_hermite_nodes` diagonalizes the same
ladder once per truncation, for the closed-form spectra built on it.
"""

import math
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch, EmptyCorpus, FormatError
from .torus import (
    _SIZE_CAP,
    TorusFunction,
    _readonly,
    _require_size,
    directional_derivative,
    sobolev_norm,
)

# generator -> (Y coefficients, Z coefficient) of the Lie algebra element
_GENERATORS = {
    "Y1": ((1.0, 0.0), 0.0),
    "Y2": ((0.0, 1.0), 0.0),
    "Z": ((0.0, 0.0), 1.0),
}


def _ladder(size):
    """Off-diagonal sqrt(j/2), j = 1 .. size-1, of x on the first `size`
    Hermite functions."""
    return np.sqrt(np.arange(1, size) / 2.0)


@lru_cache(maxsize=256)
def _hermite_nodes(size):
    """The Gauss-Hermite nodes of order `size`, ascending and read-only: the
    eigenvalues of the real symmetric Jacobi matrix of the ladder, made
    exactly antisymmetric (x_i = -x_{size-1-i}, a middle node exactly 0) as
    the exact nodes are."""
    _require_size(size, 2, "Hermite truncation")
    r = _ladder(size)
    x = np.linalg.eigvalsh(np.diag(r, 1) + np.diag(r, -1))
    return _readonly((x - x[::-1]) / 2)


def _bands(n, size, y, z):
    """Super-, sub- and main diagonal of y1*Y1 + y2*Y2 + z*Z on the first
    `size` Hermite functions at central frequency n.  A column of frequencies
    gives one row of bands per frequency.  The main diagonal is the constant
    2*pi*i*n*z, returned unbroadcast."""
    r = _ladder(size)
    scale = 2j * np.pi * n
    # d/dx contributes an antisymmetric pair, x a symmetric one
    sup = y[0] * r + y[1] * scale * r
    sub = -y[0] * r + y[1] * scale * r
    return sup, sub, scale * z


@lru_cache(maxsize=16, typed=True)
def _row_bands(ns, size, y1, y2, z):
    """`_bands` of a block whose rows have the central frequencies ns (a
    tuple), read-only, with the main diagonal None when z is zero.  The rows
    of a corpus share their frequencies and width, so one build serves every
    member.  Keys compare 0.0 and -0.0 equal, which can move nothing but the
    sign of an exact zero entry."""
    sup, sub, diag = _bands(np.array(ns)[:, None], size, (y1, y2), z)
    return _readonly(sup), _readonly(sub), None if z == 0 else _readonly(diag)


def _tridiag_apply(sup, sub, diag, v):
    """Tridiagonal product along the last axis of v.  A main diagonal of None
    is zero: the product starts from the super-diagonal's."""
    if diag is None:
        out = np.empty_like(v)
        np.multiply(sup, v[..., 1:], out=out[..., :-1])
        out[..., -1] = 0
    else:
        out = diag * v
        out[..., :-1] += sup * v[..., 1:]
    out[..., 1:] += sub * v[..., :-1]
    return out


def _tridiag_solve(sup, sub, diag, v):
    """The inverse of `_tridiag_apply` on a vector: one elimination sweep
    down and one substitution sweep up, without pivoting.  Safe when the
    matrix has a definite Hermitian part, as every leading block then does."""
    size = len(v)
    sup, sub = sup.tolist(), sub.tolist()
    diag = np.broadcast_to(diag, (size,)).tolist()
    x = np.asarray(v, dtype=complex).tolist()
    up = [0j] * size  # super-diagonal divided by its row's pivot
    pivot = diag[0]
    x[0] /= pivot
    for i in range(1, size):
        up[i - 1] = sup[i - 1] / pivot
        pivot = diag[i] - sub[i - 1] * up[i - 1]
        x[i] = (x[i] - sub[i - 1] * x[i - 1]) / pivot
    for i in range(size - 2, -1, -1):
        x[i] -= up[i] * x[i + 1]
    return np.array(x, dtype=complex)


def _act(ns, block, y, z):
    """Action of y1*Y1 + y2*Y2 + z*Z on each row of a zero-padded block, row i
    at central frequency ns[i].  A ladder term moves h_j to h_{j+1}, so every
    row grows by one entry; the purely central element (y = 0) keeps them."""
    ns = np.asarray(ns)
    if y[0] == 0.0 and y[1] == 0.0:
        return 2j * np.pi * ns[:, None] * z * block
    v = np.zeros((len(block), block.shape[1] + 1), dtype=complex)
    v[:, :-1] = block
    return _tridiag_apply(*_row_bands(tuple(ns.tolist()), v.shape[1], *y, z), v)


_NO_INTS = _readonly(np.zeros(0, dtype=int))
_NO_ROWS = ((), _NO_INTS, _NO_INTS, _readonly(np.zeros((0, 0), dtype=complex)))

# the zero toral part, real and complex: blocks are read-only, so every zero
# NilFunction shares one instead of building its own
_ZERO_REAL = TorusFunction(2)
_ZERO_COMPLEX = TorusFunction._exact(2, _ZERO_REAL.block, False)


def _require_rows(rows, width, key):
    # called before a (rows, width) block is allocated; key names its longest row
    if rows * width > _SIZE_CAP:
        raise DimensionMismatch(
            "representation block too large (%d rows, row %r has %d entries)" % (rows, key, width)
        )


def _rows_of(reps):
    """Validated row labels, frequencies, lengths and zero-padded block of a
    {(n, m): vector} map."""
    rows = {}
    for key, vec in reps.items():
        n, m = key
        if n == 0:
            raise ValueError("central frequency 0 belongs to the toral part")
        if not 0 <= m < abs(n):
            raise ValueError(
                "copy index %d out of range for frequency %d (multiplicity %d)"
                % (m, n, abs(n))
            )
        vec = np.asarray(vec, dtype=complex)
        if vec.ndim != 1:
            raise DimensionMismatch("rep coefficients must be one-dimensional")
        if vec.size:
            rows[(int(n), int(m))] = vec
    keys = tuple(sorted(rows))
    lengths = np.array([len(rows[k]) for k in keys], dtype=int)
    if keys:
        _require_rows(len(keys), int(lengths.max()), keys[lengths.argmax()])
    block = np.zeros((len(keys), lengths.max(initial=0)), dtype=complex)
    for i, key in enumerate(keys):
        block[i, : lengths[i]] = rows[key]
    return keys, np.array([n for n, _m in keys], dtype=int), lengths, block


class NilFunction:
    """Toral Fourier modes plus Hermite coefficient vectors per representation.

    The representation rows are one dense block.  ``keys`` is the sorted
    tuple of row labels (n, m), n a nonzero central frequency and m a copy
    index with 0 <= m < |n|; ``ns`` and ``lengths`` are the frequency and the
    Hermite length of each row, as int arrays; ``block`` is a read-only
    complex array of shape (rows, max length), zero past each row's length.
    ``reps`` is a cached read-only {(n, m): vector} view of the rows at their
    own lengths, and the constructor takes such a map.  Empty vectors are
    dropped; zero vectors are kept.
    """

    def __init__(self, toral=None, reps=None):
        if toral is None:
            toral = _ZERO_REAL
        if toral.n != 2:
            raise DimensionMismatch("toral part must live on the 2-torus")
        self.toral = toral
        self._set_rows(*(_rows_of(reps) if reps else _NO_ROWS))

    def _set_rows(self, keys, ns, lengths, block):
        if keys:
            self.keys = keys
            self.ns = _readonly(ns)
            self.lengths = _readonly(lengths)
            self.block = _readonly(block)
        else:
            self.keys, self.ns, self.lengths, self.block = _NO_ROWS

    @classmethod
    def _from_rows(cls, toral, keys, ns, lengths, block):
        """Trusted constructor: rows sorted, validated and zero-padded."""
        F = cls.__new__(cls)
        F.toral = _ZERO_REAL if toral is None else toral
        F._set_rows(keys, ns, lengths, block)
        return F

    def _rows_like(self, toral, block, lengths=None):
        """A function with this one's row labels, the given rows (and row
        lengths, if they changed) and the given toral part."""
        return NilFunction._from_rows(
            toral, self.keys, self.ns, self.lengths if lengths is None else lengths,
            block,
        )

    def _cut(self, toral, n_max, length):
        """The rows with |n| <= n_max, each cut to at most `length` entries,
        on the given toral part."""
        if not self.keys:
            return NilFunction(toral=toral)
        keep = np.abs(self.ns) <= n_max
        lengths = np.minimum(self.lengths[keep], length)
        keys = tuple(k for k, kept in zip(self.keys, keep.tolist()) if kept)
        block = self.block[keep, : lengths.max(initial=0)]
        return NilFunction._from_rows(toral, keys, self.ns[keep], lengths, block)

    @classmethod
    def constant(cls, value):
        return cls(toral=TorusFunction.constant(2, value))

    @cached_property
    def reps(self):
        """Read-only {(n, m): vector} view of the rows, each at its length."""
        rows = zip(self.keys, self.block, self.lengths.tolist())
        return MappingProxyType({key: row[:length] for key, row, length in rows})

    def is_zero(self):
        return self.toral.is_zero() and not self.keys

    @property
    def support_n(self):
        """Largest |n| carrying a representation component (0 if none)."""
        return int(np.max(np.abs(self.ns), initial=0))

    def rep(self, n, m=0):
        return self.reps.get((n, m), np.zeros(0, dtype=complex))

    def add(self, other):
        return self._combine(other, self.toral + other.toral, np.add)

    def sub(self, other):
        """self - other as a direct difference: rows are aligned as in `add`
        and other's are subtracted, with no negated copy of other built."""
        return self._combine(other, self.toral - other.toral, np.subtract)

    def _combine(self, other, toral, op):
        """self op other on the representation rows, op being np.add or
        np.subtract, over the given toral part.  Rows are matched by label,
        and a row missing from one side counts as zero there."""
        if not other.keys:
            return self._rows_like(toral, self.block)
        if not self.keys:
            block = -other.block if op is np.subtract else other.block
            return other._rows_like(toral, block)
        a, b = self.block, other.block
        width = max(a.shape[1], b.shape[1])
        if self.keys == other.keys:
            if a.shape != b.shape:
                a, b = _widened(a, width), _widened(b, width)
            return self._rows_like(
                toral, op(a, b), np.maximum(self.lengths, other.lengths)
            )
        keys = tuple(sorted(set(self.keys) | set(other.keys)))
        index = {key: i for i, key in enumerate(keys)}
        lengths = np.zeros(len(keys), dtype=int)
        block = np.zeros((len(keys), width), dtype=complex)
        for F, F_op in ((self, np.add), (other, op)):
            rows = [index[key] for key in F.keys]
            lengths[rows] = np.maximum(lengths[rows], F.lengths)
            cols = slice(0, F.block.shape[1])
            block[rows, cols] = F_op(block[rows, cols], F.block)
        ns = np.array([n for n, _m in keys], dtype=int)
        return NilFunction._from_rows(toral, keys, ns, lengths, block)

    def scaled(self, factor):
        block = self.block * factor if self.keys else None
        return self._rows_like(self.toral * factor, block)


def _widened(block, width):
    out = np.zeros((len(block), width), dtype=complex)
    out[:, : block.shape[1]] = block
    return out


def _apply_element(F, y, z):
    """Action of y1*Y1 + y2*Y2 + z*Z: the directional derivative along y on
    the toral part, where the center acts trivially, and the grow-by-one
    ladder on the representation rows."""
    central = y[0] == 0.0 and y[1] == 0.0
    if central:
        toral = _ZERO_REAL if F.toral.real else _ZERO_COMPLEX
    else:
        toral = directional_derivative(y, F.toral)
    if not F.keys:
        return NilFunction(toral=toral)
    return F._rows_like(
        toral, _act(F.ns, F.block, y, z), F.lengths if central else F.lengths + 1
    )


def _require_heisenberg_shape(params):
    if params.q != 2 or params.p != 1:
        raise DimensionMismatch(
            "analytic model needs two torus directions and one central direction"
        )


def apply_X1(params, F):
    """Action of the first flow generator: directional derivative on the toral
    part, alpha_1*Y1 + alpha_2*Y2 in each representation."""
    _require_heisenberg_shape(params)
    return _apply_element(F, params.x1_y, 0.0)


def apply_X2(params, F):
    """Action of the second flow generator.  For the pinned actions (mu = 0)
    the toral part is killed and each representation sees the scalar
    2*pi*i*n*beta; a nonzero mu adds mu times the first generator."""
    _require_heisenberg_shape(params)
    return _apply_element(F, params.x2_y, params.x2_z[0])


@lru_cache(maxsize=64)
def _rep_weight_sq(ns, width, r):
    """Squared order-r weights (1 + n^2 + |n|(2j+1))^r of a block whose rows
    have the central frequencies ns, read-only."""
    j = np.arange(width)
    weights = [(1.0 + n * n + abs(n) * (2 * j + 1)) ** (r / 2.0) for n in ns]
    return _readonly(np.array(weights) ** 2)


def _weighted_sq(F, r):
    """|coefficient|^2 times its squared order-r weight, entry by entry."""
    w2 = _rep_weight_sq(tuple(F.ns.tolist()), F.block.shape[1], r)
    return np.abs(F.block) ** 2 * w2


def nil_sobolev_norm(F, r):
    """Sobolev norm of order r: toral modes weighted by (1+|k|^2)^(r/2), the
    (n, j) Hermite coefficient by (1 + n^2 + |n|(2j+1))^(r/2)."""
    total = sobolev_norm(F.toral, r) ** 2
    if F.keys:
        total += float(_weighted_sq(F, r).sum())
    return float(np.sqrt(total))


def pi_norm(n):
    """Distance from the coadjoint hyperplane of the representation with
    central frequency n to the origin: |n| for the Heisenberg group."""
    if n == 0:
        raise ValueError("n = 0 labels toral characters, not a representation")
    return float(abs(n))


def cg_decay_report(corpus, s, k):
    """Decay-of-components check: the s-norm of the component at frequency n,
    scaled by |n|^k, stays bounded by the (s+k)-norm of the whole function.

    Reports the worst ratio over the corpus, the worst ratio over the inner
    half of the frequency range (plateau check within 10%), and for k >= 2
    the partial sums of |n|^(-k) over growing frequency windows.  The corpus
    is read once, member by member: each member leaves only its frequencies
    and ratios, and the inner half, which depends on the top frequency of the
    whole corpus, is taken after the pass.
    """
    if not corpus:
        raise EmptyCorpus("corpus is empty")
    n_max = vacuous = 0
    members = []  # (frequencies, ratios) of each member, None if it has no rows
    for F in corpus:
        if not F.keys:
            vacuous += 1
            members.append(None)
            continue
        n_max = max(n_max, F.support_n)
        try:
            pi_norm(F.support_n) ** k  # |n|^k is largest at the top frequency
        except OverflowError:
            raise ValueError("|n|^k overflows at s = %r, k = %r" % (s, k)) from None
        # the rows are sorted by (n, m), so each frequency is one run of rows
        starts = np.flatnonzero(np.diff(F.ns, prepend=0))
        freqs = F.ns[starts]
        # an infinite weight on a zero coefficient reads nan, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            norm = nil_sobolev_norm(F, s + k)
            per_n = np.sqrt(np.add.reduceat(np.sum(_weighted_sq(F, s), axis=1), starts))
        if not np.isfinite(norm) or (norm == 0 and F.block.any()):
            # an overflowed or underflowed norm would make every ratio 0
            raise ValueError("the (s+k)-norm is %r at s = %r, k = %r" % (norm, s, k))
        if not np.isfinite(per_n).all():
            raise ValueError("the s-norm of a component overflows at s = %r, k = %r" % (s, k))
        # a zero member meets the bound trivially: its ratios come out 0
        denom = norm or np.inf
        ratio = per_n * np.array([pi_norm(n) ** k for n in freqs.tolist()]) / denom
        members.append((freqs, ratio))
    ratios = [
        None if m is None else {
            "full": float(m[1].max()),
            "inner": float(np.max(m[1][2 * np.abs(m[0]) <= n_max], initial=0.0)),
        }
        for m in members
    ]
    full = [r["full"] for r in ratios if r is not None]
    inner = [r["inner"] for r in ratios if r is not None]
    ratio_max = max(full, default=0.0)
    ratio_max_inner = max(inner, default=0.0)
    plateau_ok = ratio_max <= 1.10 * max(ratio_max_inner, 1e-300) or ratio_max == 0.0
    report = {
        "s": s,
        "k": k,
        "count": len(ratios),
        "vacuous": vacuous,
        "n_max": n_max,
        "ratio_max": ratio_max,
        "ratio_max_inner": ratio_max_inner,
        "plateau_ok": plateau_ok,
        "ratios": ratios,
    }
    if k >= 2 and n_max >= 1:
        windows = sorted({max(1, n_max // 4), max(1, n_max // 2), n_max})
        report["tail_sums"] = [
            (w, float(sum(2.0 * n ** (-float(k)) for n in range(1, w + 1))))
            for w in windows
        ]
    return report


# --- text format -----------------------------------------------------------
# one component per line:
#   toral k1 k2 re im
#   rep n m j re im


def serialize_nil_function(F):
    lines = []
    block = F.toral.block
    # argwhere walks the block in order, which sorts the frequencies
    idx = np.argwhere(block)
    for (k1, k2), c in zip((idx - F.toral.size).tolist(), block[tuple(idx.T)].tolist()):
        lines.append("toral %d %d %r %r" % (k1, k2, c.real, c.imag))
    for (n, m) in sorted(F.reps):
        v = F.reps[(n, m)]
        for j in range(len(v)):
            if v[j] != 0:
                c = complex(v[j])
                lines.append("rep %d %d %d %r %r" % (n, m, j, c.real, c.imag))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_nil_function(text):
    return _parse_records(enumerate(text.splitlines(), start=1))


def _record_value(parts, lineno):
    """The complex value of a record's last two fields; nan and inf are
    refused, so no non-finite coefficient reaches a solve."""
    x, y = float(parts[0]), float(parts[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise FormatError("non-finite value %s %s" % (parts[0], parts[1]), line=lineno)
    return complex(x, y)


def _parse_records(records):
    """The function of (line number, record text) pairs in the text format;
    ``#`` starts a comment and blank records are skipped.  Errors carry the
    given line numbers."""
    toral = {}
    toral_lines = {}
    rep_entries = {}
    for lineno, raw in records:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "toral":
                if len(parts) != 5:
                    raise ValueError
                k = (int(parts[1]), int(parts[2]))
                toral[k] = toral.get(k, 0.0) + _record_value(parts[3:], lineno)
                toral_lines.setdefault(k, lineno)
            elif parts[0] == "rep":
                if len(parts) != 6:
                    raise ValueError
                n, m, j = int(parts[1]), int(parts[2]), int(parts[3])
                c = _record_value(parts[4:], lineno)
                if j < 0:
                    raise FormatError("negative Hermite index", line=lineno)
                row = rep_entries.setdefault((n, m), {})
                row[j] = row[j] + c if j in row else c
            else:
                raise FormatError("unknown record %r" % parts[0], line=lineno)
        except FormatError:
            raise
        except ValueError:
            raise FormatError("malformed record: %r" % raw, line=lineno)
    modes = [k for k, c in toral.items() if c != 0]
    if modes:
        # refused before the block is allocated, at the first record of its
        # outermost mode
        k = max(modes, key=lambda k: max(map(abs, k)))
        side = 2 * max(map(abs, k)) + 1
        if side**2 > _SIZE_CAP:
            raise DimensionMismatch(
                "line %d: toral block too large (mode %r makes %d^2 entries)"
                % (toral_lines[k], k, side)
            )
    if rep_entries:
        # refused before any row is allocated, at the block the rows make
        key = max(rep_entries, key=lambda k: max(rep_entries[k]))
        _require_rows(len(rep_entries), max(rep_entries[key]) + 1, key)
    reps = {}
    for key, entries in rep_entries.items():
        v = np.zeros(max(entries) + 1, dtype=complex)
        for j, c in entries.items():
            v[j] = c
        reps[key] = v
    try:
        return NilFunction(toral=TorusFunction(2, toral), reps=reps)
    except ValueError as exc:
        raise FormatError(str(exc))


def load_nil_function(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_nil_function(fh.read())
