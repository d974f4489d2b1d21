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

The Hermite ladder x.h_j = sqrt((j+1)/2) h_{j+1} + sqrt(j/2) h_{j-1} is
written once, as the bands of `RepOperator`.  Generator actions on vectors
(`dpi_apply`, `apply_X1`, `apply_X2`, the brackets of the rigidity step) apply
the same bands, one entry larger than the vector, to every row of a block at
once, and the leafwise Laplacian of `cohomology` squares them.
"""

from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch, EmptyCorpus, FormatError
from .torus import TorusFunction, _readonly, directional_derivative, sobolev_norm

__all__ = [
    "NilFunction",
    "RepOperator",
    "dpi_apply",
    "apply_X1",
    "apply_X2",
    "nil_sobolev_norm",
    "pi_norm",
    "cg_decay_report",
    "parse_nil_function",
    "load_nil_function",
    "serialize_nil_function",
]

# generator -> (Y coefficients, Z coefficient) of the Lie algebra element
_GENERATORS = {
    "Y1": ((1.0, 0.0), 0.0),
    "Y2": ((0.0, 1.0), 0.0),
    "Z": ((0.0, 0.0), 1.0),
}


def _unknown_generator(gen):
    return ValueError(
        "unknown generator %r; expected one of %s" % (gen, (tuple(_GENERATORS),))
    )


def _bands(n, size, y, z):
    """Super-, sub- and main diagonal of y1*Y1 + y2*Y2 + z*Z on the first
    `size` Hermite functions at central frequency n.  A column of frequencies
    gives one row of bands per frequency.  The main diagonal is the constant
    2*pi*i*n*z, returned unbroadcast."""
    r = np.sqrt(np.arange(1, size) / 2.0)
    scale = 2j * np.pi * n
    # d/dx contributes an antisymmetric pair, x a symmetric one
    sup = y[0] * r + y[1] * scale * r
    sub = -y[0] * r + y[1] * scale * r
    return sup, sub, scale * z


def _tridiag_apply(sup, sub, diag, v):
    """Tridiagonal product along the last axis of v."""
    out = diag * v
    out[..., :-1] += sup * v[..., 1:]
    out[..., 1:] += sub * v[..., :-1]
    return out


def _act(ns, block, y, z):
    """Action of y1*Y1 + y2*Y2 + z*Z on each row of a zero-padded block, row i
    at central frequency ns[i].  A ladder term moves h_j to h_{j+1}, so every
    row grows by one entry; the purely central element (y = 0) keeps them."""
    ns = np.asarray(ns)[:, None]
    if y[0] == 0.0 and y[1] == 0.0:
        return 2j * np.pi * ns * z * block
    v = np.zeros((len(block), block.shape[1] + 1), dtype=complex)
    v[:, :-1] = block
    return _tridiag_apply(*_bands(ns, v.shape[1], y, z), v)


def dpi_apply(gen, n, v):
    """Apply a Lie algebra generator in the representation with central
    frequency n to a Hermite coefficient vector.

    Y1 acts as d/dx, Y2 as 2*pi*i*n*x, Z as the scalar 2*pi*i*n.  The ladder
    generators return a vector one entry longer than the input.
    """
    if gen not in _GENERATORS:
        raise _unknown_generator(gen)
    if n == 0:
        raise ValueError("central frequency must be nonzero")
    return _act([n], np.asarray(v, dtype=complex)[None, :], *_GENERATORS[gen])[0]


class RepOperator:
    """Tridiagonal action of a Lie algebra element y1*Y1 + y2*Y2 + z*Z on a
    length-`size` block of the Hermite basis at central frequency n.

    The stored bands satisfy G* = -G exactly.  Truncation cuts the ladder
    after the last index, so a product of two such blocks differs from the
    block of the product of the full operators in its last row.
    """

    def __init__(self, n, size, y=(0.0, 0.0), z=0.0):
        if n == 0:
            raise ValueError("central frequency must be nonzero")
        if size < 1:
            raise ValueError("size must be positive")
        self.n = int(n)
        self.size = int(size)
        self.y = (float(y[0]), float(y[1]))
        self.z = complex(z)
        self.super, self.sub, diag = _bands(n, size, y, z)
        self.diag = np.full(size, diag, dtype=complex)

    @classmethod
    def generator(cls, gen, n, size):
        if gen not in _GENERATORS:
            raise _unknown_generator(gen)
        y, z = _GENERATORS[gen]
        return cls(n, size, y=y, z=z)

    def apply(self, v):
        v = np.asarray(v, dtype=complex)
        if len(v) != self.size:
            raise DimensionMismatch(
                "vector length %d does not match operator size %d" % (len(v), self.size)
            )
        return _tridiag_apply(self.super, self.sub, self.diag, v)

    def matrix(self):
        m = np.diag(self.diag)
        m[np.arange(self.size - 1), np.arange(1, self.size)] = self.super
        m[np.arange(1, self.size), np.arange(self.size - 1)] = self.sub
        return m


_NO_INTS = _readonly(np.zeros(0, dtype=int))
_NO_ROWS = ((), _NO_INTS, _NO_INTS, _readonly(np.zeros((0, 0), dtype=complex)))


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
            toral = TorusFunction(2, real=True)
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
        F.toral = TorusFunction(2, real=True) if toral is None else toral
        F._set_rows(keys, ns, lengths, block)
        return F

    def _rows_like(self, toral, block, lengths=None):
        """A function with this one's row labels, the given rows (and row
        lengths, if they changed) and the given toral part."""
        return NilFunction._from_rows(
            toral, self.keys, self.ns, self.lengths if lengths is None else lengths,
            block,
        )

    def _cut(self, toral, n_max, length=None):
        """The rows with |n| <= n_max, each cut to at most `length` entries,
        on the given toral part."""
        if not self.keys:
            return NilFunction(toral=toral)
        keep = np.abs(self.ns) <= n_max
        lengths = self.lengths[keep]
        if length is not None:
            lengths = np.minimum(lengths, length)
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
        toral = self.toral + other.toral
        if not other.keys:
            return self._rows_like(toral, self.block)
        if not self.keys:
            return other._rows_like(toral, other.block)
        a, b = self.block, other.block
        width = max(a.shape[1], b.shape[1])
        if self.keys == other.keys:
            if a.shape != b.shape:
                a, b = _widened(a, width), _widened(b, width)
            return self._rows_like(
                toral, a + b, np.maximum(self.lengths, other.lengths)
            )
        keys = tuple(sorted(set(self.keys) | set(other.keys)))
        index = {key: i for i, key in enumerate(keys)}
        lengths = np.zeros(len(keys), dtype=int)
        block = np.zeros((len(keys), width), dtype=complex)
        for F in (self, other):
            rows = [index[key] for key in F.keys]
            lengths[rows] = np.maximum(lengths[rows], F.lengths)
            block[rows, : F.block.shape[1]] += F.block
        ns = np.array([n for n, _m in keys], dtype=int)
        return NilFunction._from_rows(toral, keys, ns, lengths, block)

    def sub(self, other):
        return self.add(other.scaled(-1.0))

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
        toral = TorusFunction(2, real=F.toral.real)
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
        total += float(np.sum(_weighted_sq(F, r)))
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
    the partial sums of |n|^(-k) over growing frequency windows.
    """
    if not corpus:
        raise EmptyCorpus("corpus is empty")
    n_max = max((F.support_n for F in corpus), default=0)
    ratios = []
    vacuous = 0
    for F in corpus:
        if not F.keys:
            vacuous += 1
            ratios.append(None)
            continue
        # a zero member meets the bound trivially: its ratios come out 0
        denom = nil_sobolev_norm(F, s + k) or np.inf
        # the rows are sorted by (n, m), so each frequency is one run of rows
        starts = np.flatnonzero(np.diff(F.ns, prepend=0))
        freqs = F.ns[starts]
        per_n = np.sqrt(np.add.reduceat(np.sum(_weighted_sq(F, s), axis=1), starts))
        ratio = per_n * np.array([pi_norm(n) ** k for n in freqs.tolist()]) / denom
        inner = ratio[2 * np.abs(freqs) <= n_max]
        ratios.append(
            {"full": float(ratio.max()), "inner": float(np.max(inner, initial=0.0))}
        )
    full = [r["full"] for r in ratios if r is not None]
    inner = [r["inner"] for r in ratios if r is not None]
    ratio_max = max(full, default=0.0)
    ratio_max_inner = max(inner, default=0.0)
    plateau_ok = ratio_max <= 1.10 * max(ratio_max_inner, 1e-300) or ratio_max == 0.0
    report = {
        "s": s,
        "k": k,
        "count": len(corpus),
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
    for key in sorted(F.toral.coeffs):
        c = complex(F.toral.coeffs[key])
        lines.append("toral %d %d %r %r" % (key[0], key[1], c.real, c.imag))
    for (n, m) in sorted(F.reps):
        v = F.reps[(n, m)]
        for j in range(len(v)):
            if v[j] != 0:
                c = complex(v[j])
                lines.append("rep %d %d %d %r %r" % (n, m, j, c.real, c.imag))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_nil_function(text):
    toral = {}
    rep_entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "toral":
                if len(parts) != 5:
                    raise ValueError
                k = (int(parts[1]), int(parts[2]))
                toral[k] = toral.get(k, 0.0) + complex(float(parts[3]), float(parts[4]))
            elif parts[0] == "rep":
                if len(parts) != 6:
                    raise ValueError
                n, m, j = int(parts[1]), int(parts[2]), int(parts[3])
                c = complex(float(parts[4]), float(parts[5]))
                if j < 0:
                    raise FormatError("negative Hermite index", line=lineno)
                rep_entries.setdefault((n, m), {})[j] = c
            else:
                raise FormatError("unknown record %r" % parts[0], line=lineno)
        except FormatError:
            raise
        except ValueError:
            raise FormatError("malformed record: %r" % raw, line=lineno)
    reps = {}
    for key, entries in rep_entries.items():
        v = np.zeros(max(entries) + 1, dtype=complex)
        for j, c in entries.items():
            v[j] = c
        reps[key] = v
    real = all(
        toral.get((-k[0], -k[1])) == c.conjugate() for k, c in toral.items()
    )
    try:
        return NilFunction(
            toral=TorusFunction(2, toral, real=real), reps=reps
        )
    except ValueError as exc:
        raise FormatError(str(exc))


def load_nil_function(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_nil_function(fh.read())
