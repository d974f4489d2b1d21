"""Kirillov-type model for functions on the Heisenberg nilmanifold.

A function is stored as a toral component (Fourier modes on the associated
2-torus) together with finitely many representation components, one complex
coefficient vector per central frequency n and copy index, expressed in the
Hermite function basis of the Schrodinger model.

Convention, fixed once for the whole package: the first lattice generator acts
as d/dx, the second as multiplication by 2*pi*i*n*x, and the center as the
scalar 2*pi*i*n.  Every spectrum and certificate downstream inherits it.

The Hermite ladder x.h_j = sqrt((j+1)/2) h_{j+1} + sqrt(j/2) h_{j-1} is
written once, as the bands of `RepOperator`.  Generator actions on vectors
(`dpi_apply`, `apply_X1`, `apply_X2`, the brackets of the rigidity step) apply
an operator one entry larger than the vector, and the leafwise Laplacian of
`cohomology` squares the same bands.
"""

import numpy as np

from .errors import DimensionMismatch, EmptyCorpus, FormatError
from .torus import TorusFunction, directional_derivative, sobolev_norm

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


def _act(n, v, y, z):
    """Action of y1*Y1 + y2*Y2 + z*Z at central frequency n on the Hermite
    vector v.  A ladder term moves h_j to h_{j+1}, so the result is one entry
    longer than v; the purely central element (y = 0) keeps the length."""
    v = np.asarray(v, dtype=complex)
    if y[0] == 0.0 and y[1] == 0.0:
        return 2j * np.pi * n * z * v
    return RepOperator(n, len(v) + 1, y, z).apply(np.append(v, 0.0))


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
    return _act(n, v, *_GENERATORS[gen])


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
        r = np.sqrt(np.arange(1, size) / 2.0)
        scale = 2j * np.pi * n
        # d/dx contributes an antisymmetric pair, x a symmetric one
        self.super = y[0] * r + y[1] * scale * r
        self.sub = -y[0] * r + y[1] * scale * r
        self.diag = np.full(size, scale * z, dtype=complex)

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
        out = self.diag * v
        out[:-1] += self.super * v[1:]
        out[1:] += self.sub * v[:-1]
        return out

    def matrix(self):
        m = np.diag(self.diag)
        m[np.arange(self.size - 1), np.arange(1, self.size)] = self.super
        m[np.arange(1, self.size), np.arange(self.size - 1)] = self.sub
        return m


class NilFunction:
    """Toral Fourier modes plus Hermite coefficient vectors per representation.

    `reps` maps (n, m) with n a nonzero central frequency and m a copy index,
    0 <= m < |n|, to a complex coefficient vector.
    """

    def __init__(self, toral=None, reps=None):
        if toral is None:
            toral = TorusFunction(2, real=True)
        if toral.n != 2:
            raise DimensionMismatch("toral part must live on the 2-torus")
        self.toral = toral
        self.reps = {}
        for key, vec in (reps or {}).items():
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
                self.reps[(int(n), int(m))] = vec.copy()

    @classmethod
    def constant(cls, value):
        return cls(toral=TorusFunction.constant(2, value), reps={})

    def is_zero(self):
        return self.toral.is_zero() and not self.reps

    @property
    def support_n(self):
        """Largest |n| carrying a representation component (0 if none)."""
        return max((abs(n) for n, _ in self.reps), default=0)

    def rep(self, n, m=0):
        return self.reps.get((n, m), np.zeros(0, dtype=complex))

    def add(self, other):
        keys = set(self.reps) | set(other.reps)
        reps = {}
        for k in keys:
            a = self.reps.get(k)
            b = other.reps.get(k)
            if a is None:
                reps[k] = b
            elif b is None:
                reps[k] = a
            else:
                m = max(len(a), len(b))
                s = np.zeros(m, dtype=complex)
                s[: len(a)] += a
                s[: len(b)] += b
                reps[k] = s
        return NilFunction(toral=self.toral + other.toral, reps=reps)

    def sub(self, other):
        return self.add(other.scaled(-1.0))

    def scaled(self, factor):
        return NilFunction(
            toral=self.toral * factor,
            reps={k: factor * v for k, v in self.reps.items()},
        )


def _apply_element(F, y, z):
    """Action of y1*Y1 + y2*Y2 + z*Z: the directional derivative along y on
    the toral part, where the center acts trivially, and the grow-by-one
    ladder in each representation."""
    if y[0] == 0.0 and y[1] == 0.0:
        toral = TorusFunction(2, real=F.toral.real)
    else:
        toral = directional_derivative(y, F.toral)
    reps = {(n, m): _act(n, v, y, z) for (n, m), v in F.reps.items()}
    return NilFunction(toral=toral, reps=reps)


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


def _rep_weights(n, length, r):
    j = np.arange(length)
    return (1.0 + n * n + abs(n) * (2 * j + 1)) ** (r / 2.0)


def nil_sobolev_norm(F, r):
    """Sobolev norm of order r: toral modes weighted by (1+|k|^2)^(r/2), the
    (n, j) Hermite coefficient by (1 + n^2 + |n|(2j+1))^(r/2)."""
    total = sobolev_norm(F.toral, r) ** 2
    for (n, _m), v in F.reps.items():
        total += float(np.sum(np.abs(v) ** 2 * _rep_weights(n, len(v), r) ** 2))
    return float(np.sqrt(total))


def pi_norm(n):
    """Distance from the coadjoint hyperplane of the representation with
    central frequency n to the origin: |n| for the Heisenberg group."""
    if n == 0:
        raise ValueError("n = 0 labels toral characters, not a representation")
    return float(abs(n))


def _rep_norm_at(F, n, r):
    total = 0.0
    for (nn, _m), v in F.reps.items():
        if nn == n:
            total += float(np.sum(np.abs(v) ** 2 * _rep_weights(n, len(v), r) ** 2))
    return float(np.sqrt(total))


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
        freqs = sorted({n for n, _m in F.reps})
        if not freqs:
            vacuous += 1
            ratios.append(None)
            continue
        denom = nil_sobolev_norm(F, s + k)
        best = 0.0
        best_inner = 0.0
        for n in freqs:
            ratio = _rep_norm_at(F, n, s) * pi_norm(n) ** k / denom
            best = max(best, ratio)
            if abs(n) * 2 <= n_max:
                best_inner = max(best_inner, ratio)
        ratios.append({"full": best, "inner": best_inner})
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
