"""Truncated Fourier analysis on the n-torus.

Functions are finite sums f(x) = sum_k c_k exp(2 pi i k.x) stored as one
centred coefficient block per function, their only representation, on which
every operation is an array expression.  A function is real when its block
obeys c_{-k} = conj(c_k) as values, the sign of a zero being free; the
constructor reads that off the coefficients exactly, and a real block is
repaired only where rounding can break the rule, after the re-expansions of
the grid layer.  The module provides the directional-derivative solver that
divides by the small divisors 2 pi i k.alpha, Sobolev norms, pseudo-spectral
pullback of vector fields under near-identity diffeomorphisms id + u, and
the Newton conjugacy iteration that flattens a perturbed constant field back
to its linear model.

Conventions: enumeration degree is the sup norm of k; grids are equispaced
and re-expand through the FFT.  The grid layer, the package's one (the
rigidity products use it too), is real: only real functions are sampled,
re-expanded or evaluated, a stack at a time (`_real_samples`, `_re_expanded`)
through half-spectrum transforms that touch only the D+1 columns k_last =
0..D of a degree-D band, in irfftn's and rfftn's axis order and so to their
bits, on grids that fit the block.  They are evaluated from the modes k > 0
in lexicographic order or, with enough nonzero modes for their side, by
separable contraction against exp(2 pi i x_j k) tables.  The Newton step
works on rows of values on a grid of 3K + 1 or more points per axis: it adds
its coordinate change to the accumulated one, as the parametrization method
does, evaluates only the given member off the grid, and re-expands at its
truncation degree K.  The grid work goes in blocks of grid points (`_blocks`)
of whole chunks of the separable evaluation, whose matrix products so keep
their shapes and bits.  Only the rows it re-expands and the pullback's values
and (I + Du)^-1, whose per-column means keep their bits, are held on the
whole grid: at K = 64 a step peaks at 3.8 MB traced.  The final verification
samples a denser grid that is not a power of two and keeps each block's
maximum only (2.0 MB); every grid side is 5-smooth (`_smooth_size`)."""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .diophantine import _snap_floor, fit_witness
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonInvertible,
    NonzeroAverage,
    Resonance,
)

# coefficients below this relative size are discarded when re-expanding
_DROP = 1e-16

# largest coefficient block or sampling grid, in entries
_SIZE_CAP = 4e7


def _require_size(side, n, what):
    # called before anything of that size is allocated
    if side**n > _SIZE_CAP:
        raise DimensionMismatch("%s too large (%d^%d entries)" % (what, side, n))


def _zeros(n, D):
    """Zero coefficient block of degree D on T^n."""
    _require_size(2 * D + 1, n, "coefficient block")
    return np.zeros((2 * D + 1,) * n, dtype=complex)


def _readonly(a):
    a.setflags(write=False)
    return a


def _symmetrized(block):
    """(c_k + conj(c_{-k})) / 2 on a centred block, in one temporary: IEEE
    addition commutes, so the bits are those of 0.5 * (block + conj(flip))."""
    out = np.conj(np.flip(block))
    out += block
    out *= 0.5
    return out


@lru_cache(maxsize=64)
def _freqs(n, D):
    """Components k_0 .. k_{n-1} of the degree-D block's frequencies, each an
    integer array shaped to broadcast against the block."""
    r = np.arange(-D, D + 1)
    return tuple(_readonly(r.reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))) for i in range(n))


@lru_cache(maxsize=64)
def _divisors(alpha, D):
    """k.alpha on the degree-D block and its resonance floor (`_snap_floor`):
    |k.alpha| at or below the floor counts as resonant."""
    _require_size(2 * D + 1, len(alpha), "divisor block")
    ks = _freqs(len(alpha), D)
    ka = sum(k * a for k, a in zip(ks, alpha))
    floor = _snap_floor(sum(abs(k * a) for k, a in zip(ks, alpha)))
    return _readonly(ka), _readonly(floor)


@lru_cache(maxsize=64)
def _sobolev_weight(n, D, r):
    """(1 + |k|^2)^r on the degree-D block."""
    with np.errstate(over="ignore"):  # a weight past the float range is inf
        return _readonly((1.0 + sum(k * k for k in _freqs(n, D))) ** r)


def _quotient(block, d, where):
    """block / d for real d on the flagged entries, zero elsewhere.  Each
    component is divided once, as scalar complex division by a real or an
    imaginary number does; numpy's complex division rounds twice."""
    out = np.zeros_like(block)
    np.divide(block.real, d, out=out.real, where=where)
    np.divide(block.imag, d, out=out.imag, where=where)
    return out


class TorusFunction:
    """Band-limited function on T^n held as one centred coefficient block.

    ``block`` is a read-only complex array of shape (2D+1,)*n holding c_k at
    index k + D, in lexicographic order of k; D is ``size``, and ``degree``
    is the sup norm of the nonzero support.  The constructor takes such a
    block or a {k: c} map, checks its shape and keeps its values as given;
    ``real`` is set when c_{-k} == conj(c_k) holds for every k as values.
    """

    def __init__(self, n, coeffs=None):
        if n < 1:
            raise DimensionMismatch("need n >= 1")
        self.n = int(n)
        if isinstance(coeffs, np.ndarray):
            block = np.array(coeffs, dtype=complex, order="C")
            if block.ndim != self.n or block.shape != (len(block) | 1,) * self.n:
                raise DimensionMismatch("coefficient block must have shape (2D+1,)*n")
        else:
            block = self._block_from_map(coeffs or {})
        self.real = bool(np.array_equal(block, np.conj(np.flip(block))))
        self.block = _readonly(block)

    @classmethod
    def _exact(cls, n, block, real):
        """Trusted constructor for a fresh block of the right shape, wrapped
        as it is.  A real block must be conjugate-symmetric up to the sign of
        zero, c_{-k} = conj(c_k): +, -, real scaling, derivatives, truncation
        and the divisor solve keep that, since each entry at -k comes from
        the negated or conjugated operation at k.  Arithmetic that can break
        it (transforms, convolutions) symmetrizes before calling."""
        f = cls.__new__(cls)
        f.n = n
        f.real = real
        f.block = _readonly(block)
        return f

    def _block_from_map(self, coeffs):
        items = [(tuple(int(x) for x in k), complex(c)) for k, c in coeffs.items()]
        if any(len(k) != self.n for k, _ in items):
            raise DimensionMismatch("frequency length must equal n")
        items = [(k, c) for k, c in items if c != 0]
        D = max((max(map(abs, k)) for k, _ in items), default=0)
        block = _zeros(self.n, D)
        for k, c in items:
            block[tuple(x + D for x in k)] += c
        return block

    @classmethod
    def constant(cls, n, value):
        """The constant function value, real unless value has an imaginary
        part."""
        if n < 1:
            raise DimensionMismatch("need n >= 1")
        value = complex(value)
        return cls._exact(int(n), np.full((1,) * n, value), value.imag == 0)

    @property
    def size(self):
        return len(self.block) // 2

    @cached_property
    def degree(self):
        return int(np.max(np.abs(np.argwhere(self.block) - self.size), initial=0))

    @property
    def average(self):
        c = complex(self.block[(self.size,) * self.n])
        return c.real if self.real else c

    def is_zero(self):
        return not self.block.any()

    def __add__(self, other):
        if isinstance(other, TorusFunction):
            return self._combine(other, np.add)
        return self + TorusFunction.constant(self.n, other)

    def __sub__(self, other):
        """self - other; a TorusFunction is subtracted entry by entry, the
        blocks aligned as in `__add__`, with no negated copy of it built."""
        if isinstance(other, TorusFunction):
            return self._combine(other, np.subtract)
        return self + -other

    def _combine(self, other, op):
        """self op other, op being np.add or np.subtract: the smaller centred
        block goes into the middle of a fresh copy of the larger, which is
        other's negation when op subtracts a larger other."""
        if other.n != self.n:
            raise DimensionMismatch("dimension mismatch")
        a, b = self.block, other.block
        if len(a) >= len(b):
            out, small = a.copy(), b
        else:
            out, small, op = (-b if op is np.subtract else b.copy()), a, np.add
        off = (len(out) - len(small)) // 2
        inner = out[(slice(off, off + len(small)),) * self.n]
        op(inner, small, out=inner)
        return TorusFunction._exact(self.n, out, self.real and other.real)

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return TorusFunction._exact(
            self.n, self.block * scalar, self.real and scalar.imag == 0
        )

    __rmul__ = __mul__

    def partial(self, axis):
        """d/dx_axis, acting as multiplication by 2 pi i k_axis."""
        k = _freqs(self.n, self.size)[axis]
        return TorusFunction._exact(self.n, 2j * np.pi * k * self.block, self.real)

    def truncated(self, degree, drop_below=0.0):
        """Drop modes beyond the sup-norm degree and, optionally, coefficients
        below drop_below relative to the largest one.  The zero mode is kept."""
        floor = drop_below * float(np.max(np.abs(self.block)))
        D = min(self.size, max(math.floor(degree), 0))
        block = self.block[(slice(self.size - D, self.size + D + 1),) * self.n]
        out = np.where(np.abs(block) > floor, block, 0)
        out[(D,) * self.n] = block[(D,) * self.n]
        return TorusFunction._exact(self.n, out, self.real)

    def evaluate(self, points):
        """Values of a real function at an (..., n) array of points.  A block
        with enough nonzero modes for its side and dimension
        (`_SEPARABLE_MARGIN`) is contracted one axis at a time against
        exp(2 pi i x_j k) tables (`_separable_values`); a sparser one is
        summed mode by mode."""
        _require_real(self, "evaluation")
        pts = _points(points, self.n)
        if self._takes_separable_path():
            return _separable_values([self], pts)[0]
        # block order is lexicographic in k: the modes k > 0 follow the centre
        flat = np.flatnonzero(self.block)
        flat = flat[flat > self.block.size // 2]
        ks = np.column_stack(np.unravel_index(flat, self.block.shape)) - self.size
        # c_{-k} = conj(c_k): the modes k > 0 pair with their conjugates into
        # 2 (Re c cos - Im c sin), real throughout
        vals = np.full(pts.shape[:-1], self.average)
        for k, c in zip(ks.astype(float), self.block.flat[flat].tolist()):
            theta = 2 * np.pi * (pts @ k)
            # a pure cosine or sine mode needs one of the two
            if c.real:
                vals += 2 * c.real * np.cos(theta)
            if c.imag:
                vals -= 2 * c.imag * np.sin(theta)
        return vals

    def _takes_separable_path(self):
        # the nonzero count against the separable path's work per point, in
        # the units of one mode of the mode loop (see _SEPARABLE_MARGIN)
        even = self.n * (16 + len(self.block)) / 8 + self.block.size / 256
        return np.count_nonzero(self.block) >= _SEPARABLE_MARGIN * even

    def grid_values(self, G):
        """Values of a real function on the equispaced G^n grid (`_real_samples`)."""
        _require_real(self, "grid values")
        return _real_samples(self.block[None], G).reshape((G,) * self.n)

    def _half_grid(self, G):
        """A row per grid line, shape (G^(n-1), D+1), whose irfft is its values."""
        _require_real(self, "grid values")
        return _half_grids(self.block[None], G)[0]

    @classmethod
    def from_grid(cls, values, degree):
        """Real function re-expanded at degree from real equispaced samples."""
        values = np.asarray(values)
        return cls._exact(values.ndim, _re_expanded(values[None], degree)[0], True)

    def __repr__(self):
        return "TorusFunction(n=%d, modes=%d, degree=%d%s)" % (
            self.n, np.count_nonzero(self.block), self.degree, ", real" if self.real else ""
        )


# Per point, the mode loop pays one exp, or one cos and one sin, per nonzero
# mode; the separable path a fixed cost per axis, one complex product per
# table entry (n side of them) and one multiply-add per block entry.  Timed
# with one BLAS thread at n = 1, 2, 3 (BENCH_26.json, "separable_crossover"),
# these cost about 2 modes per axis, 1/8 of a mode per table entry and 1/256
# per block entry, so the paths break even near n (16 + side) / 8 + size / 256
# nonzero modes.  The separable path is taken from this multiple of that
# count on, where it is about twice as fast or more; closer to even the mode
# loop keeps its values.
_SEPARABLE_MARGIN = 2

# complex entries of the tables and partial sums of one block of points on
# the separable path
_SEPARABLE_CHUNK = 2**19


def _require_real(f, what):
    if not f.real:
        raise DimensionMismatch("%s of a complex function: the grid layer is real" % what)


def _points(points, n):
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != n:
        raise DimensionMismatch("points must have trailing dimension n")
    return pts


def _half_grids(blocks, G):
    """irfftn's passes but the last, on the columns k_last = 0..D, for a stack
    of real centred blocks of size D < G / 2: shape (S, G^(n-1), D+1)."""
    S, n, D = len(blocks), blocks.ndim - 1, blocks.shape[-1] // 2
    if G <= 2 * D:
        raise DimensionMismatch("grid side %r aliases a block of size %d" % (G, D))
    _require_size(G, n, "evaluation grid")
    wrap = np.arange(-D, D + 1) % G
    half = np.zeros((S,) + (G,) * (n - 1) + (D + 1,), dtype=complex)
    half[(slice(None),) + np.ix_(*[wrap] * (n - 1)) + (slice(None),)] = blocks[..., D:]
    for ax in range(1, n):
        half = np.fft.ifft(half, axis=ax, norm="forward")
    return half.reshape(S, -1, D + 1)


def _real_samples(blocks, G):
    """G^n grid values of a stack of real centred blocks (`_half_grids`), a row each."""
    return np.fft.irfft(_half_grids(blocks, G), G, norm="forward").reshape(len(blocks), -1)


def _re_expanded(values, degree):
    """Centred degree blocks of a stack of real grids (S, N_0, ...), alias-free
    when every N_j > 2 degree: rfftn's passes, each keeping only the window,
    the conjugate reflection, a _DROP floor per block, and symmetrization."""
    if np.iscomplexobj(values):
        raise DimensionMismatch("from_grid re-expands real samples only")
    if degree < 0:
        raise DimensionMismatch("degree must be >= 0, got %r" % (degree,))
    if min(values.shape[1:]) <= 2 * degree:
        raise DimensionMismatch("grid too coarse for the requested degree")
    grid = tuple(range(1, values.ndim))
    window = np.arange(-degree, degree + 1)
    half = np.fft.rfft(values, axis=-1, norm="forward")[..., : degree + 1]
    for ax in reversed(grid[:-1]):
        half = np.fft.fft(half, axis=ax, norm="forward")
        half = half.take(window % values.shape[ax], axis=ax)
    block = np.concatenate([np.conj(np.flip(half[..., 1:], axis=grid)), half], axis=-1)
    magnitude = np.abs(block)
    block = np.where(magnitude > _DROP * magnitude.max(axis=grid, keepdims=True), block, 0)
    return [_symmetrized(b) for b in block]


def _exp_tables(x, D, work):
    """exp(2 pi i k x_j), k = -D..D, at the rows x_j of x: a table of a row per
    k for each, at the start of work, shape (len(x), 2D+1, P).  Row k+1 is
    row k times row 1, and row -k is the conjugate of row k."""
    E = work[: x.size * (2 * D + 1)].reshape(len(x), 2 * D + 1, x.shape[1])
    E[:, D] = 1.0
    if D:
        E[:, D + 1] = np.exp(2j * np.pi * x)
        for k in range(D + 2, 2 * D + 1):
            np.multiply(E[:, k - 1], E[:, D + 1], out=E[:, k])
        np.conj(E[:, :D:-1], out=E[:, :D])
    return E


def _contract(f, tables):
    """Values of the real function f from the tables of its points
    (`_exp_tables`, of degree at least f.size): the block's k_0 >= 0 half,
    with the k_0 > 0 rows doubled, is contracted against them from the last
    axis to the first, one matrix product and then one sum per axis.  The
    values are the real part of the sum, since c_{-k} = conj(c_k)."""
    d = f.size
    E = [t[len(t) // 2 - d : len(t) // 2 + d + 1] for t in tables]
    block = f.block[d:].copy()
    block[1:] *= 2
    E[0] = E[0][d:]
    T = block.reshape(-1, len(E[-1])) @ E[-1]
    for e in reversed(E[:-1]):
        T = np.einsum("akp,kp->ap", T.reshape(-1, len(e), T.shape[-1]), e)
    return T.reshape(-1).real


def _separable_step(n, D):
    # points per chunk whose tables and partial sums hold _SEPARABLE_CHUNK
    return max(1, _SEPARABLE_CHUNK // (n * (2 * D + 1) + (2 * D + 1) ** (n - 1)))


def _separable_values(functions, pts, work=None):
    """Values of the functions at the (..., n) points, one array each, by
    separable contraction (`_contract`).  The points go in chunks of
    `_separable_step` points; each chunk's tables serve every function, in
    work, which a caller of many chunks passes so that none maps new pages."""
    n = pts.shape[-1]
    x = pts.reshape(-1, n)
    D = max(f.size for f in functions)
    step = _separable_step(n, D)
    work = np.empty(n * (2 * D + 1) * min(step, len(x)), dtype=complex) if work is None else work
    out = [np.empty(len(x)) for _ in functions]
    for start in range(0, len(x), step):
        part = x[start : start + step]
        tables = _exp_tables(part.T, D, work)
        for f, vals in zip(functions, out):
            vals[start : start + step] = _contract(f, tables)
    return [vals.reshape(pts.shape[:-1]) for vals in out]


class TorusVectorField:
    """Vector field on T^n with real TorusFunction components."""

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise DimensionMismatch("need at least one component")
        n = comps[0].n
        if any(c.n != n for c in comps):
            raise DimensionMismatch("components live on different tori")
        if not all(c.real for c in comps):
            raise DimensionMismatch("vector field components must be real")
        self.components = comps
        self.n = n

    @classmethod
    def constant(cls, values):
        values = tuple(values)
        n = len(values)
        return cls([TorusFunction.constant(n, v) for v in values])

    @classmethod
    def zero(cls, n):
        return cls.constant((0.0,) * n)

    @property
    def degree(self):
        return max(c.degree for c in self.components)

    def average(self):
        return tuple(c.average for c in self.components)

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def shifted(self, values):
        """Add a constant vector."""
        return TorusVectorField(
            [c + TorusFunction.constant(self.n, v) for c, v in zip(self.components, values)]
        )

    def truncated(self, degree):
        """Each component truncated to degree, dropping coefficients below
        _DROP relative to its largest."""
        return TorusVectorField([c.truncated(degree, _DROP) for c in self.components])

    def _component_values(self, points, work=None):
        """Values of each component at the (..., n) points, one array each.
        The components on the separable path share tables (in work if given)."""
        pts = _points(points, self.n)
        separable = [c._takes_separable_path() for c in self.components]
        if any(separable):
            dense = iter(_separable_values(
                [c for c, s in zip(self.components, separable) if s], pts, work
            ))
        return [
            next(dense) if s else c.evaluate(pts)
            for c, s in zip(self.components, separable)
        ]

    def __repr__(self):
        return "TorusVectorField(n=%d, degree=%d)" % (self.n, self.degree)


def directional_derivative(alpha, f):
    """Derivative along the constant field alpha: multiplication of each
    coefficient by 2 pi i (k.alpha)."""
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != f.n:
        raise DimensionMismatch("alpha must have length n")
    ka, _ = _divisors(alpha, f.size)
    return TorusFunction._exact(f.n, 2j * np.pi * ka * f.block, f.real)


def solve_small_divisor(alpha, f, tol_avg=1e-12):
    """Solve alpha.grad h = f - mean(f) by dividing by 2 pi i (k.alpha).

    The input average must already be below tol_avg; the zero mode of the
    solution is fixed to 0.  A mode on the support whose divisor vanishes to
    roundoff raises Resonance.
    """
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != f.n:
        raise DimensionMismatch("alpha must have length n")
    zero = (f.size,) * f.n
    avg = complex(f.block[zero])
    if abs(avg) > tol_avg:
        raise NonzeroAverage("average %r exceeds tolerance %g" % (avg, tol_avg))
    ka, floor = _divisors(alpha, f.size)
    support = f.block != 0
    support[zero] = False
    resonant = support & (np.abs(ka) <= floor)
    if resonant.any():
        # the last one in block order has a positive leading component
        k = tuple(int(i) - f.size for i in np.argwhere(resonant)[-1])
        raise Resonance("resonant frequency %r for alpha %r" % (k, alpha))
    # c / (2 pi i k.alpha) = -i c / (2 pi k.alpha)
    out = _quotient(-1j * f.block, 2 * np.pi * ka, support)
    return TorusFunction._exact(f.n, out, f.real)


def sobolev_norm(f, r):
    """(sum |c_k|^2 (1 + |k|^2)^r)^(1/2); vector fields aggregate in l2."""
    if isinstance(f, TorusVectorField):
        return math.sqrt(sum(sobolev_norm(c, r) ** 2 for c in f.components))
    w = _sobolev_weight(f.n, f.size, float(r))
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return math.sqrt(float((np.abs(f.block) ** 2 * w).sum()))


def _halves(functions, G):
    # the passes before the last axis (`_half_grid`), None for a zero function
    return [None if f.is_zero() else f._half_grid(G) for f in functions]


def _sampled(functions, G):
    """Real grid values of the functions, one row each (`_sampled_block`)."""
    _require_size(G, functions[0].n, "sampling grid")
    return _sampled_block(_halves(functions, G), G, 0, G ** functions[0].n)


# points per block, [start, stop) in flat order, of the pointwise grid work:
# as many whole units (grid lines, or separable chunks) as fit, or one
_GRID_BLOCK = 2**13


def _blocks(count, unit):
    size = unit * max(1, _GRID_BLOCK // unit)
    return [(start, min(start + size, count)) for start in range(0, count, size)]


def _sampled_block(halves, G, start, stop, rows=None):
    """Grid values at the flat indices start..stop-1, one row per half grid
    (`_halves`; +0 for a zero function, as its transform gives), in the rows
    given or new ones: irfft of their lines, into the row if they are whole."""
    rows = np.empty((len(halves), stop - start)) if rows is None else rows
    lines = slice(start // G, -(-stop // G))
    for row, half in zip(rows, halves):
        if half is None:
            row[:] = 0.0
        elif start % G == stop % G == 0:
            np.fft.irfft(half[lines], G, norm="forward", out=row.reshape(-1, G))
        else:
            row[:] = np.fft.irfft(half[lines], G, norm="forward").ravel()[start % G :][: len(row)]
    return rows


def _moved_points(U, G, start=0):
    """The G^n grid points x from flat index start on moved to x + u(x),
    shape (len, n), from the rows U of u's grid values there."""
    n, count = U.shape
    pts = np.empty((count, n))
    lines = np.arange(start // G, -(-(start + count) // G))
    for i, row in enumerate(U):
        # x_i on the grid lines that hold the points, constant along each but the last axis's
        x = np.arange(G) if i == n - 1 else (lines // G ** (n - 2 - i) % G)[:, None]
        x = np.broadcast_to(x / G, (len(lines), G)).reshape(-1)[start % G :]
        np.add(x[:count], row, out=pts[:, i])
    return pts


def _field_from_grid(rows, G, degree):
    """Vector field re-expanded from rows of G^n samples, one per component."""
    blocks = _re_expanded(np.reshape(rows, (len(rows),) + (G,) * len(rows)), degree)
    return TorusVectorField([TorusFunction._exact(len(rows), b, True) for b in blocks])


def _sup_norms(U, J):
    # of u's rows U and of Du's rows J (row i n + j holding d_j u_i): Du's is
    # the largest row sum of |d_j u_i|, added in the order of j
    return np.maximum(U.max(), -U.min()), np.abs(J).reshape(len(U), len(U), -1).sum(axis=1).max()


def _smooth_size(G, power_of_two=True):
    """The smallest 5-smooth side >= G, a power of two only if allowed; a
    side is 5-smooth when it divides 30 to the power of its bit length."""
    while 30 ** G.bit_length() % G or not (power_of_two or G & (G - 1)):
        G += 1
    return G


def _grid_size(K):
    """Points per dimension of a Newton step's grid: the smallest 5-smooth
    side >= max(3K + 1, 8), where products of degree-K fields cut back to
    |k| <= K are alias-free (Orszag).  The pullback is not band-limited."""
    return _smooth_size(max(3 * K + 1, 8))


# the verification grid samples more than this many points per mode and axis
_GRID_FACTOR = 4


def _verification_size(K_in):
    """Points per dimension of the verification grid: the smallest 5-smooth
    size above max(_GRID_FACTOR K_in, 32) that is not a power of two, denser
    than the step grid (270 against 200 at K = 64), where the aliasing of
    the steps' pullbacks shows."""
    return _smooth_size(max(_GRID_FACTOR * K_in, 32) + 1, power_of_two=False)


def _require_jacobians(G, n):
    # called before the (G^n, n, n) Jacobians and their inverses are allocated
    if G**n * n * n > _SIZE_CAP:
        raise DimensionMismatch(
            "pullback Jacobians too large (%d^%d points x %d^2 entries)" % (G, n, n)
        )


def _inverse(M):
    """Inverses of a stack of n x n matrices, shape (P, n, n).  For n = 2 M is
    overwritten with them, in closed form: the adjugate over the determinant
    a d - b c.  Other n go through np.linalg.inv into a new array."""
    if M.shape[1:] != (2, 2):
        return np.linalg.inv(M)
    a, b, c, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
    det = a * d
    det -= b * c
    a[:], d[:] = d, a.copy()
    np.negative(b, out=b)
    np.negative(c, out=c)
    M /= det[:, None, None]
    return M


def _matvec_rows(Minv, v, out=None):
    """Rows of Minv v (into out) for 2 x 2 matrices Minv, shape (P, 2, 2), and
    v two rows or two scalars: one product per entry and one sum, as einsum's
    and matmul's loops form them.  Those start from +0, which turns a -0 sum
    into +0, so the rows do too.  From three terms on their loops sum in
    another order (vectorized, or in BLAS), so other n keep them."""
    out = np.empty((2, len(Minv))) if out is None else out
    for i, row in enumerate(out):
        np.multiply(Minv[:, i, 0], v[0], out=row)
        row += Minv[:, i, 1] * v[1]
        row += 0.0
    return out


def _pullback_blocks(u, X, G, shift=0.0, rows=None):
    """Values of (I + Du)^-1 (shift + X(x + u(x))) on the G^n grid, a block
    of points (`_blocks`, whole separable chunks, whose tables share one
    buffer) at a time, shape (len, n), as transposed rows; with rows, they
    and the entries of (I + Du)^-1 go into those whole-grid rows.  id + u is
    refused after the last block, from the sup norms of the whole grid; from
    the first block that reaches 1/2 on, blocks are only sampled."""
    n = X.n
    halves = _halves(u.components, G)
    partials = _halves((c.partial(j) for c in u.components for j in range(n)), G)
    separable = [c.size for c in X.components if c._takes_separable_path()]
    unit = _separable_step(n, max(separable)) if separable else G
    work = np.empty(n * (2 * max(separable) + 1) * unit, dtype=complex) if separable else None
    sup_u = sup_j = 0.0
    for start, stop in _blocks(G**n, unit):
        P, J = (None, None) if rows is None else (r[:, start:stop] for r in rows)
        U = _sampled_block(halves, G, start, stop)
        J = _sampled_block(partials, G, start, stop, J)
        sup_u, sup_j = np.maximum((sup_u, sup_j), _sup_norms(U, J))
        if sup_u >= 0.5 or sup_j >= 0.5:
            continue
        # adding 0.0 off the diagonal turns -0 into +0, as np.eye(n) + Du does
        J += np.eye(n).reshape(-1, 1)
        # the inverses go into J's rows, where for n = 2 they are formed
        Minv = _inverse(J.reshape(n, n, -1).transpose(2, 0, 1))
        J.reshape(n, n, -1).transpose(2, 0, 1)[...] = Minv
        V = X._component_values(_moved_points(U, G, start), work)
        for v, s in zip(V, np.broadcast_to(shift, (n,))):
            v += s
        if n == 2:
            P = _matvec_rows(Minv, V, P)
        else:
            P = np.einsum("pij,pj->ip", Minv, np.stack(V, axis=-1), out=P)
        yield P.T
    for what, sup in (("displacement", sup_u), ("Jacobian", sup_j)):
        if sup >= 0.5:
            raise NonInvertible("%s sup-norm %.3g >= 1/2" % (what, sup))


def _pulled_back(u, X, G, shift=0.0):
    """The pullback's values on the whole grid (`_pullback_blocks`), shape
    (G^n, n), and (I + Du)^-1, shape (G^n, n, n), as transposed rows."""
    n = X.n
    _require_jacobians(G, n)
    rows = np.empty((n, G**n)), np.empty((n * n, G**n))
    for _ in _pullback_blocks(u, X, G, shift, rows):
        pass
    return rows[0].T, rows[1].reshape(n, n, -1).transpose(2, 0, 1)


def _corrected(u_acc, u_new, G, degree):
    """u_acc + (I + Du_acc) u_new, the parametrization method's update, on rows
    of G^n grid values, re-expanded at degree: the composition (id + u_acc) o
    (id + u_new) up to O(|u_new|^2 |D^2 u_acc|), u_new and Du_acc in blocks."""
    n = len(u_new.components)
    A = _sampled(u_acc.components, G)
    new = _halves(u_new.components, G)
    partials = _halves((c.partial(j) for c in u_acc.components for j in range(n)), G)
    for start, stop in _blocks(G**n, G):
        U = _sampled_block(new, G, start, stop)
        A[:, start:stop] += U
        for (i, j), row in zip(np.ndindex(n, n), _sampled_block(partials, G, start, stop)):
            A[i, start:stop] += row * U[j]
    del new, partials  # their half grids are not held through the re-expansion
    return _field_from_grid(A, G, degree)


@dataclass
class KamState:
    """State of the Newton conjugacy iteration.

    The invariant maintained by every step: pulling back the constant field
    (omega - lambda_bar) + beta0 under id + u_acc equals the constant field
    omega plus beta_cur, up to the recorded truncation.
    """

    omega: tuple
    beta0: TorusVectorField
    beta_cur: TorusVectorField
    lambda_bar: tuple
    u_acc: TorusVectorField
    residual_history: list = field(default_factory=list)
    residual_history_r2: list = field(default_factory=list)
    trunc_degree: int = 64
    verified_sup_error: float = None

    @classmethod
    def initial(cls, omega, beta, trunc_degree=64):
        omega = tuple(float(w) for w in omega)
        if beta.n != len(omega):
            raise DimensionMismatch("omega and beta dimensions disagree")
        return cls(
            omega=omega,
            beta0=beta,
            beta_cur=beta,
            lambda_bar=(0.0,) * len(omega),
            u_acc=TorusVectorField.zero(len(omega)),
            residual_history=[sobolev_norm(beta, 0)],
            residual_history_r2=[sobolev_norm(beta, 2)],
            trunc_degree=int(trunc_degree),
        )

    @property
    def residual(self):
        return self.residual_history[-1]


def kam_step(state):
    """One Newton step: shift the parameter by the current average, solve the
    derivative equation for the coordinate change, add it to the accumulated
    one (`_corrected`), and recompute the residual by pulling the original
    field back under the sum.  The grid values stay in rows, one per
    component or Jacobian entry, from the samples to the re-expansion."""
    beta = state.beta_cur
    omega = np.asarray(state.omega)
    n = len(state.omega)
    exact = dict(
        residual_history=state.residual_history + [0.0],
        residual_history_r2=state.residual_history_r2 + [0.0],
    )
    if beta.is_zero():
        return replace(state, **exact)
    K = state.trunc_degree

    avg = beta.average()
    beta_p = beta.shifted(tuple(-a for a in avg))
    if beta_p.is_zero() and state.u_acc.is_zero():
        # constant perturbation, untouched coordinates: a pure parameter shift
        return replace(
            state,
            beta_cur=TorusVectorField.zero(n),
            lambda_bar=tuple(float(l + a) for l, a in zip(state.lambda_bar, avg)),
            **exact,
        )
    # every state holds residual == sobolev_norm(beta_cur, 0)
    scale = max(state.residual, 1e-300)
    u_new = TorusVectorField([
        solve_small_divisor(state.omega, c, tol_avg=1e-10 * scale) for c in beta_p.components
    ])

    # both re-expansions keep |k| <= K: those coefficients do not depend on
    # a wider window, and the step carries nothing beyond K
    G = _grid_size(K)
    u_tot = u_new.truncated(K) if state.u_acc.is_zero() else _corrected(state.u_acc, u_new, G, K)
    del beta_p, u_new  # their blocks are not held through the grid work

    # pull the original member back under the accumulated change; the
    # parameter increment is solved exactly against the averaged Jacobian
    P, Minv = _pulled_back(u_tot, state.beta0, G, omega - np.asarray(state.lambda_bar))
    # axis-0 reductions accumulate sequentially and drift ~N*eps; per-column
    # pairwise means keep the average kill at rounding level
    avg_M = np.array([[Minv[:, i, j].mean() for j in range(n)] for i in range(n)])
    P_avg = np.array([P[:, i].mean() for i in range(n)])
    d_lambda = np.linalg.solve(avg_M, P_avg - omega)
    lam = tuple(float(x) for x in np.asarray(state.lambda_bar) + d_lambda)
    # P - Minv d_lambda - omega, as rows, for n = 2 in P's
    if n == 2:
        beta_rows = P.T
        beta_rows -= _matvec_rows(Minv, d_lambda)
        beta_rows -= omega[:, None]
    else:
        beta_rows = (P - Minv @ d_lambda - omega[None, :]).T
    del P, Minv  # (I + Du)^-1's rows are not held through the re-expansion
    beta_next = _field_from_grid(beta_rows, G, K)

    return replace(
        state,
        beta_cur=beta_next,
        lambda_bar=lam,
        u_acc=u_tot,
        residual_history=state.residual_history + [sobolev_norm(beta_next, 0)],
        residual_history_r2=state.residual_history_r2 + [sobolev_norm(beta_next, 2)],
    )


def _verification_grid(state):
    # from the truncation degree: roundoff at u_acc's window edge sets its degree
    return _verification_size(max(state.trunc_degree, state.beta0.degree, 1))


def verify_conjugacy(state):
    """Largest distance, sampled block by block on a dense grid, between the
    pullback of the member field (omega - lambda_bar) + beta0 under id + u_acc
    and the target omega: a maximum over the grid points, not a bound between
    them.  Raises NonInvertible when id + u_acc is outside the invertibility region."""
    omega = np.asarray(state.omega)
    G = _verification_grid(state)
    blocks = _pullback_blocks(state.u_acc, state.beta0, G, omega - np.asarray(state.lambda_bar))
    return float(np.max([np.abs(vals - omega).max() for vals in blocks]))


def kam_iterate(omega, beta, max_iter=10, floor=1e-12, trunc_degree=64):
    """Iterate kam_step until the residual drops below floor.

    Raises NoConvergence when the residual stalls (less than a factor-2 drop),
    grows, the iteration budget runs out, or a step or the final verification
    leaves the invertibility region; the partial state rides on the exception.
    On success the final conjugacy is re-verified on a dense grid within
    10*floor; verified_sup_error is that grid's sampled maximum
    (`verify_conjugacy`), not a bound off the grid.
    """
    state = KamState.initial(omega, beta, trunc_degree)
    w = fit_witness(state.omega, gamma=1.0, K=min(trunc_degree, 256))
    if not w.valid:
        raise Resonance(
            "omega %r is resonant up to degree %d, at k = %r"
            % (state.omega, w.K, w.argmin_k)
        )
    # the verification grid's Jacobians are refused before the steps run
    _require_jacobians(_verification_grid(state), len(state.omega))
    for _ in range(max_iter):
        if state.residual < floor:
            break
        prev = state.residual
        try:
            state = kam_step(state)
        except (NonInvertible, Resonance) as exc:
            raise NoConvergence("step failed: %s" % exc, state=state) from exc
        if state.residual >= 0.5 * prev:
            raise NoConvergence(
                "residual stalled at %.3g (previous %.3g)" % (state.residual, prev),
                state=state,
            )
    if state.residual >= floor:
        raise NoConvergence(
            "residual %.3g above floor %.3g after %d iterations"
            % (state.residual, floor, max_iter),
            state=state,
        )
    try:
        err = verify_conjugacy(state)
    except NonInvertible as exc:
        raise NoConvergence("verification failed: %s" % exc, state=state) from exc
    if err > 10 * floor:
        raise NoConvergence(
            "conjugacy verification error %.3g exceeds %.3g" % (err, 10 * floor),
            state=state,
        )
    state.verified_sup_error = err
    return state
