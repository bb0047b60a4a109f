"""Truncated multivariate Taylor arithmetic.

Every derivative in the toolkit is obtained by evaluating scalar fields on
truncated Taylor polynomials.  A polynomial lives in an :class:`Algebra`
whose generators are grouped into *blocks*; each block has its own total
degree cap, so a jet of order (kx, ky) in the 2n tangent-bundle coordinates
uses two blocks ``(n, kx)`` and ``(n, ky)``.

A partial derivative of a polynomial is a shift of its coefficients:
:meth:`TNum.partial` maps a series to the series of one of its partials,
truncated to a smaller algebra, with index and weight maps cached on the
source algebra.  The geometry pipeline differentiates the spray this way,
from one flat energy jet of raised order (Taylor propagation in the sense
of Griewank & Walther, *Evaluating Derivatives*, ch. 13).

Jets of functions at Taylor-valued inputs (user fields, the spherically
symmetric (r, s) profiles) are composed rather than nested: a float jet of
raised order is shifted to each needed partial and contracted with the
powers of the inputs' deviations, so no algebra ever carries more blocks
than its jet has groups (see :mod:`finslercheck.calculus`).  The
multiplication is one sparse convolution over a flat float64 coefficient
array.  That convolution is the hot kernel of the whole package, one numpy
``bincount`` of the gathered products; a batch gathers into a work area
that the kernel keeps per thread, so its multiplies reuse memory rather
than fault in fresh pages (see ``finslercheck.taylor._backend``).

A two-block algebra may keep only a *staircase* of its coefficients: for
each block-0 degree d, the block-1 degrees up to ``stair[d]``.  A
non-increasing stair is exactly a downward-closed keep-set (an order
ideal), so both factors of a kept monomial are kept and the truncated ring
is the polynomial ring modulo the monomial ideal of the dropped monomials
(Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2): every
kept coefficient is exact, and equals the full box's bit for bit, because
the multiply keeps the box's triples of kept outputs in their box order.
The layout stays the box's, so indices, partial maps and ``total_cap`` do
not change (``total_cap`` fixes the Horner length of the analytic
functions, and with it their rounding); the dropped slots are never
written and stay zero.  The geometry pipeline keeps its energy and spray
jets on the staircases the tensor ops read.

:class:`TRows` carries a batch of series of one algebra, one per row, through
one pipeline (vector-mode Taylor propagation, Griewank & Walther ch. 13).
Its coefficients are stored coefficient-major, as a ``(size, rows)`` array
with the row axis last, so ``c[0]`` is the value and ``c[idx]`` a shift
whether ``c`` holds one series or a batch, and TRows runs TNum's own
operations.  The finite-difference oracle evaluates a jet's stencil points
this way, and ``sphsym`` its (r, s) grid.  Each row is bit for bit the
series computed from that row alone: the kernel sums each row's triples in
the single-series order, and the derivative lists of the analytic
functions, domain checks included, come from the same scalar functions
at each row's value, never from a numpy ufunc, whose vectorised
transcendentals may round differently.

Arithmetic is exact to machine rounding: results agree with symbolic
differentiation up to float64 round-off.
"""

import math
from itertools import product

import numpy as np

from ..errors import NonFiniteValue
from . import _backend

__all__ = ["Algebra", "TNum", "TRows", "algebra", "backend_name"]


# Kept because perfbench's provenance line reads it.
def backend_name():
    """Name of the convolution kernel; there is one, 'pure' numpy."""
    return "pure"


def _monomials(nvars, cap):
    """All exponent tuples of ``nvars`` variables with total degree <= cap,
    graded-lexicographically ordered (the zero tuple comes first)."""
    monos = [m for m in product(range(cap + 1), repeat=nvars) if sum(m) <= cap]
    monos.sort(key=lambda m: (sum(m), m))
    return tuple(monos)


def _block_pairs(monos, index, cap):
    """Index triples (i, j, o) with mono[i] + mono[j] = mono[o] within cap."""
    ii, jj, oo = [], [], []
    for i, mi in enumerate(monos):
        di = sum(mi)
        for j, mj in enumerate(monos):
            if di + sum(mj) > cap:
                continue
            ii.append(i)
            jj.append(j)
            oo.append(index[tuple(a + b for a, b in zip(mi, mj))])
    return (np.asarray(ii, dtype=np.intp),
            np.asarray(jj, dtype=np.intp),
            np.asarray(oo, dtype=np.intp))


_ALGEBRAS = {}


def algebra(blocks, stair=None):
    """Return the (cached) algebra for a tuple of ``(nvars, cap)`` blocks.

    ``stair`` keeps, in a two-block algebra, the coefficients whose block-1
    degree is at most ``stair[d]`` at block-0 degree d (none past
    ``len(stair) - 1``).  It must be non-increasing, with at most
    ``cap0 + 1`` entries between 0 and ``cap1``; ``None`` keeps the box.
    """
    blocks = tuple((int(n), int(c)) for n, c in blocks)
    if stair is not None:
        stair = tuple(int(s) for s in stair)
        if not (len(blocks) == 2 and 1 <= len(stair) <= blocks[0][1] + 1
                and blocks[1][1] >= stair[0]
                and all(a >= b for a, b in zip(stair, stair[1:]))
                and stair[-1] >= 0):
            raise ValueError(f"stair {stair} is not a non-increasing "
                             f"staircase inside the box {blocks}")
    key = (blocks, stair)
    alg = _ALGEBRAS.get(key)
    if alg is None:
        alg = Algebra(blocks, stair)
        _ALGEBRAS[key] = alg
    return alg


class Algebra:
    """Layout and multiplication tables for one block signature and stair.

    Do not instantiate directly; use :func:`algebra` so tables are cached
    per signature.
    """

    def __init__(self, blocks, stair=None):
        self.blocks = blocks
        self.stair = stair
        self.monos = tuple(_monomials(n, c) for n, c in blocks)
        self.mono_index = tuple({m: i for i, m in enumerate(ms)}
                                for ms in self.monos)
        self.sizes = tuple(len(ms) for ms in self.monos)
        self.size = int(np.prod(self.sizes)) if self.sizes else 1
        self.total_cap = sum(c for _, c in blocks)
        # factorial weight of each basis monomial (per block, then flattened
        # lazily by consumers that convert coefficients to partials)
        self.block_weights = tuple(
            np.array([math.prod(math.factorial(e) for e in m) for m in ms],
                     dtype=float)
            for ms in self.monos)
        # kept-slot mask over the flat layout, None for the whole box
        self.kept = None if stair is None else np.array(
            [self.keeps((sum(m0), sum(m1)))
             for m0 in self.monos[0] for m1 in self.monos[1]])
        self._tables = None
        self._row_bins = (0, None)
        self._partial_maps = {}

    def keeps(self, degrees):
        """Whether the coefficients of per-block total ``degrees`` are kept."""
        if self.stair is None:
            return True
        d0, d1 = degrees
        return d0 < len(self.stair) and d1 <= self.stair[d0]

    def tables(self):
        if self._tables is None:
            ii = np.zeros(1, dtype=np.intp)
            jj = np.zeros(1, dtype=np.intp)
            oo = np.zeros(1, dtype=np.intp)
            for bi, (monos, index, (n, cap)) in enumerate(
                    zip(self.monos, self.mono_index, self.blocks)):
                pi, pj, po = _block_pairs(monos, index, cap)
                s = self.sizes[bi]
                ii = (ii[:, None] * s + pi[None, :]).ravel()
                jj = (jj[:, None] * s + pj[None, :]).ravel()
                oo = (oo[:, None] * s + po[None, :]).ravel()
            if self.kept is not None:
                # the box's triples of kept outputs, in their box order
                keep = self.kept[oo]
                ii, jj, oo = ii[keep], jj[keep], oo[keep]
            self._tables = (ii, jj, oo)
        return self._tables

    def row_bins(self, rows):
        """The kernel's output bins for ``rows`` series at once, with the
        row axis last: each triple's output slot times ``rows``, plus its
        row.  Only the last row count's bins are cached: a batch runs all
        its multiplies at one row count, so they are built about once per
        batch, where one array per row count would hold up to
        ``calculus.FD_BATCH`` of them for good."""
        if self._row_bins[0] != rows:
            oo = self.tables()[2]
            self._row_bins = (rows,
                              (oo[:, None] * rows + np.arange(rows)).ravel())
        return self._row_bins[1]

    def partial_map(self, multi, target):
        """(source index, weight, target slots) for the partial derivative
        with per-block exponent tuples ``multi``: the target slots are
        ``None`` for a box target, else the kept ones, which the source
        index and weight list in order.

        The coefficient of monomial m in d^multi p is (m + multi)!/m! times
        the coefficient of m + multi in p.  ``target`` must have the same
        block shapes, with each cap at most this cap minus the block's
        derivative order, and every kept target slot must read a kept
        source slot.  Cached per (multi, target) like :meth:`tables`.
        """
        multi = tuple(tuple(int(e) for e in m) for m in multi)
        key = (multi, target.blocks, target.stair)
        maps = self._partial_maps.get(key)
        if maps is None:
            fits = len(multi) == len(self.blocks) == len(target.blocks) \
                and all(len(d) == n == tn and tc + sum(d) <= c
                        for d, (n, c), (tn, tc)
                        in zip(multi, self.blocks, target.blocks))
            if not fits:
                raise ValueError(f"partial {multi} from {self.blocks} does "
                                 f"not fit in {target.blocks}")
            idx = np.zeros(1, dtype=np.intp)
            w = np.ones(1)
            for bi, d in enumerate(multi):
                src, wb = [], []
                for m in target.monos[bi]:
                    s = tuple(a + b for a, b in zip(m, d))
                    src.append(self.mono_index[bi][s])
                    wb.append(math.prod(math.perm(a, b) for a, b in zip(s, d)))
                idx = (idx[:, None] * self.sizes[bi] + np.asarray(src)).ravel()
                w = np.multiply.outer(w, np.asarray(wb, dtype=float)).ravel()
            pos = None
            if target.kept is not None:
                pos = np.flatnonzero(target.kept)
                idx, w = idx[pos], w[pos]
            if self.kept is not None and not self.kept[idx].all():
                raise ValueError(f"partial {multi} into {target.blocks} "
                                 f"reads coefficients outside the stair "
                                 f"{self.stair}")
            maps = self._partial_maps[key] = (idx, w, pos)
        return maps

    # -- constructors ------------------------------------------------------

    def constant(self, v):
        c = np.zeros(self.size)
        c[0] = v
        return TNum(self, c)

    def variable(self, block, var, base):
        """base + generator  for variable ``var`` of block ``block``."""
        nvars, cap = self.blocks[block]
        if cap == 0:
            return self.constant(base)
        e = tuple(1 if k == var else 0 for k in range(nvars))
        flat = 0
        for bi, idx in enumerate(self.mono_index):
            flat = flat * self.sizes[bi] + (idx[e] if bi == block else 0)
        c = np.zeros(self.size)
        c[0] = base
        if self.kept is None or self.kept[flat]:
            c[flat] = 1.0
        return TNum(self, c)

    def flat_index(self, multi):
        """Flattened coefficient index of per-block exponent tuples."""
        flat = 0
        for bi, m in enumerate(multi):
            flat = flat * self.sizes[bi] + self.mono_index[bi][tuple(m)]
        return flat


def _integral(p):
    return isinstance(p, (int, np.integer)) or (
        isinstance(p, float) and p.is_integer())


def _derivs_at(derivs, values, *args):
    """``derivs(v, *args)`` at each Python float v of ``values``, so that a
    TNum and each TRows row compute alike.  A derivative at a finite v that
    is not finite, because a power of v overflowed or underflowed to 0
    under a division, raises NonFiniteValue."""
    out = []
    for v in values:
        try:
            d = derivs(v, *args)
        except (OverflowError, ZeroDivisionError):
            d = [math.inf]
        if not math.isfinite(sum(d)) and math.isfinite(v) \
                and not all(map(math.isfinite, d)):
            raise NonFiniteValue(f"{derivs.__name__[1:-7]} has a non-finite "
                                 f"derivative at {v}")
        out.append(d)
    return out


def _pow_derivs(v, cap, p):
    """The derivatives of x**p at v, orders 0..cap."""
    if not (v > 0.0):
        raise NonFiniteValue(f"x**{p} with non-positive base {v}")
    derivs, fall = [], 1.0
    for k in range(cap + 1):
        derivs.append(fall * v ** (p - k))
        fall *= (p - k)
    return derivs


def _sqrt_derivs(v, cap):
    if not (v > 0.0):
        raise NonFiniteValue(f"sqrt of non-positive Taylor value {v}")
    return _pow_derivs(v, cap, 0.5)


def _reciprocal_derivs(v, cap):
    if v == 0.0 or not math.isfinite(v):
        raise NonFiniteValue("division by a Taylor scalar with zero "
                             "or non-finite value")
    return [math.factorial(k) * (-1.0) ** k / v ** (k + 1)
            for k in range(cap + 1)]


def _exp_derivs(v, cap):
    try:
        ev = math.exp(v)
    except OverflowError:
        raise NonFiniteValue(f"exp overflow at {v}") from None
    return [ev] * (cap + 1)


def _log_derivs(v, cap):
    if not (v > 0.0):
        raise NonFiniteValue(f"log of non-positive Taylor value {v}")
    derivs = [math.log(v)]
    for k in range(1, cap + 1):
        derivs.append(math.factorial(k - 1) * (-1.0) ** (k - 1) / v ** k)
    return derivs


def _sin_derivs(v, cap, quarter=0):
    """The derivatives of sin(x + quarter * pi/2) at v; cos at quarter 1."""
    if math.isinf(v):  # math.sin raises ValueError there
        raise NonFiniteValue(f"sin or cos of infinite Taylor value {v}")
    cyc = (math.sin(v), math.cos(v), -math.sin(v), -math.cos(v))
    return [cyc[(k + quarter) % 4] for k in range(cap + 1)]


class TNum:
    """A truncated Taylor polynomial (scalar with carried derivatives).

    Supports +, -, *, /, ** with other TNums of the same algebra and with
    plain numbers, plus the analytic functions needed by the metric
    catalogue (sqrt/exp/log/sin/cos/abs).  Values that leave the real
    domain raise :class:`NonFiniteValue`.  Every operation indexes the
    coefficient axis first and builds ``type(self)``, so :class:`TRows`
    runs the same code.
    """

    __slots__ = ("alg", "c")
    __array_ufunc__ = None  # keep numpy from broadcasting over us

    def __init__(self, alg, c):
        self.alg = alg
        self.c = c

    def value(self):
        return self.c[0]

    def _constant(self, v):
        c = np.zeros(self.c.shape)
        c[0] = v
        return type(self)(self.alg, c)

    def __float__(self):
        raise TypeError("TNum carries derivatives; use scalars.value() "
                        "or the scalars module's generic functions")

    def __repr__(self):
        return f"TNum(value={self.c[0]!r}, blocks={self.alg.blocks})"

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TNum):
            if other.alg is not self.alg:
                raise ValueError("mixed Taylor algebras in arithmetic")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is not None:
            return type(self)(self.alg, self.c + o.c)
        c = self.c.copy()
        c[0] += other
        return type(self)(self.alg, c)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.alg, -self.c)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is not None:
            return type(self)(self.alg, self.c - o.c)
        c = self.c.copy()
        c[0] -= other
        return type(self)(self.alg, c)

    def __rsub__(self, other):
        c = -self.c
        c[0] += other
        return type(self)(self.alg, c)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return type(self)(self.alg, self.c * other)
        ii, jj, oo = self.alg.tables()
        if self.c.ndim > 1:
            oo = self.alg.row_bins(self.c.shape[1])
        return type(self)(self.alg,
                          _backend.mul_accumulate(ii, jj, oo, self.c, o.c,
                                                  self.alg.size))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return type(self)(self.alg, self.c / other)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if _integral(p):
            k = int(p)
            if k < 0:
                return self._reciprocal() ** (-k)
            out = self._constant(1.0)
            base = self
            while k:
                if k & 1:
                    out = out * base
                base = base * base
                k >>= 1
            return out
        return self._analytic(_pow_derivs, p)

    # -- analytic functions (truncated composition) -------------------------

    def _analytic(self, derivs, *args):
        """Compose with the derivative list ``derivs(v, cap, *args)``
        gives at the value v."""
        return self._compose(_derivs_at(derivs, [float(self.value())],
                                        self.alg.total_cap, *args)[0])

    def _compose(self, derivs):
        """sum_k derivs[k]/k! * (self - value)^k, Horner-evaluated; for
        :class:`TRows` row-wise, ``derivs[k]`` holding one value per row."""
        e = type(self)(self.alg, self.c.copy())
        e.c[0] = 0.0
        acc = self._constant(derivs[-1] / math.factorial(len(derivs) - 1))
        for k in range(len(derivs) - 2, -1, -1):
            acc = acc * e + derivs[k] / math.factorial(k)
        return acc

    def _reciprocal(self):
        return self._analytic(_reciprocal_derivs)

    def sqrt(self):
        return self._analytic(_sqrt_derivs)

    def exp(self):
        return self._analytic(_exp_derivs)

    def log(self):
        return self._analytic(_log_derivs)

    def sin(self):
        return self._analytic(_sin_derivs)

    def cos(self):
        return self._analytic(_sin_derivs, 1)

    def absolute(self):
        # non-differentiable at 0; callers sample away from the crease
        return self if self.value() >= 0.0 else -self

    # -- derivative shift ----------------------------------------------------

    def partial(self, multi, target):
        """The partial derivative d^multi of this series (per-block exponent
        tuples), as a series of the smaller algebra ``target``."""
        idx, w, pos = self.alg.partial_map(multi, target)
        shape = target.size
        if self.c.ndim > 1:  # rows: broadcast the weights over the row axis
            w = w[:, None]
            shape = (shape, self.c.shape[1])
        if pos is None:
            return type(self)(target, self.c[idx] * w)
        c = np.zeros(shape)
        c[pos] = self.c[idx] * w
        return type(self)(target, c)

    # -- coefficient access --------------------------------------------------

    def coefficient(self, multi):
        """Raw series coefficient for per-block exponent tuples."""
        return self.c[self.alg.flat_index(multi)]

    def is_finite(self):
        return bool(np.isfinite(self.c).all())


class TRows(TNum):
    """A batch of truncated Taylor polynomials of one algebra, carried
    through TNum's own operations: ``c`` has shape ``(size, rows)``, and
    row r of the batch is its column r.

    Row r of every result equals, bit for bit, the TNum computed from row r
    alone: the kernel sums each row's triples in the single-series order,
    the other ring operations are elementwise, and the derivative lists of
    the analytic functions, domain checks included, are computed from each
    row's value by the same scalar code.  A domain error names the first
    failing row's value.  Plain operands are numbers or per-row arrays.
    """

    __slots__ = ()

    @classmethod
    def variable(cls, alg, block, var, base):
        """``alg.variable(block, var, b)`` for each b of the array
        ``base``."""
        c = np.repeat(alg.variable(block, var, 0.0).c[:, None], len(base),
                      axis=1)
        c[0] = base
        return cls(alg, c)

    def __repr__(self):
        return f"TRows(rows={self.c.shape[1]}, blocks={self.alg.blocks})"

    def _analytic(self, derivs, *args):
        per_row = _derivs_at(derivs, self.value().tolist(),
                             self.alg.total_cap, *args)
        return self._compose(np.array(per_row, dtype=float).T)

    def absolute(self):
        # TNum negates unless value >= 0, so a NaN row is negated too
        return TRows(self.alg, np.where(self.value() >= 0.0, self.c, -self.c))
