"""Truncated multivariate Taylor arithmetic.

Every derivative in the toolkit is obtained by evaluating scalar fields on
truncated Taylor polynomials.  A polynomial lives in an :class:`Algebra`
whose generators are grouped into *blocks*; each block has its own total
degree cap, so a jet of order (kx, ky) in the 2n tangent-bundle coordinates
uses two blocks ``(n, kx)`` and ``(n, ky)``.

A partial derivative of a polynomial is a shift of its coefficients:
:meth:`TRows.partial` maps a series to the series of one of its partials,
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
not change; the dropped slots are never written and stay zero.  The
geometry pipeline keeps its energy and spray jets on the staircases the
tensor ops read.

A series also carries a *structural support*: the per-block total-degree
cells where it may be nonzero (an int bitmask, None for all), always with
the constant cell but in one series, the deviation from its value that an
analytic function's Horner loop multiplies by.  A multiply takes only the
box's triples of cells in the supports, in box order (:meth:`Algebra.live`;
Griewank & Walther ch. 13 on sparsity), and gives the box's result bit for
bit: ``bincount`` sums each bin from +0.0 in triple order, and a dropped
product of finite factors is +-0.  A non-finite factor reaches the output
through the constant cell's triples, so a product that is not finite is
redone.  The Horner loop runs from ``Algebra.top``, the highest total
degree of a kept cell, and its step k takes only the output cells of total
degree at most top - k, all that the result reads of it: the same bits as
the full Horner from ``total_cap`` (:meth:`TRows._compose`).

A series is a :class:`TRows`, a batch of series of one algebra, one per
row, carried through one pipeline (vector-mode Taylor propagation,
Griewank & Walther ch. 13); a lone series is a batch of one.  Its
coefficients are stored coefficient-major, as a ``(size, rows)`` array
with the row axis last, so ``c[0]`` holds the rows' values and ``c[idx]``
a shift.  The finite-difference oracle evaluates a jet's stencil points
this way, ``sphsym`` its (r, s) grid and the geometry pipeline its
samples.  Each row is bit for bit the series computed from that row
alone, as a batch of one: the kernel sums each row's triples in one fixed
order, and the derivative lists of the analytic functions, domain checks
included, are built row-wise by ``map`` over the same Python float
operations at each row's value, never from a numpy ufunc, whose
vectorised transcendentals may round differently.

Arithmetic is exact to machine rounding: results agree with symbolic
differentiation up to float64 round-off.
"""

import math
from itertools import product, repeat
from operator import mul, neg, truediv

import numpy as np

from ..errors import NonFiniteValue
from . import _backend

__all__ = ["Algebra", "TRows", "algebra"]


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
        # total-degree cell of each slot, one mixed-radix digit per block,
        # and the total degree of each cell
        self.cell = np.zeros(1, dtype=np.intp)
        degree = np.zeros(1, dtype=np.intp)
        for ms, (_, cap) in zip(self.monos, blocks):
            self.cell = np.add.outer(self.cell * (cap + 1),
                                     [sum(m) for m in ms]).ravel()
            degree = np.add.outer(degree, np.arange(cap + 1)).ravel()
        self.ncells = math.prod(c + 1 for _, c in blocks)
        # the highest total degree of a kept cell, and the cells of total
        # degree at most d as a support mask, for d up to it
        self.top = int(degree[self.cell if self.kept is None
                              else self.cell[self.kept]].max())
        self.within = [sum(1 << int(k) for k in np.flatnonzero(degree <= d))
                       for d in range(self.top + 1)]
        self._tables = None
        self._bins = (0, None, None)
        self._live = {}
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

    def live(self, sa, sb, rows, out=None):
        """(ii, jj, bins, support) of a multiply of ``rows`` series with
        supports ``sa`` and ``sb`` into the output cells ``out`` (a mask
        like a support, None for the box's): the box's triples whose
        operand cells lie in the supports and whose output cell lies in
        ``out``, their bins and the product's support, cached per (sa, sb,
        out).  A key that keeps over half of the triples takes the box's
        and None: it saves less than its table and bins cost.  A key may
        keep no triple, and its product is then 0.

        The bins hold each triple's output slot times ``rows``, plus its
        row.  Only the box's and every slot's at the last row count are
        cached: a batch runs all its multiplies at one row count, where one
        array per row count would hold up to ``calculus.STENCIL_BATCH`` of
        them for good."""
        entry = self._live.get((sa, sb, out))
        if entry is None:
            ii, jj, oo = self.tables()
            entry = ii, jj, oo, None
            ina, inb, ino = (np.array([s is None or s >> k & 1 for k in range(
                self.ncells)], dtype=bool) for s in (sa, sb, out))
            keep = (ina[self.cell[ii]] & inb[self.cell[jj]]
                    & ino[self.cell[oo]])
            if 2 * np.count_nonzero(keep) <= len(keep):
                # a boolean scatter, where np.unique would import numpy.ma
                hit = np.zeros(self.ncells, dtype=bool)
                hit[self.cell[oo[keep]]] = True
                entry = (ii[keep], jj[keep], oo[keep],
                         sum(1 << int(k) for k in np.flatnonzero(hit)))
            self._live[sa, sb, out] = entry
        ii, jj, oo, support = entry
        bins = self._bins  # read once: another thread may replace it
        if bins[0] != rows:
            slots = np.arange(self.size * rows).reshape(self.size, rows)
            bins = self._bins = (rows, slots,
                                 slots.take(self.tables()[2], 0).ravel())
        return (ii, jj, bins[2] if support is None
                else bins[1].take(oo, 0).ravel(), support)

    def partial_map(self, multi, target):
        """(source index, weight column, target slots, cell pairs) for the
        partial d^``multi`` (per-block exponent tuples): the target slots
        are ``None`` for a box target, else the kept ones, which the source
        index and weight list in order; a pair is (target, source) cells.

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
            cells = target.cell
            if target.kept is not None:
                pos = np.flatnonzero(target.kept)
                idx, w, cells = idx[pos], w[pos], cells[pos]
            if self.kept is not None and not self.kept[idx].all():
                raise ValueError(f"partial {multi} into {target.blocks} "
                                 f"reads coefficients outside the stair "
                                 f"{self.stair}")
            pairs = set(zip(cells.tolist(), self.cell[idx].tolist()))
            maps = self._partial_maps[key] = (idx, w[:, None], pos, pairs)
        return maps

    # -- constructor -------------------------------------------------------

    def variable(self, block, var, base):
        """base + the generator of variable ``var`` of block ``block``, one
        row per entry of the array ``base`` (a number is one row); a block
        of cap 0 has no generator, so its variable is the constant."""
        base = np.reshape(base, -1)
        c = np.zeros((self.size, len(base)))
        c[0] = base
        nvars, cap = self.blocks[block]
        if cap:
            e = tuple(int(k == var) for k in range(nvars))
            flat = self.flat_index([e if bi == block else (0,) * n
                                    for bi, (n, _) in enumerate(self.blocks)])
            if self.kept is None or self.kept[flat]:
                c[flat] = 1.0
                return TRows(self, c, 1 | 1 << int(self.cell[flat]))
        return TRows(self, c, 1)

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
    """``derivs(values, *args)``: one list per derivative order, each with
    one derivative per Python float of ``values``, so that each row
    computes alike in any batch.  A derivative at a finite value that is not
    finite, because a power of the value overflowed or underflowed to 0
    under a division, raises NonFiniteValue.  On a domain error, an
    overflow, a division by zero or a non-finite derivative, the values
    are taken again one at a time, and the first failing value's own error
    is raised."""
    try:
        lists = derivs(values, *args)
        if math.isfinite(sum(map(sum, lists))):
            return lists
    except (NonFiniteValue, OverflowError, ZeroDivisionError):
        lists = None
    for v in values:
        try:
            d = derivs([v], *args)
        except (OverflowError, ZeroDivisionError):
            d = [[math.inf]]
        if math.isfinite(v) and not all(math.isfinite(e) for e, in d):
            raise NonFiniteValue(f"{derivs.__name__[1:-7]} has a non-finite "
                                 f"derivative at {v}")
    return lists


def _require(vals, ok, message):
    """Raise NonFiniteValue with ``message`` formatted with the first of
    ``vals`` that fails ``ok``, if any does."""
    if not all(map(ok, vals)):
        raise NonFiniteValue(message.format(
            next(v for v in vals if not ok(v))))


# v > 0.0, as a C-level predicate to map over a row's values (False at NaN)
_positive = (0.0).__lt__


def _pow_derivs(vals, cap, p):
    """The derivatives of x**p at each value, orders 0..cap."""
    _require(vals, _positive, f"x**{p} with non-positive base {{}}")
    derivs, fall = [], 1.0
    for k in range(cap + 1):
        derivs.append(list(map(mul, repeat(fall),
                               map(pow, vals, repeat(p - k)))))
        fall *= (p - k)
    return derivs


def _sqrt_derivs(vals, cap):
    _require(vals, _positive, "sqrt of non-positive Taylor value {}")
    return _pow_derivs(vals, cap, 0.5)


def _reciprocal_derivs(vals, cap):
    if not (all(map(math.isfinite, vals)) and all(vals)):
        raise NonFiniteValue("division by a Taylor scalar with zero "
                             "or non-finite value")
    return [list(map(truediv, repeat(math.factorial(k) * (-1.0) ** k),
                     map(pow, vals, repeat(k + 1))))
            for k in range(cap + 1)]


def _exp_derivs(vals, cap):
    try:
        ev = list(map(math.exp, vals))
    except OverflowError:
        # exp increases, so the largest finite value overflows
        raise NonFiniteValue(f"exp overflow at "
                             f"{max(filter(math.isfinite, vals))}") from None
    return [ev] * (cap + 1)


def _log_derivs(vals, cap):
    _require(vals, _positive, "log of non-positive Taylor value {}")
    derivs = [list(map(math.log, vals))]
    for k in range(1, cap + 1):
        derivs.append(list(map(truediv,
                               repeat(math.factorial(k - 1)
                                      * (-1.0) ** (k - 1)),
                               map(pow, vals, repeat(k)))))
    return derivs


def _sin_derivs(vals, cap, quarter=0):
    """The derivatives of sin(x + quarter * pi/2) at each value; cos at
    quarter 1."""
    # math.sin raises ValueError at an infinite value
    _require(vals, lambda v: not math.isinf(v),
             "sin or cos of infinite Taylor value {}")
    sin, cos = list(map(math.sin, vals)), list(map(math.cos, vals))
    cyc = (sin, cos, list(map(neg, sin)), list(map(neg, cos)))
    return [cyc[(k + quarter) % 4] for k in range(cap + 1)]


class TRows:
    """A batch of truncated Taylor polynomials of one algebra (scalars
    with carried derivatives): ``c`` has shape ``(size, rows)``, and row r
    of the batch is its column r; a lone series is a batch of one.

    Supports +, -, *, /, ** with other TRows of the same algebra and row
    count and with plain numbers or per-row arrays, plus the analytic
    functions needed by the metric catalogue (sqrt/exp/log/sin/cos/abs).
    ``support`` is the structural support, None from a raw array.
    Row r of every result equals, bit for bit, the batch of one computed
    from row r alone: the kernel sums each row's triples in one fixed
    order, the other ring operations are elementwise, and the derivative
    lists of the analytic functions, domain checks included, map the same
    Python float operations over the rows' values.  Values that leave the
    real domain raise :class:`NonFiniteValue`, the first failing row's own.
    """

    __slots__ = ("alg", "c", "support")
    __array_ufunc__ = None  # keep numpy from broadcasting over us

    def __init__(self, alg, c, support=None):
        self.alg = alg
        self.c = c
        self.support = support

    def value(self):
        return self.c[0]

    def _constant(self, v):
        c = np.zeros(self.c.shape)
        c[0] = v
        return TRows(self.alg, c, 1)

    def __float__(self):
        raise TypeError("TRows carries derivatives; use scalars.value() "
                        "or the scalars module's generic functions")

    def __repr__(self):
        return f"TRows(rows={self.c.shape[1]}, blocks={self.alg.blocks})"

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TRows):
            if other.alg is not self.alg:
                raise ValueError("mixed Taylor algebras in arithmetic")
            return other
        return None

    def _union(self, o):
        return None if None in (self.support, o.support) \
            else self.support | o.support

    def __add__(self, other):
        o = self._coerce(other)
        if o is not None:
            return TRows(self.alg, self.c + o.c, self._union(o))
        c = self.c.copy()
        c[0] += other
        return TRows(self.alg, c, None if self.support is None
                     else self.support | 1)

    __radd__ = __add__

    def __neg__(self):
        return TRows(self.alg, -self.c, self.support)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is not None:
            return TRows(self.alg, self.c - o.c, self._union(o))
        c = self.c.copy()
        c[0] -= other
        return TRows(self.alg, c, self.support)

    def __rsub__(self, other):
        c = -self.c
        c[0] += other
        return TRows(self.alg, c, self.support)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return TRows(self.alg, self.c * other, self.support)
        # a product that is not finite is taken again on the box's triples
        return (self._times(o, (self.support, o.support))
                or self._times(o, (None, None)))

    def _times(self, o, supports, out=None):
        """The product with ``o`` on the box's triples that the pair of
        ``supports`` and the output cells ``out`` keep (:meth:`Algebra.live`),
        or None if it is not finite and is not the box's whole product.  A
        table of no triples gives float zeros without the kernel."""
        ii, jj, bins, support = self.alg.live(*supports, self.c.shape[1], out)
        if not len(ii):
            return TRows(self.alg, np.zeros(self.c.shape), support)
        c = _backend.mul_accumulate(ii, jj, bins, self.c, o.c, self.alg.size)
        if support is None and out is None or math.isfinite(c.sum()):
            return TRows(self.alg, c, support)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return TRows(self.alg, self.c / other, self.support)
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
        """Compose with the derivative lists ``derivs(values, cap, *args)``
        gives at each row's value."""
        return self._compose(np.array(_derivs_at(
            derivs, self.c[0].tolist(), self.alg.total_cap, *args)))

    def _compose(self, derivs):
        """sum_k derivs[k]/k! * e^k, e = self - value, by the Horner loop
        acc_k = acc_{k+1} * e + derivs[k]/k!, ``derivs[k]`` holding one
        value per row for k up to ``total_cap``.

        e has no constant term, so the result reads acc_k only in cells of
        total degree at most top - k (``Algebra.top`` and ``within``): the
        truncated loop starts at acc_top, drops the constant cell from e's
        support and takes step k into those cells alone.  A dropped triple
        writes a cell that no kept coefficient reads, or adds e's exact 0.0
        times a finite factor, +-0, to a sum from +0.0, so the result is
        the full loop's from ``total_cap`` bit for bit; where that one
        overflowed in unread cells and took NaN through e's 0.0, it is now
        finite.  The full loop runs where self or derivs is not finite, a
        truncated product is not, or top is 0 (its last add turns a -0.0
        value into +0.0); its e keeps the constant cell, since a zeroed
        non-finite value would hide its row from the multiply's check."""
        alg = self.alg
        if alg.top and math.isfinite(self.c.sum()) \
                and math.isfinite(derivs.sum()):
            acc = self._horner(derivs, alg.top, ~1 & (
                alg.within[-1] if self.support is None else self.support),
                alg.within)
            if acc is not None:
                return acc
        return self._horner(derivs, alg.total_cap, self.support if
                            math.isfinite(self.c[0].sum()) else None)

    def _horner(self, derivs, top, support, within=None):
        """The Horner loop of :meth:`_compose` from acc_top, with e on
        ``support``: full, or truncated to the cells ``within[top - k]`` at
        step k, where a product that is not finite gives None."""
        e = TRows(self.alg, self.c.copy(), support)
        e.c[0] = 0.0
        acc = self._constant(derivs[top] / math.factorial(top))
        for k in range(top - 1, -1, -1):
            acc = acc * e if within is None else acc._times(
                e, (acc.support, support), within[top - k])
            if acc is None:
                return None
            acc = acc + derivs[k] / math.factorial(k)
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
        # non-differentiable at 0; callers sample away from the crease.
        # Negated unless value >= 0, so a NaN row is negated too
        return TRows(self.alg, np.where(self.value() >= 0.0, self.c, -self.c),
                     self.support)

    # -- derivative shift ----------------------------------------------------

    def partial(self, multi, target):
        """The partial derivative d^multi of each row (per-block exponent
        tuples), as rows of the smaller algebra ``target``."""
        idx, w, pos, pairs = self.alg.partial_map(multi, target)
        s = self.support and 1 | sum(1 << t for t, c in pairs
                                     if self.support >> c & 1)
        if pos is None:
            return TRows(target, self.c[idx] * w, s)
        c = np.zeros((target.size, self.c.shape[1]))
        c[pos] = self.c[idx] * w
        return TRows(target, c, s)

    # -- coefficient access --------------------------------------------------

    def is_finite(self):
        return bool(np.isfinite(self.c).all())
