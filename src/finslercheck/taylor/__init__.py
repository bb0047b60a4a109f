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
``bincount`` (see ``finslercheck.taylor._backend``).

Arithmetic is exact to machine rounding: results agree with symbolic
differentiation up to float64 round-off.
"""

import math
from itertools import product

import numpy as np

from ..errors import NonFiniteValue
from . import _backend

__all__ = ["Algebra", "TNum", "algebra", "backend_name"]


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


def algebra(blocks):
    """Return the (cached) algebra for a tuple of ``(nvars, cap)`` blocks."""
    blocks = tuple((int(n), int(c)) for n, c in blocks)
    alg = _ALGEBRAS.get(blocks)
    if alg is None:
        alg = Algebra(blocks)
        _ALGEBRAS[blocks] = alg
    return alg


class Algebra:
    """Layout and multiplication tables for one block signature.

    Do not instantiate directly; use :func:`algebra` so tables are cached
    per signature.
    """

    def __init__(self, blocks):
        self.blocks = blocks
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
        self._tables = None
        self._partial_maps = {}

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
            self._tables = (ii, jj, oo)
        return self._tables

    def partial_map(self, multi, target):
        """(source index, weight) per coefficient of ``target`` for the
        partial derivative with per-block exponent tuples ``multi``.

        The coefficient of monomial m in d^multi p is (m + multi)!/m! times
        the coefficient of m + multi in p.  ``target`` must have the same
        block shapes, with each cap at most this cap minus the block's
        derivative order.  Cached per (multi, target) like :meth:`tables`.
        """
        multi = tuple(tuple(int(e) for e in m) for m in multi)
        key = (multi, target.blocks)
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
            maps = self._partial_maps[key] = (idx, w)
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
        c[flat] = 1.0
        return TNum(self, c)

    def flat_index(self, multi):
        """Flattened coefficient index of per-block exponent tuples."""
        flat = 0
        for bi, m in enumerate(multi):
            flat = flat * self.sizes[bi] + self.mono_index[bi][tuple(m)]
        return flat


class TNum:
    """A truncated Taylor polynomial (scalar with carried derivatives).

    Supports +, -, *, /, ** with other TNums of the same algebra and with
    plain numbers, plus the analytic functions needed by the metric
    catalogue (sqrt/exp/log/sin/cos/abs).  Values that leave the real
    domain raise :class:`NonFiniteValue`.
    """

    __slots__ = ("alg", "c")
    __array_ufunc__ = None  # keep numpy from broadcasting over us

    def __init__(self, alg, c):
        self.alg = alg
        self.c = c

    def value(self):
        return self.c[0]

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
            return TNum(self.alg, self.c + o.c)
        c = self.c.copy()
        c[0] += other
        return TNum(self.alg, c)

    __radd__ = __add__

    def __neg__(self):
        return TNum(self.alg, -self.c)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is not None:
            return TNum(self.alg, self.c - o.c)
        c = self.c.copy()
        c[0] -= other
        return TNum(self.alg, c)

    def __rsub__(self, other):
        c = -self.c
        c[0] += other
        return TNum(self.alg, c)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return TNum(self.alg, self.c * other)
        ii, jj, oo = self.alg.tables()
        return TNum(self.alg,
                    _backend.mul_accumulate(ii, jj, oo, self.c, o.c,
                                            self.alg.size))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return TNum(self.alg, self.c / other)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)) or (
                isinstance(p, float) and p.is_integer()):
            k = int(p)
            if k < 0:
                return self._reciprocal() ** (-k)
            out = self.alg.constant(1.0)
            base = self
            while k:
                if k & 1:
                    out = out * base
                base = base * base
                k >>= 1
            return out
        v = self.value()
        if not (v > 0.0):
            raise NonFiniteValue(f"x**{p} with non-positive base {v}")
        derivs, fall = [], 1.0
        for k in range(self.alg.total_cap + 1):
            derivs.append(fall * v ** (p - k))
            fall *= (p - k)
        return self._compose(derivs)

    # -- analytic functions (truncated composition) -------------------------

    def _compose(self, derivs):
        """sum_k derivs[k]/k! * (self - value)^k, Horner-evaluated."""
        e = TNum(self.alg, self.c.copy())
        e.c[0] = 0.0
        acc = self.alg.constant(derivs[-1] / math.factorial(len(derivs) - 1))
        for k in range(len(derivs) - 2, -1, -1):
            acc = acc * e + derivs[k] / math.factorial(k)
        return acc

    def _reciprocal(self):
        v = self.value()
        if v == 0.0 or not np.isfinite(v):
            raise NonFiniteValue("division by a Taylor scalar with zero "
                                 "or non-finite value")
        derivs = [math.factorial(k) * (-1.0) ** k / v ** (k + 1)
                  for k in range(self.alg.total_cap + 1)]
        return self._compose(derivs)

    def sqrt(self):
        v = self.value()
        if not (v > 0.0):
            raise NonFiniteValue(f"sqrt of non-positive Taylor value {v}")
        derivs, fall = [], 1.0
        for k in range(self.alg.total_cap + 1):
            derivs.append(fall * v ** (0.5 - k))
            fall *= (0.5 - k)
        return self._compose(derivs)

    def exp(self):
        v = self.value()
        try:
            ev = math.exp(v)
        except OverflowError:
            raise NonFiniteValue(f"exp overflow at {v}") from None
        return self._compose([ev] * (self.alg.total_cap + 1))

    def log(self):
        v = self.value()
        if not (v > 0.0):
            raise NonFiniteValue(f"log of non-positive Taylor value {v}")
        derivs = [math.log(v)]
        for k in range(1, self.alg.total_cap + 1):
            derivs.append(math.factorial(k - 1) * (-1.0) ** (k - 1) / v ** k)
        return self._compose(derivs)

    def sin(self):
        v = self.value()
        cyc = (math.sin(v), math.cos(v), -math.sin(v), -math.cos(v))
        return self._compose([cyc[k % 4]
                              for k in range(self.alg.total_cap + 1)])

    def cos(self):
        v = self.value()
        cyc = (math.cos(v), -math.sin(v), -math.cos(v), math.sin(v))
        return self._compose([cyc[k % 4]
                              for k in range(self.alg.total_cap + 1)])

    def absolute(self):
        # non-differentiable at 0; callers sample away from the crease
        return self if self.value() >= 0.0 else -self

    # -- derivative shift ----------------------------------------------------

    def partial(self, multi, target):
        """The partial derivative d^multi of this series (per-block exponent
        tuples), as a series of the smaller algebra ``target``."""
        idx, w = self.alg.partial_map(multi, target)
        return TNum(target, self.c[idx] * w)

    # -- coefficient access --------------------------------------------------

    def coefficient(self, multi):
        """Raw series coefficient for per-block exponent tuples."""
        return self.c[self.alg.flat_index(multi)]

    def is_finite(self):
        return bool(np.isfinite(self.c).all())
