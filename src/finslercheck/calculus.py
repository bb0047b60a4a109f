"""Point-wise high-order differentiation of scalar fields on the slit
tangent bundle.

The default scheme evaluates the field on truncated Taylor scalars
(forward mode, exact to rounding).  A central finite-difference scheme with
Richardson extrapolation is available as an independent cross-check; its
step is order-adaptive, ``eps**(1/(k+4))`` scaled by coordinate size for a
jet of total order k, because a fixed first-derivative step loses all
accuracy beyond second order.  It differentiates a vector-valued field as
a whole: within one jet each distinct stencil point is evaluated once, for
all components and all partials.

Fields are ordinary callables ``f(x, y)`` taking sequences of scalars and
written against :mod:`finslercheck.scalars`, so the same code runs on plain
floats and on Taylor scalars.  Inputs may themselves be Taylor scalars of
one algebra A, as the spherically symmetric (r, s) profiles are inside a
spray jet; such jets are composed from a float jet of raised order and the
powers of the inputs' deviations (Taylor propagation, Griewank & Walther,
*Evaluating Derivatives*, ch. 13), so every algebra has one block per jet
group.  The geometry pipeline differentiates the spray by derivative
shifts of one flat energy jet, whose series an AD :class:`Jet` keeps as
``series``.
"""

import math
import struct
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NonFiniteValue
from .taylor import TNum, algebra, _monomials
from . import scalars

EPS = float(np.finfo(float).eps)

MAX_KX = 2
MAX_KY = 4


@dataclass(frozen=True)
class JetOrder:
    """Maximum x- and y-derivative orders of a requested jet."""
    kx: int
    ky: int

    def __post_init__(self):
        if not (0 <= self.kx <= MAX_KX and 0 <= self.ky <= MAX_KY):
            raise ValueError(
                f"jet order ({self.kx}, {self.ky}) outside the supported "
                f"box (0..{MAX_KX}, 0..{MAX_KY})")


class TangentSample:
    """A base point x with a nonzero fiber vector y.

    Coordinates are floats for ordinary evaluation, or Taylor scalars when
    a jet is being taken through a derived field.  ``jets`` holds the spray
    jets computed at the sample, keyed by (model, kx, ky, scheme), so they
    live exactly as long as the sample.
    """

    __slots__ = ("x", "y", "jets")

    def __init__(self, x, y):
        self.x = tuple(x)
        self.y = tuple(y)
        self.jets = {}
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have the same dimension")
        ynorm = math.sqrt(sum(scalars.value(v) ** 2 for v in self.y))
        if not ynorm > 0.0:
            raise ValueError("fiber vector y must be nonzero")

    @property
    def n(self):
        return len(self.x)

    def __repr__(self):
        return f"TangentSample(x={self.x}, y={self.y})"


# ---------------------------------------------------------------------------
# jet tables


def var_exponents(n, vs):
    """Exponent tuple of the partial d/dv for each index v in ``vs``."""
    e = [0] * n
    for v in vs:
        e[v] += 1
    return tuple(e)


class Jet:
    """Dense table of mixed partials of one scalar, per variable-group.

    ``partial(m1, m2, ...)`` takes one exponent tuple per group;
    ``pvars(v1, v2, ...)`` takes tuples of variable indices instead
    (e.g. ``pvars((0,), (1, 1))`` for d/dx0 d2/dy1dy1).  Entries are floats,
    or series of ``alg`` (a trailing table axis) for Taylor-valued inputs.
    A flat AD jet also keeps the Taylor scalar it was read from as ``series``.
    """

    def __init__(self, nvars, caps, table, series=None, alg=None):
        self.nvars = tuple(nvars)
        self.caps = tuple(caps)
        self.monos = tuple(_monomials(n, c) for n, c in zip(nvars, caps))
        self.index = tuple({m: i for i, m in enumerate(ms)}
                           for ms in self.monos)
        self.table = table  # ndarray indexed by per-group monomial position
        self.series = series
        self.alg = alg

    def _entry(self, pos):
        e = self.table[pos]
        return e if self.alg is None else TNum(self.alg, e)

    @property
    def value(self):
        return self._entry((0,) * len(self.nvars))

    def partial(self, *exps):
        try:
            pos = tuple(idx[tuple(e)] for idx, e in zip(self.index, exps))
        except KeyError:
            raise KeyError(f"partial {exps} outside jet order {self.caps}")
        return self._entry(pos)

    def pvars(self, *varlists):
        return self.partial(*(var_exponents(n, vs)
                              for n, vs in zip(self.nvars, varlists)))

    def check_finite(self, context=""):
        if not np.isfinite(self.table).all():
            raise NonFiniteValue(
                f"non-finite derivative encountered{': ' + context if context else ''}")
        return self


def _ad_series(fn, groups, caps):
    """Taylor series of each component of ``fn`` at the float point
    ``groups``, one block per group."""
    alg = algebra(tuple((len(g), c) for g, c in zip(groups, caps)))
    seeded = [tuple(alg.variable(bi, vi, v) for vi, v in enumerate(g))
              for bi, g in enumerate(groups)]
    out = [r if isinstance(r, TNum) else alg.constant(scalars.value(r))
           for r in fn(*seeded)]
    if any(r.alg is not alg for r in out):
        raise ValueError("field result from another Taylor algebra")
    return out


def _weights(alg):
    """Weight m! per coefficient, shaped per block (coefficient -> partial)."""
    w = alg.block_weights[0]
    for wk in alg.block_weights[1:]:
        w = np.multiply.outer(w, wk)
    return w


def series_jet(t):
    """Partials table of a flat Taylor scalar, one group per block."""
    nvars, caps = zip(*t.alg.blocks)
    return Jet(nvars, caps, t.c.reshape(t.alg.sizes) * _weights(t.alg),
               series=t)


def _ad_jets(fn, groups, caps):
    """Per-component AD jets of ``fn`` at floats or Taylor scalars of one
    algebra A with total cap K.  Inputs v = v0 + delta are composed: the
    float jet of fn at v0, of order raised by up to K, gives

        d^beta fn(v) = sum_{|alpha| <= K} d^(alpha+beta) fn(v0) delta^alpha / alpha!,

    exact in A because delta^alpha vanishes past degree K."""
    algs = {v.alg for g in groups for v in g if isinstance(v, TNum)}
    if len(algs) > 1:
        raise ValueError("inputs from different Taylor algebras")
    if not algs:
        return [series_jet(t).check_finite()
                for t in _ad_series(fn, groups, caps)]
    outer, = algs
    nvars = tuple(len(g) for g in groups)
    deltas = [(bi, vi, v - v.value()) for bi, g in enumerate(groups)
              for vi, v in enumerate(g) if isinstance(v, TNum)]
    # rows delta^alpha / alpha! in graded order; a vanishing row is dropped
    # and so are its multiples, and each group's cap is raised by the
    # largest degree of the rows kept
    alphas = _monomials(len(deltas), outer.total_cap)
    rows = {alphas[0]: outer.constant(1.0)}
    for alpha in alphas[1:]:
        j = max(k for k, e in enumerate(alpha) if e)
        prev = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
        row = rows[prev] * deltas[j][2] / alpha[j] if prev in rows else None
        if row is not None and row.c.any():
            rows[alpha] = row
    multis = [[[0] * n for n in nvars] for _ in rows]
    for multi, alpha in zip(multis, rows):
        for (bi, vi, _), e in zip(deltas, alpha):
            multi[bi][vi] = e
    raised = [c + max(sum(m[bi]) for m in multis) for bi, c in enumerate(caps)]
    series = _ad_series(fn, [[scalars.value(v) for v in g] for g in groups],
                        raised)
    target = algebra(tuple(zip(nvars, caps)))
    D = np.array([row.c for row in rows.values()])
    w = _weights(target)[..., None]
    jets = []
    for t in series:
        shifted = np.array([t.partial(m, target).c for m in multis])
        table = w * (shifted.T @ D).reshape(target.sizes + (-1,))
        jets.append(Jet(nvars, caps, table, alg=outer).check_finite())
    return jets


def jet_of(fn, groups, caps, scheme="ad"):
    """Jet of ``fn(*groups)`` with one total-degree cap per group.

    The generic entry point behind :func:`eval_jet`; also used directly for
    (r, s)-profile derivatives and 1-form coefficient derivatives.
    """
    groups = tuple(tuple(g) for g in groups)
    if scheme == "ad":
        return _ad_jets(lambda *gs: (fn(*gs),), groups, caps)[0]
    if scheme == "fd":
        return _fd_jets(lambda *gs: (fn(*gs),), groups, caps)[0]
    raise ValueError(f"unknown differentiation scheme {scheme!r}")


def jet_of_many(fn, groups, caps, scheme="ad"):
    """Jets of a vector-valued ``fn`` (returns a sequence of scalars).

    The AD path seeds the inputs once and evaluates the whole vector in a
    single pass; FD evaluates the whole vector once per distinct stencil
    point.
    """
    groups = tuple(tuple(g) for g in groups)
    if scheme == "ad":
        return _ad_jets(fn, groups, caps)
    if scheme == "fd":
        return _fd_jets(fn, groups, caps)
    raise ValueError(f"unknown differentiation scheme {scheme!r}")


def eval_jet(f, at, order, scheme="ad"):
    """All mixed partials of the scalar field ``f`` at ``at`` up to
    ``order`` (a :class:`JetOrder`).  Raises NonFiniteValue when the field
    or any partial is NaN/inf at the sample."""
    if not isinstance(order, JetOrder):
        order = JetOrder(*order)
    return jet_of(lambda x, y: f(x, y), (at.x, at.y),
                  (order.kx, order.ky), scheme=scheme)


# ---------------------------------------------------------------------------
# finite differences (independent oracle)


def fd_step(total_order):
    """Base step for a partial of the given total order."""
    return EPS ** (1.0 / (total_order + 4))


def _flat_vars(nvars, varlists):
    """Flat coordinate indices of per-group variable lists, in order."""
    out, off = [], 0
    for n, vs in zip(nvars, varlists):
        out.extend(off + v for v in vs)
        off += n
    return out


def _fd_field(fn, groups):
    """Flat float base point of ``groups`` and a memoised evaluation of the
    vector field ``fn`` at flat points, returning its component array.
    Points are keyed by their exact bits, so a stencil point shared by
    several partials is evaluated once; the memo lives as long as the
    returned function."""
    sizes = [len(g) for g in groups]
    memo = {}

    def evaluate(z):
        key = struct.pack(f"{len(z)}d", *z)
        vals = memo.get(key)
        if vals is None:
            args, p = [], 0
            for s in sizes:
                args.append(tuple(z[p:p + s]))
                p += s
            vals = memo[key] = np.array(
                [scalars.value(c) for c in fn(*args)], dtype=float)
        return vals

    return [float(v) for g in groups for v in g], evaluate


def _richardson(evaluate, z, fvars, h0):
    """Nested Richardson-extrapolated central differences of the component
    array along the flat variables ``fvars``, the last one outermost."""
    if not fvars:
        return evaluate(z)
    v, rest = fvars[-1], fvars[:-1]
    h = h0 * (1.0 + abs(z[v]))

    def at(dz):
        zz = list(z)
        zz[v] += dz
        return _richardson(evaluate, zz, rest, h0)

    d_h = (at(h) - at(-h)) / (2.0 * h)
    d_h2 = (at(h / 2.0) - at(-h / 2.0)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def fd_partial(fn, groups, varlists, order_hint=None):
    """One mixed partial of the scalar field ``fn`` by nested
    Richardson-extrapolated central differences.  ``varlists`` gives, per
    group, the variable indices to differentiate against, applied left to
    right (order is immaterial for smooth fields up to FD noise, which is
    what the symmetry cross-checks probe)."""
    flat, evaluate = _fd_field(lambda *gs: (fn(*gs),), groups)
    fvars = _flat_vars([len(g) for g in groups], varlists)
    k = order_hint if order_hint is not None else len(fvars)
    return float(_richardson(evaluate, flat, fvars, fd_step(max(k, 1)))[0])


def _fd_jets(fn, groups, caps):
    """Per-component jets of the vector field ``fn`` by finite differences.
    Every partial uses the step of the jet's total order, and each distinct
    stencil point is evaluated once for all components and partials."""
    nvars = tuple(len(g) for g in groups)
    monos = [_monomials(n, c) for n, c in zip(nvars, caps)]
    flat, evaluate = _fd_field(fn, groups)
    h0 = fd_step(max(sum(caps), 1))
    values = []
    for exps in product(*monos):
        varlists = [tuple(v for v, e in enumerate(m) for _ in range(e))
                    for m in exps]
        values.append(_richardson(evaluate, flat,
                                  _flat_vars(nvars, varlists), h0))
    table = np.array(values).T.reshape((-1,) + tuple(map(len, monos)))
    return [Jet(nvars, caps, t).check_finite() for t in table]


# ---------------------------------------------------------------------------


HOMOGENEITY_SCALES = (0.5, 2.0, 3.7)


def homogeneity_check(f, at, degree, value=None):
    """Normalised residual of positive ``degree``-homogeneity of f in y:
    a float for a scalar f, one per component for a sequence-valued f,
    which is evaluated once per scale.  ``value`` is f at ``at`` when the
    caller already has it."""
    f0 = f(at.x, at.y) if value is None else value
    vector = isinstance(f0, (tuple, list, np.ndarray))
    f0 = [scalars.value(c) for c in (f0 if vector else (f0,))]
    worst = [0.0] * len(f0)
    for lam in HOMOGENEITY_SCALES:
        fl = f(at.x, tuple(lam * v for v in at.y))
        for i, c in enumerate(fl if vector else (fl,)):
            worst[i] = max(worst[i],
                           abs(scalars.value(c) - lam ** degree * f0[i]))
    res = [w / (1.0 + abs(c)) for w, c in zip(worst, f0)]
    return res if vector else res[0]
