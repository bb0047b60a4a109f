"""Point-wise high-order differentiation of scalar fields on the slit
tangent bundle.

The default scheme evaluates the field on truncated Taylor scalars
(forward mode, exact to rounding).  A central finite-difference scheme with
Richardson extrapolation is available as an independent cross-check; its
step is order-adaptive, ``eps**(1/(k+4))`` scaled by coordinate size for a
jet of total order k, because a fixed first-derivative step loses all
accuracy beyond second order.  It differentiates a vector-valued field as
a whole: within one jet each distinct stencil point is evaluated once, for
all components and all partials.  One Richardson walk, run as array steps
over all partials of a depth and all rows at once, lays out the stencils
and then combines the values of their distinct points, each entry bit for
bit that of a point-by-point recursion.  A field that can take many points
at once (the spray of a metric) evaluates the points as batches of Taylor
rows (:func:`jet_of_rows`), each row bit for bit the result at that point
alone; an error names the first failing point.

Fields are ordinary callables ``f(x, y)`` taking sequences of scalars and
written against :mod:`finslercheck.scalars`, so the same code runs on plain
floats and on Taylor scalars.  Inputs may themselves be Taylor scalars of
one algebra A, as the spherically symmetric (r, s) profiles are inside a
spray jet; such jets are composed from a float jet of raised order and the
powers of the inputs' deviations (Taylor propagation, Griewank & Walther,
*Evaluating Derivatives*, ch. 13), so every algebra has one block per jet
group.  The geometry pipeline differentiates the spray by derivative
shifts of one flat energy jet, whose series an AD :class:`Jet` keeps as
``series``.  Such a jet may carry only a staircase of its partials (see
:mod:`finslercheck.taylor`, ``jet_of(..., stair=...)``): a read outside
the stair raises KeyError instead of returning a partial never computed.

Every jet, AD or FD, is a jet of rows.  In a per-sample loop the first
read of a jet takes it for every sample of the loop, and a sample outside
a loop is a loop of one (:func:`held`; ``jet`` composed with ``vmap`` in
Bettencourt, Johnson & Duvenaud 2019, where one point is a batch of one).
"""

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, count, product

import numpy as np

from .errors import FinslerCheckError, NonFiniteValue
from .taylor import TRows, algebra, _monomials
from . import scalars

EPS = float(np.finfo(float).eps)

MAX_KX = 2
MAX_KY = 4

# Points per batch of Taylor rows (grid points, filled samples); bounds one
# batch's memory.
FD_BATCH = 64

# Stencil points per batch of Taylor rows in an FD jet; the stencils of
# all of a jet's rows fill its batches, so this bounds their memory.
STENCIL_BATCH = 192


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
    """A base point x with a nonzero fiber vector y, both float
    coordinates; jets seed their own Taylor variables at the sample.
    ``jets`` holds what was computed or filled at the sample, so it lives
    exactly as long as the sample (:func:`held`): a field's jets keyed by
    (field, kx, ky, scheme), spray partials by ("spray_partials", model,
    kx, ky, scheme), an op's arrays by its name, inputs and scheme; None
    where the sample's batch failed, so that a read takes it as a batch of
    one.  ``batch`` is the list a per-sample loop is walking, else None."""

    __slots__ = ("x", "y", "jets", "batch")

    def __init__(self, x, y):
        self.x = tuple(x)
        self.y = tuple(y)
        self.jets = {}
        self.batch = None
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have the same dimension")
        if not math.hypot(*self.y) > 0.0:
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
    (e.g. ``pvars((0,), (1, 1))`` for d/dx0 d2/dy1dy1).  Entries are
    floats; in a jet of Taylor rows, which has a trailing row axis, per-row
    arrays; at Taylor-valued inputs, :class:`TRows` of ``alg`` (a
    coefficient axis before the row axis).  A flat AD jet also keeps the
    Taylor rows it was read from as ``series`` and their ``stair``;
    partials outside the stair raise KeyError.  :meth:`row` takes one row
    as a jet of floats.
    """

    def __init__(self, nvars, caps, table, series=None, alg=None,
                 stair=None):
        self.nvars = tuple(nvars)
        self.caps = tuple(caps)
        self.stair = stair
        self.layout = algebra(tuple(zip(self.nvars, self.caps)), stair)
        self.monos = self.layout.monos
        self.index = self.layout.mono_index
        self.table = table  # ndarray indexed by per-group monomial position
        self.series = series
        self.alg = alg

    def _entry(self, pos):
        e = self.table[pos]
        return e if self.alg is None else TRows(self.alg, e)

    def row(self, r):
        """Row r of a jet of Taylor rows of floats, as a jet of floats
        without ``series``, sharing this jet's layout."""
        jet = object.__new__(Jet)
        jet.__dict__.update(self.__dict__, table=self.table[..., r].copy(),
                            series=None)
        return jet

    @property
    def value(self):
        return self._entry((0,) * len(self.nvars))

    def partial(self, *exps):
        try:
            pos = tuple(idx[tuple(e)] for idx, e in zip(self.index, exps))
        except KeyError:
            raise KeyError(f"partial {exps} outside jet order {self.caps}")
        if self.stair is not None:
            _require_kept(self.layout, tuple(map(sum, exps)))
        return self._entry(pos)

    def pvars(self, *varlists):
        return self.partial(*(var_exponents(n, vs)
                              for n, vs in zip(self.nvars, varlists)))

    def dense(self, *orders):
        """Every partial of the given order per group, one axis per
        differentiation: ``dense(1, 2)[k, i, j]`` is ``pvars((k,), (i, j))``.
        Series entries keep their trailing coefficient axis, and rows
        their row axis last."""
        ix, shape = _dense_index(self.nvars, self.caps, orders, self.stair)
        return self.table[ix].reshape(shape + self.table.shape[len(ix):])

    def check_finite(self):
        if not np.isfinite(self.table).all():
            raise NonFiniteValue("non-finite derivative encountered")
        return self


def _require_kept(layout, orders):
    if not layout.keeps(orders):
        raise KeyError(f"partials of order {orders} outside the jet's stair "
                       f"{layout.stair}")


@functools.lru_cache(maxsize=None)
def _dense_index(nvars, caps, orders, stair=None):
    """Open-mesh table index of :meth:`Jet.dense` and its output shape."""
    layout = algebra(tuple(zip(nvars, caps)), stair)
    _require_kept(layout, orders)
    per_group = [[idx[var_exponents(n, vs)]
                  for vs in product(range(n), repeat=k)]
                 for n, k, idx in zip(nvars, orders, layout.mono_index)]
    shape = tuple(n for n, k in zip(nvars, orders) for _ in range(k))
    return np.ix_(*per_group), shape


def _ad_series(fn, groups, caps, *, stair=None):
    """Taylor rows of each component of ``fn`` at the per-row float arrays
    ``groups`` (a float is the same at every row), one row per point and
    one block per group, kept on ``stair`` if given."""
    alg = algebra(tuple((len(g), c) for g, c in zip(groups, caps)), stair)
    rows = max(np.size(v) for g in groups for v in g)
    seeded = [tuple(alg.variable(bi, vi, np.broadcast_to(v, rows))
                    for vi, v in enumerate(g))
              for bi, g in enumerate(groups)]
    const = seeded[0][0]._constant
    out = [r if isinstance(r, TRows) else const(scalars.value(r))
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
    """Partials table of flat Taylor rows, one group per block, with their
    trailing row axis kept last."""
    nvars, caps = zip(*t.alg.blocks)
    table = (t.c.reshape(t.alg.sizes + t.c.shape[1:])
             * _weights(t.alg)[..., None])
    return Jet(nvars, caps, table, series=t, stair=t.alg.stair)


def _ad_jets(fn, groups, caps, *, stair=None):
    """Per-component AD jets of ``fn`` at per-row float arrays, or at
    Taylor rows of one algebra A with total cap K, the row axis last.
    Inputs v = v0 + delta are composed: the float jet of fn at v0, of
    order raised by up to K, gives

        d^beta fn(v) = sum_{|alpha| <= K} d^(alpha+beta) fn(v0) delta^alpha / alpha!,

    exact in A because delta^alpha vanishes past degree K.  Every step
    runs on rows, and row r equals the jet of the one-row batch of row r
    bit for bit as long as a power of the deltas vanishes at every row or
    at none (it does for seeded inputs), and the jet's target algebra and
    A both have more than one coefficient: on a size-1 axis numpy's stacked
    ``matmul`` sums a row's products in an order that depends on the row
    count (a (0, 0) jet's rows of a 20-row batch differ from their
    one-row batches).  At a float point the jets are those of its batch of
    one, read as jets of floats."""
    if not any(isinstance(v, (np.ndarray, TRows)) for g in groups for v in g):
        # a float point: plain-float evaluation of a field that takes a jet
        # itself (a radial factor's f' in a spray at an FD stencil point),
        # or a library call; floats in, floats out
        return [jet.row(0) for jet in _ad_jets(
            fn, [[np.reshape(v, 1) for v in g] for g in groups], caps,
            stair=stair)]
    algs = {v.alg for g in groups for v in g if isinstance(v, TRows)}
    if len(algs) > 1:
        raise ValueError("inputs from different Taylor algebras")
    if not algs:
        return [series_jet(t).check_finite()
                for t in _ad_series(fn, groups, caps, stair=stair)]
    if stair is not None:
        raise ValueError("a stair applies to jets at float inputs")
    outer, = algs
    nvars = tuple(len(g) for g in groups)
    deltas = [(bi, vi, v - v.value()) for bi, g in enumerate(groups)
              for vi, v in enumerate(g) if isinstance(v, TRows)]
    # rows delta^alpha / alpha! in graded order; a vanishing row is dropped
    # and so are its multiples, and each group's cap is raised by the
    # largest degree of the rows kept
    alphas = _monomials(len(deltas), outer.total_cap)
    rows = {alphas[0]: deltas[0][2]._constant(1.0)}
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
    # (rows, alphas, A's size): each row's deltas, stacked
    D = np.array([row.c for row in rows.values()]).transpose(2, 0, 1)
    w = _weights(target)[..., None, None]
    jets = []
    for t in series:
        shifted = np.array([t.partial(m, target).c for m in multis])
        # each row's product, stacked, row axis last
        prod = (shifted.transpose(2, 1, 0) @ D).transpose(1, 2, 0)
        table = w * prod.reshape(target.sizes + prod.shape[1:])
        jets.append(Jet(nvars, caps, table, alg=outer).check_finite())
    return jets


def jet_of_rows(fn, groups, caps):
    """AD jet of the scalar field ``fn`` at each row of the float arrays
    ``groups`` (one ``(rows, nvars)`` array per group), from one pipeline
    of :class:`TRows`.  The table carries the rows' trailing axis, so a
    partial reads as one value per row, and row r equals the jet of ``fn``
    at row r alone bit for bit."""
    return _ad_jets(lambda *gs: (fn(*gs),), [tuple(g.T) for g in groups],
                    caps)[0]


def jet_of(fn, groups, caps, scheme="ad", *, stair=None):
    """Jet of ``fn(*groups)`` with one total-degree cap per group, at
    floats or at per-row float arrays (a jet of rows, the row axis last).

    The generic entry point behind :func:`eval_jet`; also used directly for
    (r, s)-profile derivatives and 1-form coefficient derivatives.  An AD
    jet of two float groups may keep only the partials on ``stair`` (see
    :func:`finslercheck.taylor.algebra`).
    """
    groups = tuple(tuple(g) for g in groups)
    if scheme == "ad":
        return _ad_jets(lambda *gs: (fn(*gs),), groups, caps, stair=stair)[0]
    if stair is not None:
        raise ValueError("a stair applies to AD jets only")
    if scheme == "fd":
        return _fd_jets(lambda *gs: (fn(*gs),), groups, caps)[0]
    raise ValueError(f"unknown differentiation scheme {scheme!r}")


def jet_of_many(fn, groups, caps, scheme="ad", *, rows=None):
    """Jets of a vector-valued ``fn`` (returns a sequence of scalars).

    The AD path seeds the inputs once and evaluates the whole vector in a
    single pass; FD evaluates the whole vector once per distinct stencil
    point.  ``rows``, read by FD only, evaluates ``fn`` at many points at
    once: it takes one ``(points, nvars)`` float array per group and
    returns the ``(points, ncomp)`` values, each row equal to ``fn`` at
    that point bit for bit.
    """
    groups = tuple(tuple(g) for g in groups)
    if scheme == "ad":
        return _ad_jets(fn, groups, caps)
    if scheme == "fd":
        return _fd_jets(fn, groups, caps, rows)
    raise ValueError(f"unknown differentiation scheme {scheme!r}")


def eval_jet(f, at, order, scheme="ad"):
    """All mixed partials of the scalar field ``f`` at ``at`` up to
    ``order`` (a :class:`JetOrder`): the jet :func:`held` under ``(f, kx,
    ky, scheme)``.  Raises NonFiniteValue when the field or any partial is
    NaN/inf there."""
    if not isinstance(order, JetOrder):
        order = JetOrder(*order)
    caps = (order.kx, order.ky)
    return held(at, (f, *caps, scheme), lambda part: [
        jet_of(f, coordinates(part), caps, scheme)])[0]


def held(at, key, rows, batch=FD_BATCH):
    """The sample ``at``'s row of ``rows(part)``, a list of jets of rows or
    arrays with the row axis last, on lists ``part`` of samples: the first
    read of ``key`` fills every sample of the loop ``at.batch`` with its
    row (:func:`fill_jets`), and later reads return it; a sample outside a
    loop is a loop of one.  A sample that holds nothing usable (a key of
    None, or its batch failed) takes row 0 of ``rows([at])``, its batch of
    one, so its own error propagates; under a key it then holds that row."""
    if key is not None and key not in at.jets:
        fill_jets(at.batch or [at], key, rows, batch)
    out = at.jets.get(key)
    if out is None:
        out = _row(rows([at]), 0)
        if key is not None:
            at.jets[key] = out
    return out


def sample_rows(at, key, rows, batch=FD_BATCH):
    """:func:`held` for ``rows(xs, ys)`` on the samples' coordinates."""
    return held(at, key, lambda part: rows(*coordinates(part)), batch)


def coordinates(samples):
    """The samples' x and y, each as per-row float arrays, one per
    coordinate."""
    xs = np.array([at.x for at in samples]).T
    ys = np.array([at.y for at in samples]).T
    return tuple(xs), tuple(ys)


def _row(out, r):
    """Row r of the outputs of a rows function (:func:`held`), each a jet
    of floats that shares the batch's layout, or an array."""
    return [o.row(r) if isinstance(o, Jet) else o[..., r].copy()
            for o in out]


def fill_jets(samples, key, rows, batch=FD_BATCH):
    """Put under ``key`` on each of ``samples`` not holding it its row of
    ``rows(part)``, taken on lists of at most ``batch`` of them (see
    :func:`held`), each row bit for bit the sample's batch of one.  A
    sample of a batch that raises FinslerCheckError, or whose row is not
    finite, gets None, so a read takes it as a batch of one and fails with
    its own error; the batch runs once."""
    todo = [at for at in samples if key not in at.jets]
    for lo in range(0, len(todo), batch):
        part = todo[lo:lo + batch]
        try:
            out = rows(part)
        except FinslerCheckError:
            out = None
        finite = [False] * len(part) if out is None \
            else finite_rows(out).tolist()
        for r, (at, ok) in enumerate(zip(part, finite)):
            at.jets[key] = _row(out, r) if ok else None


def finite_rows(out):
    """Whether each row of the outputs ``out`` of a rows function (jets of
    rows or arrays, the row axis last) is finite."""
    tables = [getattr(o, "table", o) for o in out]
    return np.logical_and.reduce([np.isfinite(t).reshape(-1, t.shape[-1])
                                  .all(0) for t in tables])


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


def _field_values(fn, nvars, points, rows=None):
    """``(P, ncomp)`` component values of the vector field ``fn`` at each
    row of ``points``: point by point, or through ``rows`` in batches of at
    most ``STENCIL_BATCH`` points.  An error names the first failing point,
    in row order (see :func:`batched`)."""
    ends = list(accumulate(nvars))
    spans = list(zip([0] + ends, ends))

    def groups(z):
        return tuple(tuple(z[a:b]) for a, b in spans)

    def one(z):
        return [scalars.value(c) for c in fn(*groups(z))]

    def many(batch):
        if rows is None:
            return np.array([one(z) for z in batch.tolist()], dtype=float)
        return rows(*(batch[:, a:b] for a, b in spans))

    return np.concatenate(batched(
        many, points, one,
        lambda z: f"the FD stencil point {groups(z)}", STENCIL_BATCH))


def batched(rows, points, one, where, size=FD_BATCH):
    """The results of ``rows`` on the array ``points`` in batches of at
    most ``size`` rows, one per batch.  A batch that raises
    FinslerCheckError is evaluated again point by point, each row as a
    list, with ``one``, and the first failing point's own error is raised
    with `` at `` and ``where(point)`` appended; should every point pass,
    the batch's error stands."""
    out = []
    for lo in range(0, len(points), size):
        batch = points[lo:lo + size]
        try:
            out.append(rows(batch))
        except FinslerCheckError:
            for z in batch.tolist():
                try:
                    one(z)
                except FinslerCheckError as exc:
                    exc.args = (f"{exc} at {where(z)}",)
                    raise
            raise
    return out


@functools.lru_cache(maxsize=None)
def _fd_plan(nvars, caps):
    """The index work of an FD jet's Richardson walks, which depends on the
    jet's shape only: the table shape; per depth k (partials of k
    differentiations), their table positions and, per walk level from the
    outermost variable in, the flat positions in the level's point array
    of the coordinate each point moves along, to read and to write; and
    the permutation that puts the depth-ordered leaves in first-visit
    order (partials in table order, each one's leaves in walk order)."""
    monos = [_monomials(n, c) for n, c in zip(nvars, caps)]
    fvar_lists = [_flat_vars(nvars, [tuple(v for v, e in enumerate(m)
                                           for _ in range(e)) for m in exps])
                  for exps in product(*monos)]
    dim = sum(nvars)
    depths, start, offset = [], [0] * len(fvar_lists), 0
    for k in sorted({len(f) for f in fvar_lists}):
        members = [p for p, f in enumerate(fvar_lists) if len(f) == k]
        fvars = np.array([fvar_lists[p] for p in members],
                         dtype=np.intp).reshape(len(members), k)
        levels = []
        for j in range(k):
            col = np.repeat(fvars[:, k - 1 - j], 4 ** j)
            levels.append((np.arange(len(col)) * dim + col,
                           np.arange(4 * len(col)) * dim + np.repeat(col, 4)))
        for i, p in enumerate(members):
            start[p] = offset + i * 4 ** k
        depths.append((members, levels))
        offset += len(members) * 4 ** k
    order = np.concatenate([np.arange(start[p], start[p] + 4 ** len(f))
                            for p, f in enumerate(fvar_lists)])
    return tuple(map(len, monos)), depths, order


def _fd_jets(fn, groups, caps, rows=None):
    """Per-component jets of the vector field ``fn`` by finite differences
    (nested central differences with Richardson extrapolation, the last
    variable of a partial outermost) at per-row float arrays, rows last; at
    a float point, those of its batch of one, as jets of floats.  Every
    partial uses the step of the jet's total order.  One walk runs as array
    steps over all partials of one depth and all rows at once: it expands
    the stencil one variable at a time, at offsets h, -h, h/2, -h/2 with
    h = h0 (1 + |z_v|) at each point, so each row's leaves come out in the
    order a point-by-point walk visits them.  Each row's distinct leaves,
    by their exact bits, are evaluated once for all components and
    partials, in first-visit order, all rows' in one call (through
    ``rows`` when given), and the walk's levels combine the values bottom
    up.  Every step is elementwise IEEE arithmetic, so each entry is bit
    for bit that of the point-by-point recursion."""
    if not any(isinstance(v, np.ndarray) for g in groups for v in g):
        return [jet.row(0) for jet in _fd_jets(
            fn, [[np.reshape(v, 1) for v in g] for g in groups], caps, rows)]
    nvars = tuple(len(g) for g in groups)
    shape, depths, order = _fd_plan(nvars, tuple(caps))
    flat = np.array([v for g in groups for v in g], dtype=float).T
    nrows = len(flat)
    h0 = fd_step(max(sum(caps), 1))
    leaves, steps = [], []
    for members, levels in depths:  # points of a row on axis 1
        z = np.repeat(flat[:, None], len(members), axis=1)
        hs = []
        for read, write in levels:
            at = z.reshape(nrows, -1)[:, read]
            h = h0 * (1.0 + np.abs(at))
            z = np.repeat(z, 4, axis=1)
            z.reshape(nrows, -1)[:, write] = (at[..., None] + np.stack(
                (h, -h, h / 2.0, -h / 2.0), axis=-1)).reshape(nrows, -1)
            hs.append(h[..., None])
        leaves.append(z)
        steps.append(hs)
    ends = np.cumsum([z.shape[1] for z in leaves])
    points, where = [], []
    for r in range(nrows):
        visit = np.concatenate([z[r] for z in leaves])[order]
        keys = visit.view(np.dtype((np.void, visit.itemsize * visit.shape[1])))
        keys = keys.ravel().tolist()
        # the row's distinct points' exact bits, in first-visit order, to
        # their row in all rows' points
        index = dict(zip(dict.fromkeys(keys), count(sum(map(len, points)))))
        points.append(np.frombuffer(b"".join(index)).reshape(len(index), -1))
        where.append(np.fromiter(map(index.__getitem__, keys), np.intp,
                                 len(keys)))
    # the field values of all rows are taken without the stencils' layout
    del leaves, visit, keys, index
    points = np.concatenate(points)
    values = _field_values(fn, nvars, points, rows)
    ncomp = values.shape[1]
    leaf_values = np.empty((nrows, len(order), ncomp))
    leaf_values[:, order] = values[np.array(where)]
    table = np.empty((nrows, math.prod(shape), ncomp))
    for (members, _), hs, v in zip(depths, steps, np.split(
            leaf_values, ends[:-1], axis=1)):
        for h in reversed(hs):
            a, b, c, d = v.reshape(nrows, -1, 4, ncomp).transpose(2, 0, 1, 3)
            d_h = (a - b) / (2.0 * h)
            d_h2 = (c - d) / h
            v = (4.0 * d_h2 - d_h) / 3.0
        table[:, members] = v
    table = table.transpose(2, 1, 0).reshape((ncomp,) + shape + (nrows,))
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
