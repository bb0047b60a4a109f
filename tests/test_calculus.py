"""Jet engine: frozen trivial oracles, AD/FD cross-validation, nesting."""

import math
from itertools import product

import numpy as np
import pytest

from finslercheck import catalogue, scalars, taylor
from finslercheck.calculus import (
    STENCIL_BATCH, JetOrder, TangentSample, eval_jet, fd_step,
    homogeneity_check, jet_of, jet_of_many,
)
from finslercheck.errors import NonFiniteValue
from oracles import coefficient


def norm_y(x, y):
    return scalars.sqrt(scalars.dot(y, y))


def test_norm_gradient():
    at = TangentSample((0.3, -0.2, 0.9), (1.0, 0.0, 0.0))
    jet = eval_jet(norm_y, at, JetOrder(0, 1))
    assert jet.value == pytest.approx(1.0)
    grad = [jet.pvars((), (i,)) for i in range(3)]
    assert grad == pytest.approx([1.0, 0.0, 0.0])


def test_norm_hessian():
    at = TangentSample((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    jet = eval_jet(norm_y, at, JetOrder(0, 2))
    hess = np.array([[jet.pvars((), (i, j)) for j in range(3)]
                     for i in range(3)])
    np.testing.assert_allclose(hess, np.diag([0.0, 1.0, 1.0]), atol=1e-14)


def test_jet_order_caps():
    with pytest.raises(ValueError):
        JetOrder(3, 0)
    with pytest.raises(ValueError):
        JetOrder(0, 5)
    with pytest.raises(ValueError):
        JetOrder(-1, 0)


def test_sample_requires_nonzero_y():
    with pytest.raises(ValueError):
        TangentSample((0.0,), (0.0,))


def test_ad_vs_fd_general_berwald_order_1_3(gb3):
    # scheme cross-validation on the hardest catalogue function
    at = TangentSample((0.2, 0.0, 0.0), (0.0, 1.0, 0.0))
    ad = eval_jet(gb3.model.F, at, JetOrder(1, 3), scheme="ad")
    fd = eval_jet(gb3.model.F, at, JetOrder(1, 3), scheme="fd")
    for ax in ad.monos[0]:
        for ay in ad.monos[1]:
            va, vf = ad.partial(ax, ay), fd.partial(ax, ay)
            assert abs(va - vf) <= 1e-6 * (1.0 + abs(va)), (ax, ay, va, vf)


@pytest.mark.parametrize("name", ["euclidean", "klein", "funk_parallel",
                                  "berwald_classic", "general_berwald"])
def test_ad_vs_fd_catalogue(name):
    # 20 sites per metric = 100 cross-validations over the catalogue
    from finslercheck.sampling import tangent_samples
    model = catalogue.entry(name, n=3).model
    for at in tangent_samples(3, 20, seed=707):
        ad = eval_jet(model.F, at, JetOrder(1, 2), scheme="ad")
        fd = eval_jet(model.F, at, JetOrder(1, 2), scheme="fd")
        for ax in ad.monos[0]:
            for ay in ad.monos[1]:
                va, vf = ad.partial(ax, ay), fd.partial(ax, ay)
                assert abs(va - vf) <= 1e-6 * (1.0 + abs(va))


def test_fd_mixed_partial_orderings_agree(klein3):
    # same partial, the FD operators applied in either order; flat
    # variables 0..2 are x, 3..5 are y
    at = TangentSample((0.1, -0.3, 0.2), (0.4, 0.8, -0.45))
    flat = list(at.x + at.y)

    def partial(fvars):
        return _scalar_fd(klein3.model.F, flat, fvars, fd_step(2))

    assert partial([0, 4]) == pytest.approx(partial([4, 0]), abs=1e-10)
    assert partial([4, 5]) == pytest.approx(partial([5, 4]), abs=1e-5)


def test_ad_mixed_partials_symmetric(gb3):
    at = TangentSample((0.15, 0.1, -0.2), (0.3, -0.9, 0.5))
    jet = eval_jet(gb3.model.F, at, JetOrder(1, 3))
    # canonical storage: permuted variable orders hit the same entry
    assert jet.pvars((0,), (1, 2)) == jet.pvars((0,), (2, 1))
    # and a separately-computed transposed jet agrees to rounding
    g = lambda x, y: gb3.model.F(x, y)
    j2 = eval_jet(g, at, JetOrder(1, 3))
    assert jet.pvars((0,), (1, 1, 2)) == pytest.approx(
        j2.pvars((0,), (2, 1, 1)), rel=1e-12)


try:
    from hypothesis import given, settings, strategies as st

    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=6,
                    max_size=6),
           st.lists(st.floats(min_value=-1.0, max_value=1.0).filter(
               lambda v: abs(v) > 1e-3), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_euler_identity_random_quadratics(coeffs, y):
        # y . dE/dy = 2 E holds exactly for fiberwise quadratic energies
        c = coeffs

        def E(x, yv):
            return (c[0] * yv[0] * yv[0] + c[1] * yv[1] * yv[1]
                    + c[2] * yv[2] * yv[2] + c[3] * yv[0] * yv[1]
                    + c[4] * yv[1] * yv[2] + c[5] * yv[0] * yv[2])

        at = TangentSample((0.0, 0.0, 0.0), tuple(y))
        jet = eval_jet(E, at, JetOrder(0, 1))
        lhs = sum(at.y[i] * jet.pvars((), (i,)) for i in range(3))
        assert lhs == pytest.approx(2.0 * jet.value, rel=1e-12, abs=1e-12)
except ImportError:
    pass


def test_euler_identity_catalogue(samples10):
    for name in catalogue.names():
        model = catalogue.entry(name, n=3).model
        for at in samples10[:3]:
            jet = eval_jet(model.energy, at, JetOrder(0, 1))
            lhs = sum(at.y[i] * jet.pvars((), (i,)) for i in range(3))
            assert abs(lhs - 2.0 * jet.value) <= 1e-10 * (1.0 + abs(jet.value))


def test_homogeneity_check_norm():
    at = TangentSample((0.2, 0.1, 0.0), (0.3, -0.7, 0.64))
    assert homogeneity_check(norm_y, at, 1) <= 1e-15


def test_homogeneity_check_funk_spray(funk3):
    a = funk3.params["a"]
    at = TangentSample((0.1, 0.2, -0.1), (0.5, 0.5, -0.7))

    def g0(x, y):
        return -scalars.dot(a, y) / (1.0 + scalars.dot(a, x)) * y[0]

    assert homogeneity_check(g0, at, 2) <= 1e-12


def test_homogeneity_check_one_form():
    b = (0.3, -0.2, 0.9)
    at = TangentSample((0.1, 0.0, 0.0), (1.0, 2.0, -0.5))
    beta = lambda x, y: scalars.dot(b, y)
    assert homogeneity_check(beta, at, 1) <= 1e-15


def test_nested_jets_match_direct():
    # fiber derivative of (dE/dy0) computed through a nested jet equals the
    # direct second partial
    def E(x, y):
        return 0.5 * (scalars.dot(y, y) + scalars.dot(x, y) ** 2)

    def dE0(x, y):
        return jet_of(E, (x, y), (0, 1)).pvars((), (0,))

    at = TangentSample((0.4, -0.1), (1.0, 0.7))
    outer = eval_jet(dE0, at, JetOrder(0, 2))
    direct = eval_jet(E, at, JetOrder(0, 3))
    for i in range(2):
        assert outer.pvars((), (i,)) == pytest.approx(
            direct.pvars((), (0, i)), rel=1e-13)
        for j in range(2):
            assert outer.pvars((), (i, j)) == pytest.approx(
                direct.pvars((), (0, i, j)), rel=1e-13)


def _composite_fn(a, b):
    return (scalars.exp(a[0] * b[0]) * scalars.sin(b[1])
            + a[1] * b[0] ** 3 / (1.0 + b[1] * b[1]))


def _inner_point(t):
    # Taylor-valued inputs as functions of the outer variables t
    if len(t) == 1:
        return (0.7 + t[0] + 0.3 * t[0] * t[0], -0.2 + 2.0 * t[0])
    return (0.7 + t[0] - 0.5 * t[1] * t[2], -0.2 + t[2] + t[1] * t[2] ** 2)


@pytest.mark.parametrize("outer_blocks", [((1, 3),), ((2, 1), (1, 2))],
                         ids=["one-block", "two-block"])
def test_composed_jet_matches_direct_composite(outer_blocks):
    # a float group a and a Taylor-valued group b = b(t): every entry
    # d^beta fn(a, b(t)) of the composed jet is the series in t that the
    # direct jet of (a, c, t) -> fn(a, b(t) + c) holds at c = 0
    alg = taylor.algebra(outer_blocks)
    t = [alg.variable(bi, vi, 0.0)
         for bi, (n, _) in enumerate(outer_blocks) for vi in range(n)]
    a = (0.4, -0.3)
    jet = jet_of(_composite_fn, (a, _inner_point(t)), (1, 2))
    assert jet.table.dtype == float

    def composite(ag, cg, *tgs):
        tt = [v for tg in tgs for v in tg]
        return _composite_fn(ag, tuple(
            b + c for b, c in zip(_inner_point(tt), cg)))

    ref = jet_of(composite, (a, (0.0, 0.0)) + tuple(
        (0.0,) * n for n, _ in outer_blocks),
        (1, 2) + tuple(c for _, c in outer_blocks))
    for ea in jet.monos[0]:
        for eb in jet.monos[1]:
            entry = jet.partial(ea, eb)
            assert entry.alg is alg
            for outer in product(*alg.monos):
                w = math.prod(math.factorial(e) for m in outer for e in m)
                assert w * coefficient(entry, outer) == pytest.approx(
                    ref.partial(ea, eb, *outer), rel=1e-12, abs=1e-12)


# jets the pipeline takes at Taylor-valued inputs: the profile's (1, 2) jet
# in (r, s), the P/Q pair's (0, 1) jet and the radial factor's (1,) jet
PIPELINE_JETS = {
    "profile": ((1, 2), lambda rg, sg: (
        scalars.exp(0.3 * rg[0]) * scalars.sqrt(1.0 + sg[0] * sg[0])
        + rg[0] * sg[0],)),
    "pq": ((0, 1), lambda rg, sg: (rg[0] * sg[0] / 10.0,
                                   0.5 / (rg[0] * rg[0]) - sg[0] * rg[0])),
    "factor": ((1,), lambda rg: (scalars.exp(rg[0]) + rg[0] * rg[0],)),
}


@pytest.mark.parametrize("outer_blocks", [((3, 1), (3, 2)), ((2, 1), (2, 2)),
                                          ((3, 0), (3, 3))])
@pytest.mark.parametrize("name", PIPELINE_JETS)
def test_one_row_jet_equals_its_row_of_a_batch_bit_for_bit(outer_blocks,
                                                            name):
    # the composed jets' stacked matmul gives row r of a 20-row batch, bit
    # for bit, as it gives the one-row batch of row r
    caps, fn = PIPELINE_JETS[name]
    alg = taylor.algebra(outer_blocks)
    n = outer_blocks[0][0]
    rng = np.random.default_rng(len(caps) * 10 + n)
    xs = rng.uniform(0.1, 0.5, (n, 20))
    ys = rng.uniform(-1.0, 1.0, (n, 20))
    x = [alg.variable(0, i, v) for i, v in enumerate(xs)]
    y = [alg.variable(1, i, v) for i, v in enumerate(ys)]
    r = scalars.sqrt(scalars.norm_sq(x))
    s = scalars.dot(x, y) / scalars.sqrt(scalars.norm_sq(y))
    inputs = ((r,), (s,))[:len(caps)]
    batch = jet_of_many(fn, inputs, caps)
    for row in range(20):
        one = jet_of_many(fn, [[taylor.TRows(alg, v.c[:, row:row + 1].copy())
                                for v in g] for g in inputs], caps)
        for jb, j1 in zip(batch, one):
            assert j1.table.shape == jb.table.shape[:-1] + (1,)
            assert jb.table[..., row].tobytes() == j1.table[..., 0].tobytes()


def test_non_finite_outside_domain(klein3):
    at = TangentSample((1.2, 0.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(NonFiniteValue):
        eval_jet(klein3.model.F, at, JetOrder(0, 1))


def test_jet_of_generic_groups():
    # phi(r, s) = r^2 * sin(s): mixed (1, 2) partial is 2r * (-sin s)... etc.
    phi = lambda r, s: r * r * scalars.sin(s)
    jet = jet_of(lambda rg, sg: phi(rg[0], sg[0]), ((0.7,), (0.3,)), (1, 3))
    assert jet.partial((1,), (1,)) == pytest.approx(2 * 0.7 * math.cos(0.3))
    assert jet.partial((0,), (3,)) == pytest.approx(-0.7 ** 2 * math.cos(0.3))


def test_jet_of_many_shares_seeding():
    fn = lambda x, y: (x[0] * y[0], x[0] + y[1])
    jets = jet_of_many(fn, ((0.5, 1.0), (2.0, 3.0)), (1, 1))
    assert jets[0].pvars((0,), (0,)) == pytest.approx(1.0)
    assert jets[1].pvars((0,), ()) == pytest.approx(1.0)
    assert jets[1].pvars((), (1,)) == pytest.approx(1.0)


def _field2(x, y):
    return (scalars.sqrt(1.0 + scalars.dot(y, y)) * x[0],
            scalars.sin(x[1] * y[0]) + y[1] * y[1] * y[1])


def _field3(x, y):
    r = scalars.dot(x, x)
    return (scalars.exp(r) * y[0] * y[1],
            scalars.sqrt(scalars.dot(y, y)) / (2.0 + x[0]),
            scalars.cos(y[0] - x[1]) * y[1])


@pytest.mark.parametrize("fn", [_field2, _field3], ids=["2comp", "3comp"])
@pytest.mark.parametrize("caps", [(1, 2), (0, 3)])
def test_fd_vector_jets_equal_per_component_jets(fn, caps):
    # one vector evaluation per stencil point gives exactly the numbers of
    # differentiating each component on its own
    groups = ((0.3, -0.2), (0.8, 0.5))
    jets = jet_of_many(fn, groups, caps, scheme="fd")
    assert len(jets) == len(fn(*groups))
    for i, got in enumerate(jets):
        ref = jet_of(lambda *g, i=i: fn(*g)[i], groups, caps, scheme="fd")
        assert got.table.shape == ref.table.shape
        assert np.array_equal(got.table, ref.table)


def _scalar_fd(fn, z, fvars, h0):
    # float-only nested Richardson differences of fn(x, y), x the first
    # half of z and y the second, one call of fn per stencil point visited
    if not fvars:
        n = len(z) // 2
        return float(fn(tuple(z[:n]), tuple(z[n:])))
    v, rest = fvars[-1], fvars[:-1]
    h = h0 * (1.0 + abs(z[v]))

    def at(dz):
        zz = list(z)
        zz[v] += dz
        return _scalar_fd(fn, zz, rest, h0)

    d_h = (at(h) - at(-h)) / (2.0 * h)
    d_h2 = (at(h / 2.0) - at(-h / 2.0)) / h
    return (4.0 * d_h2 - d_h) / 3.0


# (x, y) variable lists of every partial of a jet at caps (1, 2), n = 2
PARTIALS_1_2 = [(xv, yv) for xv in [(), (0,), (1,)]
                for yv in [(), (0,), (1,), (0, 0), (0, 1), (1, 1)]]
POINT = [0.3, -0.2, 0.8, 0.5]


def test_fd_vector_jets_match_scalar_reference():
    # the array walk, over all partials of one depth at once, does the same
    # float operations as a plain per-component, per-partial recursion
    for n, caps in product((2, 3), ((1, 2), (0, 3))):
        x, y = (0.3, -0.2, 0.45)[:n], (0.8, 0.5, -0.6)[:n]
        jets = jet_of_many(_field3, (x, y), caps, scheme="fd")
        for mx, my in product(*jets[0].monos):
            fvars = [v for v, e in enumerate(mx) for _ in range(e)] + [
                n + v for v, e in enumerate(my) for _ in range(e)]
            for i, jet in enumerate(jets):
                ref = _scalar_fd(lambda x, y, i=i: _field3(x, y)[i],
                                 list(x + y), fvars, fd_step(3))
                assert jet.partial(mx, my) == ref, (n, caps, mx, my, i)


def test_fd_vector_jet_evaluates_each_stencil_point_once():
    calls = []

    def counted(x, y):
        calls.append(x + y)
        return _field3(x, y)

    jet_of_many(counted, (POINT[:2], POINT[2:]), (1, 2), scheme="fd")
    assert len(calls) == len(set(calls))
    # the distinct points are those the single partials of the jet visit
    visited = []

    def recorded(x, y):
        visited.append(x + y)
        return 0.0

    for xv, yv in PARTIALS_1_2:
        _scalar_fd(recorded, POINT, list(xv) + [2 + v for v in yv],
                   fd_step(3))
    assert set(calls) == set(visited)
    assert len(visited) > len(calls)


def test_homogeneity_check_vector_residuals(funk3):
    a = funk3.params["a"]
    at = TangentSample((0.1, 0.2, -0.1), (0.5, 0.5, -0.7))

    def g(x, y):
        lin = scalars.dot(a, y) / (1.0 + scalars.dot(a, x))
        return (-lin * y[0], lin * y[1], y[2])

    res = homogeneity_check(g, at, 2)
    assert res == [homogeneity_check(lambda x, y, i=i: g(x, y)[i], at, 2)
                   for i in range(3)]
    assert max(res[:2]) <= 1e-12 and res[2] > 0.1


@pytest.mark.parametrize("scheme,caps", [("ad", (2, 3)), ("fd", (1, 2))])
def test_dense_read_equals_pvars(scheme, caps):
    # every (x-order, y-order) slot of an AD and an FD jet, entry by entry
    model = catalogue.entry("klein", n=3).model
    at = TangentSample((0.1, -0.2, 0.3), (0.6, 0.7, -0.3))
    jet = eval_jet(model.F, at, JetOrder(*caps), scheme=scheme)
    for ox, oy in product(range(caps[0] + 1), range(caps[1] + 1)):
        dense = jet.dense(ox, oy)
        assert dense.shape == (3,) * (ox + oy)
        for idx in np.ndindex(dense.shape):
            assert dense[idx] == jet.pvars(idx[:ox], idx[ox:]), (ox, oy, idx)


def test_dense_read_keeps_the_series_axis():
    # a jet taken at Taylor-valued inputs has series entries; the dense
    # read keeps their coefficients and rows as trailing axes
    alg = taylor.algebra(((1, 2),))
    r = alg.variable(0, 0, 0.5)
    jet = jet_of(lambda g: g[0] ** 3 + g[0] * g[1], ((r, 0.2),), (2,))
    for k in range(3):
        dense = jet.dense(k)
        assert dense.shape == (2,) * k + (alg.size, 1)
        for idx in np.ndindex((2,) * k):
            assert np.array_equal(dense[idx], jet.pvars(idx).c)


def test_a_jet_read_outside_its_stair_raises():
    # a staircase energy jet keeps (0, <= 5), (1, <= 4), (2, <= 2); a read
    # beyond raises instead of returning a partial that was never computed
    at = TangentSample((0.1, -0.2), (0.6, 0.8))
    f = lambda x, y: scalars.norm_sq(y) * (1.0 + x[0] * y[1])
    jet = jet_of(f, (at.x, at.y), (2, 5), stair=(5, 4, 2))
    box = jet_of(f, (at.x, at.y), (2, 5))
    assert jet.stair == (5, 4, 2)
    for kx, cap in enumerate(jet.stair):
        for ky in range(cap + 1):
            assert np.array_equal(jet.dense(kx, ky), box.dense(kx, ky))
    for orders in ((2, 3), (1, 5)):
        with pytest.raises(KeyError):
            jet.dense(*orders)
    with pytest.raises(KeyError):
        jet.partial((1, 1), (0, 3))
    with pytest.raises(KeyError):
        jet.pvars((0, 1), (0, 0, 1))
    assert jet.pvars((0, 1), (0, 1)) == box.pvars((0, 1), (0, 1))
    with pytest.raises(ValueError):
        jet_of(f, (at.x, at.y), (2, 5), scheme="fd", stair=(5, 4, 2))


def _rows_of(fn, seen=None):
    # a rows evaluation of fn that records the batches it is given
    def rows(xs, ys):
        if seen is not None:
            seen.append(np.hstack([xs, ys]))
        return np.array([fn(tuple(x), tuple(y))
                         for x, y in zip(xs.tolist(), ys.tolist())])
    return rows


def test_fd_rows_take_the_stencil_in_first_visit_order_and_bounded_batches():
    visited, batches = [], []

    def counted(x, y):
        visited.append(x + y)
        return _field3(x, y)

    groups = (POINT[:2], POINT[2:])
    ref = jet_of_many(counted, groups, (1, 3), scheme="fd")
    got = jet_of_many(_field3, groups, (1, 3), scheme="fd",
                      rows=_rows_of(_field3, batches))
    for g, r in zip(got, ref):
        assert np.array_equal(g.table, r.table)
    assert np.vstack(batches).tolist() == [list(z) for z in visited]
    assert len(batches) == -(-len(visited) // STENCIL_BATCH) > 1
    assert all(len(b) <= STENCIL_BATCH for b in batches)


def test_fd_rows_error_names_the_first_failing_point():
    def fragile(x, y):
        if x[0] > 0.3:
            raise NonFiniteValue(f"x0 = {x[0]!r} too large")
        return _field3(x, y)

    def rows(xs, ys):
        if (xs[:, 0] > 0.3).any():
            raise NonFiniteValue("a batch failed")
        return _rows_of(_field3)(xs, ys)

    with pytest.raises(NonFiniteValue) as err:
        jet_of_many(fragile, (POINT[:2], POINT[2:]), (1, 2), scheme="fd",
                    rows=rows)
    visited = []

    def first_visit(x, y):
        visited.append((x, y))
        return _field3(x, y)

    jet_of_many(first_visit, (POINT[:2], POINT[2:]), (1, 2), scheme="fd")
    x, y = next((x, y) for x, y in visited if x[0] > 0.3)
    assert str(err.value) == (f"x0 = {x[0]!r} too large at the FD stencil "
                              f"point {(x, y)}")
