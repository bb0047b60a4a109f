"""Taylor-arithmetic core: checked against a naive dict-based polynomial
oracle and against finite differences."""

import math
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from finslercheck.errors import NonFiniteValue
from finslercheck import taylor
from finslercheck.taylor import TNum, TRows, _backend, algebra, backend_name
from finslercheck.calculus import series_jet


# -- independent oracle: sparse truncated polynomial multiplication ----------

def poly_mul(pa, pb, blocks):
    """Multiply exponent->coeff dicts, truncating per-block total degree."""
    out = {}
    for ma, ca in pa.items():
        for mb, cb in pb.items():
            ms = tuple(tuple(x + y for x, y in zip(ba, bb))
                       for ba, bb in zip(ma, mb))
            if any(sum(m) > cap for m, (_, cap) in zip(ms, blocks)):
                continue
            out[ms] = out.get(ms, 0.0) + ca * cb
    return out


def to_dict(t):
    alg = t.alg
    out = {}
    for pos in np.ndindex(*alg.sizes):
        multi = tuple(alg.monos[b][p] for b, p in enumerate(pos))
        c = t.c[alg.flat_index(multi)]
        if c != 0.0:
            out[multi] = c
    return out


def random_tnum(alg, rng):
    from finslercheck.taylor import TNum
    return TNum(alg, rng.standard_normal(alg.size))


BLOCK_CASES = [
    (((2, 2),), None),
    (((3, 1), (3, 3)), None),
    (((2, 1), (2, 2), (1, 1), (1, 2)), None),
]


@pytest.mark.parametrize("blocks,_", BLOCK_CASES)
def test_mul_matches_naive_poly(blocks, _):
    alg = algebra(blocks)
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = random_tnum(alg, rng)
        b = random_tnum(alg, rng)
        got = to_dict(a * b)
        want = poly_mul(to_dict(a), to_dict(b), blocks)
        keys = set(got) | set(want)
        for k in keys:
            assert got.get(k, 0.0) == pytest.approx(want.get(k, 0.0),
                                                    rel=1e-13, abs=1e-13)


def test_ring_identities():
    alg = algebra(((2, 2), (2, 3)))
    rng = np.random.default_rng(3)
    a = random_tnum(alg, rng)
    b = random_tnum(alg, rng)
    c = random_tnum(alg, rng)
    lhs = (a * (b + c)).c
    rhs = (a * b + a * c).c
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    # summation order differs between a*b and b*a, so only to rounding
    np.testing.assert_allclose((a * b).c, (b * a).c, rtol=1e-13, atol=1e-13)


def test_division_and_reciprocal():
    alg = algebra(((2, 3),))
    rng = np.random.default_rng(5)
    a = random_tnum(alg, rng)
    b = random_tnum(alg, rng)
    b.c[0] = 1.7  # keep invertible
    q = a / b
    np.testing.assert_allclose((q * b).c, a.c, rtol=1e-12, atol=1e-12)
    with pytest.raises(NonFiniteValue):
        b.c = b.c.copy()
        b.c[0] = 0.0
        a / b


@pytest.mark.parametrize("fn,inverse", [
    ("sqrt", lambda t: t * t),
    ("exp", lambda t: t.log()),
    ("log", lambda t: t.exp()),
])
def test_function_inverses(fn, inverse):
    alg = algebra(((2, 2), (1, 2)))
    rng = np.random.default_rng(11)
    a = random_tnum(alg, rng)
    a.c[0] = 2.3
    out = getattr(a, fn)()
    back = inverse(out)
    np.testing.assert_allclose(back.c, a.c, rtol=1e-12, atol=1e-12)


def test_sin_cos_pythagoras():
    alg = algebra(((2, 4),))
    rng = np.random.default_rng(13)
    a = random_tnum(alg, rng)
    s, c = a.sin(), a.cos()
    one = (s * s + c * c).c
    want = np.zeros_like(one)
    want[0] = 1.0
    np.testing.assert_allclose(one, want, atol=1e-12)


def test_pow_integer_and_float_agree():
    alg = algebra(((2, 3),))
    rng = np.random.default_rng(17)
    a = random_tnum(alg, rng)
    a.c[0] = 1.9
    np.testing.assert_allclose((a ** 3).c, (a * a * a).c, rtol=1e-13)
    np.testing.assert_allclose((a ** 0.5).c, a.sqrt().c, rtol=1e-12)
    np.testing.assert_allclose((a ** -2).c, (1.0 / (a * a)).c, rtol=1e-12)


def test_univariate_series_coefficients():
    # f(t) = exp(2 + t): coefficients e^2 / k!
    alg = algebra(((1, 4),))
    t = alg.variable(0, 0, 2.0)
    e = t.exp()
    for k in range(5):
        assert e.coefficient(((k,),)) == pytest.approx(
            math.exp(2.0) / math.factorial(k), rel=1e-13)


def test_domain_errors():
    alg = algebra(((1, 2),))
    t = alg.variable(0, 0, -1.0)
    with pytest.raises(NonFiniteValue):
        t.sqrt()
    with pytest.raises(NonFiniteValue):
        t.log()
    with pytest.raises(NonFiniteValue):
        t ** 0.3


def test_backend_name_valid():
    assert backend_name() == "pure"


def _series(f, base, blocks):
    alg = algebra(blocks)
    it = iter(base)
    groups = [[alg.variable(bi, v, next(it)) for v in range(n)]
              for bi, (n, _) in enumerate(blocks)]
    return f(*groups)


def test_partial_shift_matches_analytic_partials():
    # f = exp(x0) * y0^3 * y1 + x1^2 * y1^4
    def f(x, y):
        return x[0].exp() * y[0] ** 3 * y[1] + x[1] * x[1] * y[1] ** 4

    base = (0.3, -0.7, 1.2, 0.4)
    x0, x1, y0, y1 = base
    src = _series(f, base, ((2, 2), (2, 5)))
    target = algebra(((2, 1), (2, 2)))
    # d/dx0 d/dy0: exp(x0) * 3 y0^2 y1
    t = src.partial(((1, 0), (1, 0)), target)
    assert t.alg is target
    jet = series_jet(t)
    e = math.exp(x0)
    want = {
        ((0, 0), (0, 0)): 3 * e * y0 ** 2 * y1,
        ((1, 0), (0, 0)): 3 * e * y0 ** 2 * y1,
        ((0, 0), (1, 0)): 6 * e * y0 * y1,
        ((0, 0), (0, 1)): 3 * e * y0 ** 2,
        ((1, 0), (1, 1)): 6 * e * y0,
        ((0, 0), (2, 0)): 6 * e * y1,
        ((0, 1), (0, 2)): 0.0,
    }
    for exps, value in want.items():
        assert jet.partial(*exps) == pytest.approx(value, rel=1e-13, abs=1e-13)
    # d2/dx1^2 d/dy1: 2 * 4 y1^3; its y1-derivatives 24 y1^2 and 48 y1
    jet = series_jet(src.partial(((0, 2), (0, 1)), algebra(((2, 0), (2, 2)))))
    assert jet.partial((0, 0), (0, 0)) == pytest.approx(8 * y1 ** 3, rel=1e-13)
    assert jet.partial((0, 0), (0, 1)) == pytest.approx(24 * y1 ** 2, rel=1e-13)
    assert jet.partial((0, 0), (0, 2)) == pytest.approx(48 * y1, rel=1e-13)


def test_partial_shift_matches_direct_jet_and_truncates():
    # every partial of the shifted series equals the source partial of the
    # summed order, for all orders the target caps keep
    rng = np.random.default_rng(23)
    src = random_tnum(algebra(((2, 2), (3, 4))), rng)
    full = series_jet(src)
    target = algebra(((2, 1), (3, 2)))
    d = ((1, 0), (0, 1, 1))
    shifted = series_jet(src.partial(d, target))
    assert shifted.caps == (1, 2)
    for mx in shifted.monos[0]:
        for my in shifted.monos[1]:
            want = full.partial(tuple(a + b for a, b in zip(mx, d[0])),
                                tuple(a + b for a, b in zip(my, d[1])))
            assert shifted.partial(mx, my) == pytest.approx(want, rel=1e-13)
    # the index and weight maps are built once per (partial, target)
    assert src.alg.partial_map(d, target)[0] is \
        src.alg.partial_map(d, target)[0]


@pytest.mark.parametrize("d,target", [
    (((1, 0), (0, 1, 1)), ((2, 2), (3, 2))),   # x cap 2 + 1 > 2
    (((0, 0), (0, 2, 1)), ((2, 1), (3, 2))),   # y cap 2 + 3 > 4
    (((0, 0), (0, 1)), ((2, 1), (3, 2))),      # wrong exponent length
    (((0, 0), (0, 0, 0)), ((2, 1), (2, 2))),   # wrong block shape
    (((0, 0), (0, 0, 0)), ((2, 1),)),          # wrong block count
])
def test_partial_shift_rejects_caps_it_cannot_fill(d, target):
    src = algebra(((2, 2), (3, 4))).constant(1.0)
    with pytest.raises(ValueError):
        src.partial(d, algebra(target))


# -- staircase algebras --------------------------------------------------------

STAIR_CASES = [
    # (blocks, stair, triples kept of the box's)
    (((3, 2), (3, 5)), (5, 4, 2), 2310),   # energy, (1, 3) tier
    (((3, 2), (3, 4)), (4, 3, 2), 1302),   # energy, (1, 2) tier
    (((3, 1), (3, 3)), (3, 1), 126),       # spray, (1, 3) tier
    (((2, 2), (2, 5)), (5, 4, 2), 556),    # energy, (1, 3) tier at n = 2
]


@pytest.mark.parametrize("blocks,stair,triples", STAIR_CASES)
def test_staircase_product_equals_box_product_on_kept_slots(blocks, stair,
                                                            triples):
    from finslercheck.taylor import TNum
    box, stairs = algebra(blocks), algebra(blocks, stair)
    assert len(stairs.tables()[0]) == triples
    assert stairs.size == box.size and stairs.total_cap == box.total_cap
    rng = np.random.default_rng(17)
    for _ in range(3):
        a, b = rng.standard_normal((2, box.size))
        got = (TNum(stairs, a) * TNum(stairs, b)).c
        want = (TNum(box, a) * TNum(box, b)).c
        assert np.array_equal(got[stairs.kept], want[stairs.kept])
        assert not got[~stairs.kept].any()


@pytest.mark.parametrize("stair", [(2, 4, 5), (5, 4, 2, 1), (6, 4, 2),
                                   (5, 4, -1), ()])
def test_algebra_rejects_a_stair_that_is_no_staircase(stair):
    # increasing, overlong, past the block-1 cap, negative, empty
    with pytest.raises(ValueError):
        algebra(((3, 2), (3, 5)), stair)


def test_stair_algebras_are_cached_apart_from_the_box():
    blocks = ((2, 2), (2, 5))
    assert algebra(blocks, (5, 4, 2)) is algebra(blocks, [5, 4, 2])
    assert algebra(blocks, (5, 4, 2)) is not algebra(blocks)
    assert algebra(blocks).kept is None


def test_partial_into_a_stair_writes_only_kept_slots():
    from finslercheck.taylor import TNum
    rng = np.random.default_rng(5)
    src = algebra(((2, 2), (2, 5)), (5, 4, 2))
    c = rng.standard_normal(src.size)
    c[~src.kept] = 0.0
    t = TNum(src, c)
    d = ((1, 0), (0, 1))
    box_target = algebra(((2, 1), (2, 3)))
    target = algebra(((2, 1), (2, 3)), (3, 1))
    got = t.partial(d, target).c
    want = TNum(algebra(src.blocks), c).partial(d, box_target).c
    assert np.array_equal(got[target.kept], want[target.kept])
    assert not got[~target.kept].any()
    # a box target would read coefficients the stair never computes
    with pytest.raises(ValueError):
        t.partial(d, box_target)


# -- Taylor rows: a batch equals its rows one by one, bit for bit -------------
# A batch keeps its rows in the trailing axis, ``c`` of shape (size, rows),
# so each test below builds its rows as (rows, size) and transposes them.

ROW_OPS = {
    "kernel": lambda a, b: a * b,
    "mixed": lambda a, b: (2.0 - a) * b + 1.5 / (b * b + a) - 3,
    "pow_int": lambda a, b: b ** 3,
    "pow_neg_int": lambda a, b: a ** -2,
    "pow_float": lambda a, b: a ** 1.5,
    "pow_neg_float": lambda a, b: a ** -0.3,
    "reciprocal": lambda a, b: 1.0 / a,
    "divide": lambda a, b: b / a,
    "sqrt": lambda a, b: a.sqrt(),
    "exp": lambda a, b: b.exp(),
    "log": lambda a, b: a.log(),
    "sin": lambda a, b: b.sin(),
    "cos": lambda a, b: b.cos(),
    "absolute": lambda a, b: b.absolute(),
}


@pytest.mark.parametrize("blocks", [((2, 1), (2, 2)), ((3, 1), (3, 2)),
                                    ((2, 1), (2, 3))])
def test_rows_equal_single_series_bit_for_bit(blocks):
    alg = algebra(blocks)
    rng = np.random.default_rng(7)
    rows = 33
    ca = rng.normal(size=(rows, alg.size))
    ca[:, 0] = rng.uniform(0.2, 3.0, rows)   # inside every domain
    cb = rng.normal(size=(rows, alg.size))
    cb[:, 0] = rng.uniform(-3.0, 3.0, rows)  # both signs for absolute
    for name, op in ROW_OPS.items():
        got = op(TRows(alg, ca.T.copy()), TRows(alg, cb.T.copy()))
        assert isinstance(got, TRows), name
        ref = [op(TNum(alg, ca[r].copy()), TNum(alg, cb[r].copy())).c
               for r in range(rows)]
        assert np.array_equal(got.c.T, np.array(ref)), name


def test_rows_seed_variables_like_single_series():
    alg = algebra(((2, 1), (2, 2)))
    base = np.array([0.5, -1.25, 3.0])
    rows = TRows.variable(alg, 1, 0, base)
    for r, b in enumerate(base):
        assert np.array_equal(rows.c[:, r], alg.variable(1, 0, b).c)


# analytic ops with the values of four rows: the second row fails first
ROW_DOMAIN_ERRORS = {
    "log": (lambda a: a.log(), [1.0, -0.25, 2.0, -3.0]),
    "reciprocal": (lambda a: 1.0 / a, [1.0, 0.0, 2.0, np.inf]),
    "pow_neg_float": (lambda a: a ** -0.3, [1.0, 0.0, 2.0, -3.0]),
    "exp": (lambda a: a.exp(), [1.0, 800.0, 2.0, 900.0]),
}


def test_rows_domain_error_names_the_first_failing_value():
    alg = algebra(((2, 1), (2, 2)))
    c = np.zeros((4, alg.size))
    c[:, 0] = [1.0, -0.25, 2.0, -3.0]
    rows = TRows(alg, c.T.copy())
    with pytest.raises(NonFiniteValue, match=r"sqrt of non-positive "
                       r"Taylor value -0\.25$"):
        rows.sqrt()
    with pytest.raises(NonFiniteValue, match="non-positive base -0.25"):
        rows ** 0.5
    # every other analytic op raises the first failing row's own message
    for name, (op, values) in ROW_DOMAIN_ERRORS.items():
        c[:, 0] = values
        with pytest.raises(NonFiniteValue) as single:
            op(TNum(alg, c[1].copy()))
        with pytest.raises(NonFiniteValue) as batch:
            op(TRows(alg, c.T.copy()))
        assert str(batch.value) == str(single.value), name


def test_rows_absolute_negates_a_nan_row_like_a_single_series():
    alg = algebra(((2, 1), (2, 2)))
    c = np.arange(3 * alg.size, dtype=float).reshape(3, alg.size)
    c[:, 0] = [-1.0, np.nan, 0.0]
    got = TRows(alg, c.T.copy()).absolute().c.T
    ref = [TNum(alg, row.copy()).absolute().c for row in c]
    assert np.array_equal(got, np.array(ref), equal_nan=True)


# the staircase of the (1, 3) energy jet at n = 3, the largest the
# geometry pipeline multiplies
STAIRS = {((3, 2), (3, 5)): (5, 4, 2)}


@pytest.mark.parametrize("rows", [1, 63, 64, 65])
@pytest.mark.parametrize("blocks", [((1, 0), (1, 1)), ((2, 1), (2, 2)),
                                    ((3, 2), (3, 5))])
def test_rows_multiply_equals_per_row_product(blocks, rows):
    # the cached row bins sum each row's triples as a single series does
    alg = algebra(blocks, STAIRS.get(blocks))
    ca, cb = np.random.default_rng(rows).normal(size=(2, rows, alg.size))
    got = TRows(alg, ca.T.copy()) * TRows(alg, cb.T.copy())
    ref = [(TNum(alg, a.copy()) * TNum(alg, b.copy())).c
           for a, b in zip(ca, cb)]
    assert np.array_equal(got.c.T, np.array(ref))
    assert alg.row_bins(rows) is alg.row_bins(rows)


def test_rows_partial_shifts_each_row():
    src = algebra(((2, 2), (2, 4)), (4, 3, 2))
    target = algebra(((2, 1), (2, 2)), (2, 1))
    c = np.random.default_rng(3).normal(size=(5, src.size))
    c[:, ~src.kept] = 0.0
    got = TRows(src, c.T.copy()).partial(((1, 0), (0, 1)), target)
    ref = [TNum(src, row).partial(((1, 0), (0, 1)), target).c for row in c]
    assert isinstance(got, TRows)
    assert np.array_equal(got.c.T, np.array(ref))


ANALYTIC = {"reciprocal": lambda t: 1.0 / t, "log": lambda t: t.log(),
            "sqrt": lambda t: t.sqrt(), "pow": lambda t: t ** 1.5}


@pytest.mark.parametrize("fn", ANALYTIC)
def test_an_overflowing_derivative_fails_alike_for_a_series_and_its_row(fn):
    # a power of v that overflows, or underflows to 0 under a division,
    # raises NonFiniteValue for a TNum and for each row of a TRows, where a
    # numpy float would have given inf (or 0) and a Python float raised
    # OverflowError; finite rows stay bit for bit the series
    alg = algebra(((1, 3), (1, 1)))
    f = ANALYTIC[fn]
    values = (1.0, 1e200, 1e-200)

    def seeded(vs):
        return TRows.variable(alg, 0, 0, np.array(vs))

    fails = []
    for v in values:
        try:
            single = f(alg.variable(0, 0, v))
        except NonFiniteValue as exc:
            fails.append(v)
            assert "non-finite derivative" in str(exc)
            with pytest.raises(NonFiniteValue, match="non-finite derivative"):
                f(seeded([v]))
        else:
            assert np.array_equal(f(seeded([v])).c[:, 0], single.c)
    # x**p for p > 0 only underflows at 1e200, which is finite
    assert fails == [1e-200] if fn in ("sqrt", "pow") else [1e200, 1e-200]
    with pytest.raises(NonFiniteValue, match="non-finite derivative"):
        f(seeded(values))
    finite = [v for v in values if v not in fails]
    rows = f(seeded(finite))
    for r, v in enumerate(finite):
        assert np.array_equal(rows.c[:, r], f(alg.variable(0, 0, v)).c)


def test_sin_and_cos_of_an_infinite_value_are_domain_errors():
    # math.sin raises ValueError at inf; a series and its row raise
    # NonFiniteValue instead, and a NaN value still propagates
    alg = algebra(((1, 2),))
    for v in (np.inf, -np.inf):
        for t in (alg.variable(0, 0, v), TRows.variable(alg, 0, 0,
                                                         np.array([1.0, v]))):
            for op in (t.sin, t.cos):
                with pytest.raises(NonFiniteValue, match="infinite Taylor"):
                    op()
    assert np.isnan(alg.variable(0, 0, np.nan).sin().c).all()


# -- the multiply kernel and its work area -----------------------------------
# A batch's gathers go to a per-thread work area, and the result must stay
# the plain gather-multiply-bincount bit for bit, whatever the area held.

KERNEL_ALGEBRAS = [(((2, 1), (2, 2)), None), (((3, 1), (3, 3)), None),
                   (((3, 2), (3, 5)), (5, 4, 2))]


def _operands(alg, rows, seed):
    """Two operands of ``rows`` series (1-D for None) with NaN and inf."""
    shape = (2, alg.size) if rows is None else (2, alg.size, rows)
    a, b = np.random.default_rng(seed).normal(size=shape)
    a.flat[1], a.flat[-1], b.flat[2] = np.nan, np.inf, -np.inf
    return a, b


def _multiply(alg, a, b):
    ii, jj, oo = alg.tables()
    if a.ndim > 1:
        oo = alg.row_bins(a.shape[1])
    return _backend.mul_accumulate(ii, jj, oo, a, b, alg.size)


def _reference(alg, a, b):
    ii, jj, oo = alg.tables()
    if a.ndim == 1:
        return np.bincount(oo, a[ii] * b[jj], minlength=alg.size)
    return np.bincount(alg.row_bins(a.shape[1]), (a[ii] * b[jj]).ravel(),
                       minlength=a.size).reshape(a.shape)


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(
        np.ascontiguousarray(x).view(np.uint64),
        np.ascontiguousarray(y).view(np.uint64))


@pytest.mark.parametrize("rows", [None, 1, 15, 16, 17, 64])
@pytest.mark.parametrize("blocks,stair", KERNEL_ALGEBRAS)
def test_kernel_equals_gather_multiply_bincount_bit_for_bit(blocks, stair,
                                                            rows):
    alg = algebra(blocks, stair)
    with np.errstate(all="ignore"):
        a, b = _operands(alg, rows, 1)
        first = _multiply(alg, a, b)
        kept = first.copy()
        assert _same_bits(first, _reference(alg, a, b))
        assert np.isnan(first).any() and np.isinf(first).any()
        # a later multiply, of the same shape and of others, refills the
        # area but leaves the earlier result alone
        c, d = _operands(alg, rows, 2)
        assert _same_bits(_multiply(alg, c, d), _reference(alg, c, d))
        big = algebra(*KERNEL_ALGEBRAS[-1])
        _multiply(big, *_operands(big, 64, 3))
    assert _same_bits(first, kept)


def test_a_multiply_no_larger_than_the_area_reuses_it():
    alg = algebra(*KERNEL_ALGEBRAS[-1])
    _multiply(alg, *_operands(alg, 17, 0))
    area = _backend._area.buf
    with np.errstate(all="ignore"):
        for other, rows in ((alg, 17), (alg, 16), (alg, 1),
                            (algebra(*KERNEL_ALGEBRAS[0]), 64)):
            a, b = _operands(other, rows, rows)
            assert _same_bits(_multiply(other, a, b),
                              _reference(other, a, b))
            assert _backend._area.buf is area


def test_threads_multiplying_at_once_each_get_their_own_results():
    # one shape on every thread, more threads than cores and a short switch
    # interval, so a shared area would mix their operands
    alg = algebra(*KERNEL_ALGEBRAS[-1])
    start = threading.Barrier(4)
    wrong = []

    def work(seed):
        operands = [np.random.default_rng(seed + k).normal(
            size=(2, alg.size, 16)) for k in range(4)]
        refs = [_reference(alg, a, b) for a, b in operands]
        start.wait()
        for _ in range(25):
            for (a, b), ref in zip(operands, refs):
                if not _same_bits(_multiply(alg, a, b), ref):
                    wrong.append(seed)

    threads = [threading.Thread(target=work, args=(s,))
               for s in (0, 100, 200, 300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.skipif(resource is None or sys.platform != "linux",
                    reason="minor page faults are counted on Linux")
def test_batched_multiplies_fault_in_no_fresh_pages():
    # fresh (triples, rows) gathers of the (1, 3) energy jet lie above
    # glibc's mmap threshold, so each call faulted in about 113 pages.  A
    # fresh interpreter measures it: glibc raises that threshold once a
    # larger mapped block is freed, as the test session's imports may have
    # done, and the faults would then hide
    src = str(Path(taylor.__file__).resolve().parents[2])
    code = """if True:
        import resource, sys
        sys.path.insert(0, sys.argv[1])
        import numpy as np
        from finslercheck.taylor import TRows, algebra
        alg = algebra(((3, 2), (3, 5)), (5, 4, 2))
        ca, cb = np.random.default_rng(0).normal(size=(2, alg.size, 16))
        x, y = TRows(alg, ca), TRows(alg, cb)
        x * y
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            x * y
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 50
