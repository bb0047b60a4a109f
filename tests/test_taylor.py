"""Taylor-arithmetic core: checked against a naive dict-based polynomial
oracle and against finite differences."""

import math

import numpy as np
import pytest

from finslercheck.errors import NonFiniteValue
from finslercheck.taylor import algebra, backend_name
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
