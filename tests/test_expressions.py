"""Parser: grammar, precedence, round-trip, generic evaluation, fuzz."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finslercheck import expressions as ex
from finslercheck import scalars
from finslercheck.calculus import jet_of
from finslercheck.errors import ConfigError, NonFiniteValue, ParseError


CLASSIC_PROFILE_SRC = "(sqrt(1-r^2+s^2)+s)^2/((1-r^2)^2*sqrt(1-r^2+s^2))"


def test_classic_profile_expression():
    phi = ex.compile_scalar(CLASSIC_PROFILE_SRC, ("r", "s"))
    assert phi(0.0, 0.0) == pytest.approx(1.0)
    from finslercheck.catalogue import berwald_classic_phi
    for r, s in [(0.3, 0.1), (0.5, -0.2), (0.0, 0.0)]:
        assert phi(r, s) == pytest.approx(berwald_classic_phi(r, s), rel=1e-14)


def test_power_vs_product_grid():
    sq = ex.compile_scalar("r^2", ("r",))
    pr = ex.compile_scalar("r*r", ("r",))
    for r in np.linspace(-2, 2, 41):
        assert abs(sq(float(r)) - pr(float(r))) <= 1e-15 * (1 + r * r)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        ex.parse("sqrt(")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        ex.parse("1 + $")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        ex.parse("foo(2)")
    assert "sqrt" in err.value.expected
    with pytest.raises(ParseError):
        ex.parse("")
    with pytest.raises(ParseError) as err:
        ex.parse("1 2")
    assert err.value.position == 2


NESTINGS = {
    "parentheses": lambda k: "(" * k + "r" + ")" * k,
    "unary_minus": lambda k: "-" * k + "r",
    "calls": lambda k: "sqrt(" * k + "r" + ")" * k,
    "exponents": lambda k: "1^" * k + "r",
    "sum_chain": lambda k: "r" + "+s" * k,
    "product_chain": lambda k: "r" + "*s" * k,
}


@pytest.mark.parametrize("name", sorted(NESTINGS))
def test_nesting_depth_bound(name):
    # depth MAX_DEPTH parses, evaluates and prints; one level more is a
    # ParseError, raised before Python's recursion limit is reached
    nest = NESTINGS[name]
    tree = ex.parse(nest(ex.MAX_DEPTH))
    assert math.isfinite(ex.evaluate(tree, {"r": 0.5, "s": 0.25}))
    assert ex.parse(ex.to_src(tree)) == tree
    for k in (ex.MAX_DEPTH + 1, 3000):
        with pytest.raises(ParseError, match="deeper than 100 levels"):
            ex.parse(nest(k))


@pytest.mark.parametrize("src,value", [
    ("2^3^2", 512.0),            # right-associative
    ("-2^2", -4.0),              # ^ binds tighter than unary minus
    ("2^-2", 0.25),
    ("1-2-3", -4.0),             # left-associative
    ("6/3/2", 1.0),
    ("2+3*4", 14.0),
    ("(2+3)*4", 20.0),
    ("--2", 2.0),
    ("abs(-3.5)", 3.5),
    ("sqrt(2)*sqrt(2)", 2.0000000000000004),
])
def test_values(src, value):
    assert ex.evaluate(ex.parse(src), {}) == value


def _random_tree(rng, depth, names):
    choice = rng.random()
    if depth <= 0 or choice < 0.25:
        if rng.random() < 0.5:
            return ex.Num(round(rng.uniform(0.1, 3.0), 3))
        return ex.Var(rng.choice(names))
    if choice < 0.35:
        return ex.Neg(_random_tree(rng, depth - 1, names))
    if choice < 0.5:
        fn = rng.choice(sorted(ex.FUNCTIONS))
        return ex.Call(fn, _random_tree(rng, depth - 1, names))
    op = rng.choice("+-*/^")
    left = _random_tree(rng, depth - 1, names)
    right = (ex.Num(float(rng.randint(0, 3))) if op == "^"
             else _random_tree(rng, depth - 1, names))
    return ex.Bin(op, left, right)


def test_print_parse_round_trip_random():
    rng = random.Random(12345)
    for _ in range(500):
        tree = _random_tree(rng, 4, ["r", "s", "x1"])
        src = ex.to_src(tree)
        assert ex.parse(src) == tree, src


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_print_parse_round_trip_hypothesis(seed):
    rng = random.Random(seed)
    tree = _random_tree(rng, 5, ["r", "s", "x1", "x2"])
    assert ex.parse(ex.to_src(tree)) == tree


def test_fuzz_evaluation_never_crashes():
    rng = random.Random(999)
    ok, domain_errors = 0, 0
    for _ in range(10_000):
        tree = _random_tree(rng, 3, ["r", "s"])
        env = {"r": rng.uniform(-2, 2), "s": rng.uniform(-2, 2)}
        try:
            out = ex.evaluate(tree, env)
            assert math.isfinite(out)
            ok += 1
        except NonFiniteValue:
            domain_errors += 1
    assert ok > 0 and ok + domain_errors == 10_000


def test_unknown_variable_is_config_error():
    with pytest.raises(ConfigError):
        ex.evaluate(ex.parse("r + q"), {"r": 1.0})


def test_taylor_transparency():
    # derivatives of a parsed expression match AD of the same lambda
    tree = ex.parse("sin(r*s) + r^2/(1+s^2)")
    fn = lambda r, s: scalars.sin(r * s) + r * r / (1.0 + s * s)
    jet_expr = jet_of(lambda rg, sg: ex.evaluate(tree, {"r": rg[0], "s": sg[0]}),
                      ((0.7,), (0.4,)), (1, 2))
    jet_ref = jet_of(lambda rg, sg: fn(rg[0], sg[0]), ((0.7,), (0.4,)), (1, 2))
    for er in ((0,), (1,)):
        for es in ((0,), (1,), (2,)):
            assert jet_expr.partial(er, es) == pytest.approx(
                jet_ref.partial(er, es), rel=1e-12)


def test_compile_form():
    omega = ex.compile_form(["x1", "x2", "x3"], 3)
    assert omega.values((0.3, -0.2, 0.5)) == pytest.approx([0.3, -0.2, 0.5])
    jac = omega.jacobian((0.1, 0.2, 0.3))
    np.testing.assert_allclose(jac, np.eye(3), atol=1e-12)
    with pytest.raises(ConfigError):
        ex.compile_form(["x1"], 3)
