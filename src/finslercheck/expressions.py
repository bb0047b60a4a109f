"""Expression parser/printer/evaluator for user-defined profiles and forms.

Grammar: numeric literals, named variables, binary + - * / ^, unary minus,
the functions sqrt/exp/log/sin/cos/abs, and parentheses.  Precedence is
^ > unary minus > * / > + -, with ^ right-associative.  Printing re-emits
source that parses back to the identical tree.  An expression nests at most
MAX_DEPTH levels deep: each binary operator, unary minus, function call and
parenthesised group is one level above its operands, so both long operator
chains and deep nesting beyond it are parse errors.

Evaluation is generic: feed plain floats or Taylor scalars through ``env``
and derivatives of parsed expressions come for free.  NaN/inf surfaces as
NonFiniteValue; unknown variables raise ConfigError naming the context's
allowed names, at compile time for a compiled expression.
"""

import math
import re
from dataclasses import dataclass

from . import scalars
from .errors import ConfigError, NonFiniteValue, ParseError
from .taylor import TRows

__all__ = ["parse", "to_src", "evaluate", "Num", "Var", "Neg", "Bin", "Call",
           "FUNCTIONS", "MAX_DEPTH", "compile_scalar", "compile_form"]

# Fixed bound on the nesting depth, which keeps parsing, evaluation and
# printing well inside Python's recursion limit.
MAX_DEPTH = 100


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


FUNCTIONS = {
    "sqrt": scalars.sqrt,
    "exp": scalars.exp,
    "log": scalars.log,
    "sin": scalars.sin,
    "cos": scalars.cos,
    "abs": scalars.absolute,
}

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),])
""", re.VERBOSE)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos,
                             ("number", "name", "operator"))
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group()), pos))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append(("op", m.group(), pos))
        pos = m.end()
    tokens.append(("end", None, pos))
    return tokens


def _shown(kind, val):
    """A token as a parse error names it."""
    return "end of input" if kind == "end" else repr(val)


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.level = 0  # levels open above the operand being parsed

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {_shown(kind, val)}", pos,
                             (repr(op),))
        return self.next()

    def parse(self):
        expr, _ = self.sum()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos,
                             ("operator", "end of input"))
        return expr

    # Each rule returns (node, depth); a leaf has depth 0.

    def deeper(self, depth, pos):
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} "
                             "levels", pos, ("a shallower expression",))
        return depth + 1

    def nested(self, rule, pos):
        """The operand parsed by ``rule`` one level down, with the depth of
        the level above it; the open levels are bounded before recursing."""
        self.level = self.deeper(self.level, pos)
        node, depth = rule()
        self.level -= 1
        return node, self.deeper(depth, pos)

    def sum(self):
        node, depth = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                right, rdepth = self.term()
                node = Bin(val, node, right)
                depth = self.deeper(max(depth, rdepth), pos)
            else:
                return node, depth

    def term(self):
        node, depth = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                right, rdepth = self.unary()
                node = Bin(val, node, right)
                depth = self.deeper(max(depth, rdepth), pos)
            else:
                return node, depth

    def unary(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            arg, depth = self.nested(self.unary, pos)
            return Neg(arg), depth
        return self.power()

    def power(self):
        base, depth = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            exponent, edepth = self.nested(self.unary, pos)
            return (Bin("^", base, exponent),
                    max(edepth, self.deeper(depth, pos)))
        return base, depth

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return Num(val), 0
        if kind == "name":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos,
                                     tuple(sorted(FUNCTIONS)))
                self.next()
                arg, depth = self.nested(self.sum, pos)
                self.expect_op(")")
                return Call(val, arg), depth
            return Var(val), 0
        if kind == "op" and val == "(":
            node, depth = self.nested(self.sum, pos)
            self.expect_op(")")
            return node, depth
        raise ParseError(f"expected a value, got {_shown(kind, val)}", pos,
                         ("number", "name", "'('"))


def parse(src):
    """Parse source text into an expression tree (ParseError on bad input)."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0, ("expression",))
    return _Parser(src).parse()


# printing: precedence levels for minimal-but-safe parenthesisation
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node):
    if isinstance(node, (Num, Var, Call)):
        return _PREC["atom"]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC[node.op]


def _wrap(node, minimum):
    s = to_src(node)
    return f"({s})" if _prec(node) < minimum else s


def to_src(node):
    """Source text that reparses to the identical tree."""
    if isinstance(node, Num):
        v = node.value
        return repr(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_src(node.arg)})"
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, _PREC["neg"])
    p = _PREC[node.op]
    if node.op == "^":
        # right-associative; the base must be an atom
        return f"{_wrap(node.left, _PREC['atom'])} ^ {_wrap(node.right, _PREC['neg'])}"
    return f"{_wrap(node.left, p)} {node.op} {_wrap(node.right, p + 1)}"


def evaluate(node, env):
    """Evaluate over floats or Taylor scalars; NaN/inf -> NonFiniteValue."""
    out = _eval(node, env)
    if isinstance(out, TRows):
        if not out.is_finite():
            raise NonFiniteValue("expression produced non-finite derivatives")
        return out
    out = float(out)
    if not math.isfinite(out):
        raise NonFiniteValue("expression evaluated to NaN/inf")
    return out


def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise ConfigError(
                f"unknown variable {node.name!r}; available here: "
                f"{', '.join(sorted(env))}") from None
    if isinstance(node, Neg):
        return -_eval(node.arg, env)
    if isinstance(node, Call):
        return FUNCTIONS[node.fn](_eval(node.arg, env))
    a = _eval(node.left, env)
    b = _eval(node.right, env)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        if not isinstance(b, TRows) and float(b) == 0.0:
            raise NonFiniteValue("division by zero in expression")
        return a / b
    if node.op == "^":
        if isinstance(b, TRows):
            raise ConfigError("exponent must not depend on variables "
                              "carrying derivatives")
        return scalars.powf(a, float(b)) if not isinstance(a, TRows) \
            else a ** float(b)
    raise ValueError(f"unknown operator {node.op!r}")


def _compiled(src, var_names):
    """The tree of ``src``; a variable outside ``var_names`` raises the
    ConfigError of evaluation already here, the first in source order."""
    tree = parse(src) if isinstance(src, str) else src
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            _eval(node, dict.fromkeys(var_names))
        stack += [getattr(node, k) for k in ("right", "left", "arg")
                  if hasattr(node, k)]
    return tree


def compile_scalar(src, var_names):
    """Compile source into f(*values) with the given variable names."""
    tree = _compiled(src, var_names)

    def fn(*values):
        if len(values) != len(var_names):
            raise ConfigError(f"expected {len(var_names)} arguments "
                              f"({', '.join(var_names)})")
        return evaluate(tree, dict(zip(var_names, values)))

    fn.tree = tree
    return fn


def compile_form(sources, n):
    """OneForm with coefficients given as expressions in x1..xn."""
    from .forms import OneForm

    if len(sources) != n:
        raise ConfigError(f"a 1-form in dimension {n} needs {n} coefficient "
                          f"expressions, got {len(sources)}")
    var_names = [f"x{i + 1}" for i in range(n)]
    trees = [_compiled(s, var_names) for s in sources]

    def b(x):
        env = dict(zip(var_names, x))
        return tuple(evaluate(t, env) for t in trees)

    return OneForm(n, b, name="[" + ", ".join(
        to_src(t) for t in trees) + "]")
