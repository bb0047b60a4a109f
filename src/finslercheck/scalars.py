"""Generic scalar math working on plain floats and Taylor scalars alike.

Metric functions, 1-form coefficients and parsed expressions are written
against these helpers so the same code path yields values and derivatives.
"""

import math

import numpy as np

from .errors import NonFiniteValue
from .taylor import TRows


def value(z):
    """Constant (0th-order) part of a scalar; per-row arrays of floats (one
    value per Taylor row) are their own."""
    if isinstance(z, TRows):
        return z.value()
    return z if isinstance(z, np.ndarray) else float(z)


def _lift_math(fn, name):
    def wrapped(z):
        if isinstance(z, TRows):
            return getattr(z, name)()
        try:
            out = fn(z)
        except (ValueError, OverflowError) as exc:
            raise NonFiniteValue(f"{name}({z!r}): {exc}") from None
        if not math.isfinite(out):
            raise NonFiniteValue(f"{name}({z!r}) is not finite")
        return out
    wrapped.__name__ = name
    return wrapped


sqrt = _lift_math(math.sqrt, "sqrt")
exp = _lift_math(math.exp, "exp")
log = _lift_math(math.log, "log")
sin = _lift_math(math.sin, "sin")
cos = _lift_math(math.cos, "cos")


def absolute(z):
    if isinstance(z, TRows):
        return z.absolute()
    return abs(z)


def powf(z, p):
    """z**p for possibly non-integer p (floats raise NonFiniteValue
    instead of ValueError on domain violations)."""
    if isinstance(z, TRows):
        return z ** p
    try:
        out = z ** p
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise NonFiniteValue(f"pow({z!r}, {p!r}): {exc}") from None
    if isinstance(out, complex) or not math.isfinite(out):
        raise NonFiniteValue(f"pow({z!r}, {p!r}) is not finite")
    return out


def dot(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def norm_sq(u):
    return dot(u, u)
