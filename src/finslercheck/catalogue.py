"""Built-in metrics with closed-form companions used as oracles.

Entries:

* ``euclidean``       flat |y|; every tensor vanishes.
* ``klein``           Beltrami-Klein metric on the unit ball, the canonical
                      constant-curvature (K = -1) Riemannian test bed.
* ``funk_parallel``   a projectively flat Funk-type metric with zero flag
                      curvature that carries an explicit family of parallel
                      1-forms (parameters a, c, c_mu).
* ``berwald_classic`` Berwald's classic projectively flat metric with zero
                      flag curvature.
* ``general_berwald`` the one-parameter (vector a) generalisation of the
                      classic metric; all members share the projective
                      factor P = (sqrt(|y|^2 - |x|^2|y|^2 + <x,y>^2)
                      + <x,y>)/(1 - |x|^2) and a closed-form Berwald
                      curvature that does not depend on a.

An entry may carry a closed-form spray and Berwald curvature, which
``invariants`` holds against the AD pipeline (its ``closed_form_spray`` and
``closed_form_berwald_curvature`` records), and a parallel family of
1-forms; lowered indices inside them use the Euclidean convention.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import scalars
from .errors import BadParameter, NonFiniteValue
from .forms import OneForm
from .geometry import Domain, MetricModel

__all__ = ["CatalogueEntry", "entry", "names", "berwald_classic_phi"]


@dataclass(eq=False)
class CatalogueEntry:
    name: str
    model: MetricModel
    params: dict = field(default_factory=dict)
    spray_cf: object = None            # closed-form G^i(x, y)
    berwald_curvature_cf: object = None
    parallel_family: object = None     # (c, c_mu) -> OneForm


def _dot(u, v):
    return scalars.dot(u, v)


def _nsq(u):
    return scalars.dot(u, u)


# -- Finsler functions (generic over scalar type) ----------------------------

def _euclidean_F(x, y):
    return scalars.sqrt(_nsq(y))


def _klein_F(x, y):
    A = 1.0 - _nsq(x)
    B = _nsq(y) * A + _dot(x, y) ** 2
    return scalars.sqrt(B) / A


def _klein_spray(x, y):
    p = _dot(x, y) / (1.0 - _nsq(x))
    return tuple(p * yi for yi in y)


def _funk_parallel_F(a):
    # Riemannian, flat, with Levi-Civita connection q_i d^h_j + q_j d^h_i,
    # q = -a/(1 + <a,x>); the explicit parallel family below is exact for it.
    amp = math.sqrt(1.0 - sum(ai * ai for ai in a))

    def F(x, y):
        p = 1.0 + _dot(a, x)
        ay = _dot(a, y)
        inner = _nsq(y) - 2.0 * ay * _dot(x, y) / p \
            - (1.0 - _nsq(x)) * ay * ay / (p * p)
        return amp / p * scalars.sqrt(inner)

    return F


def _funk_parallel_spray(a):
    def G(x, y):
        q = -_dot(a, y) / (1.0 + _dot(a, x))
        return tuple(q * yi for yi in y)
    return G


def _funk_parallel_family(a):
    a1 = a[0]

    def family(c=1.0, c_mu=None):
        if a1 == 0.0:
            raise BadParameter(
                "the parallel family of funk_parallel divides by a_1; "
                "a_1 = 0 is not allowed")
        n = len(a)
        cm = tuple(float(v) for v in (c_mu if c_mu is not None
                                      else (0.0,) * (n - 1)))
        if len(cm) != n - 1:
            raise BadParameter(f"c_mu must have length n-1 = {n - 1}")

        def b(x):
            p = 1.0 + _dot(a, x)
            b1 = (c + _dot(cm, x[1:])) / p ** 2
            rest = tuple(a[mu] * b1 / a1 - cm[mu - 1] / (a1 * p)
                         for mu in range(1, n))
            return (b1,) + rest

        return OneForm(n, b, name=f"funk_parallel_family(c={c}, c_mu={cm})")

    return family


def _shared_projective_factor(x, y):
    """P with G^i = P y^i for berwald_classic / general_berwald."""
    A = 1.0 - _nsq(x)
    c = _dot(x, y)
    w = scalars.sqrt(_nsq(y) * A + c * c)
    return (w + c) / A


def _berwald_classic_F(x, y):
    A = 1.0 - _nsq(x)
    c = _dot(x, y)
    w = scalars.sqrt(_nsq(y) * A + c * c)
    return (w + c) ** 2 / (A * A * w)


def _general_berwald_F(a):
    def F(x, y):
        A = 1.0 - _nsq(x)
        c = _dot(x, y)
        ay = _dot(a, y)
        w = scalars.sqrt(_nsq(y) * A + c * c)
        head = 1.0 + _dot(a, x) + (ay - _nsq(x) * ay) / (w + c)
        return head * (w + c) ** 2 / (A * A * w)
    return F


def _projective_spray(x, y):
    p = _shared_projective_factor(x, y)
    return tuple(p * yi for yi in y)


def berwald_classic_phi(r, s):
    """The (r, s)-profile of berwald_classic: F = |y| * phi(|x|, <x,y>/|y|)."""
    w = scalars.sqrt(1.0 - r * r + s * s)
    return (w + s) ** 2 / ((1.0 - r * r) ** 2 * w)


# -- entry construction -------------------------------------------------------

_DEFAULT_A = {"funk_parallel": (0.5, 0.1, 0.0), "general_berwald": (0.1, 0.05, 0.0)}


def _default_a(name, n):
    base = _DEFAULT_A[name]
    return (base + (0.0,) * n)[:n]


def names():
    return ("euclidean", "klein", "funk_parallel", "berwald_classic",
            "general_berwald")


def _check_a(a, n, name):
    a = tuple(float(v) for v in a)
    if len(a) != n:
        raise BadParameter(f"{name}: parameter a must have length n = {n}")
    if sum(v * v for v in a) >= 1.0:
        raise BadParameter(f"{name}: |a| must be < 1, got {math.sqrt(sum(v*v for v in a)):g}")
    return a


def entry(name, n=3, a=None, **extra):
    """Build a catalogue entry by name; BadParameter on invalid params."""
    if extra:
        raise BadParameter(f"unknown parameters {sorted(extra)} for {name!r}")
    if n < 2:
        raise BadParameter("catalogue metrics need dimension n >= 2")
    if a is not None and name not in ("funk_parallel", "general_berwald"):
        raise BadParameter(f"{name!r} takes no parameter vector a")
    if name == "euclidean":
        model = MetricModel(n, _euclidean_F, Domain(None), name=name)
        return CatalogueEntry(name, model,
                              spray_cf=lambda x, y: (0.0,) * n)
    if name == "klein":
        model = MetricModel(n, _klein_F, Domain(1.0), name=name)
        return CatalogueEntry(name, model, spray_cf=_klein_spray)
    if name == "funk_parallel":
        a = _check_a(a if a is not None else _default_a(name, n), n, name)
        model = MetricModel(n, _funk_parallel_F(a), Domain(1.0), name=name)
        return CatalogueEntry(
            name, model, params={"a": a},
            spray_cf=_funk_parallel_spray(a),
            berwald_curvature_cf=lambda x, y: np.zeros((n,) * 4),
            parallel_family=_funk_parallel_family(a))
    if name == "berwald_classic":
        model = MetricModel(n, _berwald_classic_F, Domain(1.0), name=name)
        return CatalogueEntry(
            name, model, spray_cf=_projective_spray,
            berwald_curvature_cf=_eq_berwald_curvature)
    if name == "general_berwald":
        a = _check_a(a if a is not None else _default_a(name, n), n, name)
        model = MetricModel(n, _general_berwald_F(a), Domain(1.0), name=name)
        return CatalogueEntry(
            name, model, params={"a": a}, spray_cf=_projective_spray,
            berwald_curvature_cf=_eq_berwald_curvature)
    raise BadParameter(f"unknown catalogue metric {name!r}; "
                       f"choose from {names()}")


# -- closed-form Berwald curvature of the projectively flat family -----------
#
# Lowered x_i, y_i below are Euclidean (x_i = x^i, y_i = y^i).


def _sym_vd(v, d):
    # v_i d_jk + v_j d_ki + v_k d_ij
    return (np.einsum("i,jk->ijk", v, d) + np.einsum("j,ik->ijk", v, d)
            + np.einsum("k,ij->ijk", v, d))


def _sym_aab(aa, bb):
    # aa_i aa_j bb_k + aa_j aa_k bb_i + aa_k aa_i bb_j
    return (np.einsum("i,j,k->ijk", aa, aa, bb)
            + np.einsum("i,j,k->ijk", bb, aa, aa)
            + np.einsum("i,j,k->ijk", aa, bb, aa))


def _sym_Md(M, d):
    # M_ij d^h_k + M_jk d^h_i + M_ki d^h_j  (as [h,i,j,k])
    return (np.einsum("ij,hk->hijk", M, d) + np.einsum("jk,hi->hijk", M, d)
            + np.einsum("ki,hj->hijk", M, d))


def _geom_factors(x, y):
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    A = 1.0 - float(xv @ xv)
    c = float(xv @ yv)
    B = A * float(yv @ yv) + c * c
    if A <= 0.0 or B <= 0.0:
        raise NonFiniteValue(f"sample outside the unit ball (A={A:g}, B={B:g})")
    L = math.sqrt(B) / A
    return xv, yv, A, c, L


def _eq_berwald_curvature(x, y):
    xv, yv, A, c, L = _geom_factors(x, y)
    n = len(xv)
    d = np.eye(n)
    G = (1.0 / (L * A)) * _sym_Md(d, d)
    G -= (1.0 / (L ** 3 * A ** 2)) * np.einsum("ijk,h->hijk", _sym_vd(yv, d), yv)
    G -= (1.0 / (L ** 3 * A ** 2)) * _sym_Md(np.outer(yv, yv), d)
    G -= (c / (L ** 3 * A ** 3)) * np.einsum("ijk,h->hijk", _sym_vd(xv, d), yv)
    G += (-c * c / (L ** 3 * A ** 4) + 1.0 / (L * A ** 2)) * _sym_Md(np.outer(xv, xv), d)
    G -= (c / (L ** 3 * A ** 3)) * _sym_Md(np.outer(xv, yv) + np.outer(yv, xv), d)
    G += ((-3.0 * c / (L ** 3 * A ** 4) + 3.0 * c ** 3 / (L ** 5 * A ** 6))
          * np.einsum("i,j,k,h->hijk", xv, xv, xv, yv))
    G += (3.0 / (L ** 5 * A ** 3)) * np.einsum("i,j,k,h->hijk", yv, yv, yv, yv)
    G += (3.0 * c / (L ** 5 * A ** 4)) * np.einsum("ijk,h->hijk", _sym_aab(yv, xv), yv)
    G += ((3.0 * c * c / (L ** 5 * A ** 5) - 1.0 / (L ** 3 * A ** 3))
          * np.einsum("ijk,h->hijk", _sym_aab(xv, yv), yv))
    return G
