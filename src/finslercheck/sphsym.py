"""Spherically symmetric metrics F = u * phi(r, s).

Here u = |y|, r = |x|, s = <x,y>/|y| with Euclidean-lowered coordinates.
The geodesic spray of such a metric has the form

    G^i = u P y^i + u^2 Q x^i,

with P and Q rational in phi and its (r, s)-derivatives; this module
extracts P, Q from a profile, assembles the spray (and a spray-only
metric model) from a (P, Q) pair, evaluates the two metrizability PDEs a
profile must satisfy to be generated by given (P, Q), and implements the
parallel-form characterisation: a parallel 1-form of a spherically
symmetric metric has b_i = f(r) x_i, with Q determined by f and P while P
stays free.

All (r, s)-level derivatives (phi_r, phi_s, phi_ss, P_s, Q_s, ...) come
from the Taylor engine applied to the profile, never from grid
differencing.  The grid functions (profile and P/Q jets, ``pq_of_jet``,
the metrizability and characterised-Q residuals, the classification) run
the same code at a float point (r, s), at Taylor scalars, or at per-row
float arrays r, s, where every jet is one pipeline of Taylor rows
(:class:`finslercheck.taylor.TRows`) and each row equals that point's
result bit for bit.  A grid sweep evaluates its points in such batches
of up to ``calculus.FD_BATCH`` points, with one (1, 2) profile jet per
batch that the metrizability residuals, P, Q and the classification all
read, and one P/Q jet and one characterised-Q jet per batch.  A failing
batch is evaluated again point by point, so a grid error is the first
failing point's own and names that (r, s) (``cli._over_grid``).
"""

from dataclasses import dataclass

import numpy as np

from . import forms, sampling, scalars
from .calculus import jet_of, jet_of_many, sample_rows
from .errors import SelfCheckFailure, SingularDenominator
from .forms import OneForm
from .geometry import Domain, MetricModel, TensorValue

__all__ = [
    "SphSymProfile", "PQPair", "RadialFactor", "pq_from_profile",
    "spray_from_pq", "spray_model_from_pq", "metrizability_residuals",
    "parallel_q", "parallel_pq", "sss_residuals", "parallel_form_check",
    "classify_profile", "profile_metric", "pq_of_jet",
]

DENOMINATOR_TOL = 1e-12
RIEMANNIAN_TOL = 1e-10


@dataclass(eq=False)
class SphSymProfile:
    """phi(r, s) with derivative access through the Taylor engine."""

    phi: object
    r0: float = 1.0
    name: str = ""

    def jet(self, r, s):
        """The (1, 2) jet of phi at one point (r, s) or per row of arrays."""
        return jet_of(lambda rg, sg: self.phi(rg[0], sg[0]),
                      ((r,), (s,)), (1, 2))


@dataclass(eq=False)
class PQPair:
    """The scalar maps P(r, s), Q(r, s) as one callable ``PQ(r, s)`` that
    returns both, so a profile-derived pair takes one profile jet per
    (r, s); evaluates on floats or Taylor scalars, and with ``rows`` also
    at per-row float arrays, each row bit for bit its float value."""

    PQ: object
    source: str = ""
    rows: bool = False

    def jets(self, r, s):
        """(P, P_s, Q, Q_s) at a float point (r, s), or per row at float
        arrays r, s, from one jet of the pair."""
        pjet, qjet = jet_of_many(lambda rg, sg: self.PQ(rg[0], sg[0]),
                                 ((r,), (s,)), (0, 1))
        return (pjet.partial((0,), (0,)), pjet.partial((0,), (1,)),
                qjet.partial((0,), (0,)), qjet.partial((0,), (1,)))


@dataclass(eq=False)
class RadialFactor:
    """f(r) with its derivative; represents the covector b_i = f(r) x_i."""

    f: object
    df: object = None
    name: str = ""

    def d(self, r):
        if self.df is not None:
            return self.df(r)
        return jet_of(lambda rg: self.f(rg[0]), ((r,),), (1,)).pvars((0,))

    def one_form(self, n):
        def b(x):
            r = scalars.sqrt(scalars.norm_sq(x))
            fr = self.f(r)
            return tuple(fr * xi for xi in x)
        return OneForm(n, b, name=self.name or "f(r) x_i")


def pq_of_jet(jet, r, s):
    """(P, Q) at the point (r, s) from the profile's (1, 2) jet there;
    evaluates on floats or Taylor scalars.

    SingularDenominator is raised when the Q-denominator
    phi - s phi_s + (r^2 - s^2) phi_ss vanishes (loss of regularity of the
    metric).
    """
    phi = jet.partial((0,), (0,))
    phi_r = jet.partial((1,), (0,))
    phi_s = jet.partial((0,), (1,))
    phi_rs = jet.partial((1,), (1,))
    phi_ss = jet.partial((0,), (2,))
    den = phi - s * phi_s + (r * r - s * s) * phi_ss
    if np.any(np.abs(scalars.value(den))
              <= DENOMINATOR_TOL * (1.0 + np.abs(scalars.value(phi)))):
        raise SingularDenominator("Q-denominator vanishes")
    q = (-phi_r + s * phi_rs + r * phi_ss) / (2.0 * r * den)
    p = (-(q / phi) * (s * phi + (r * r - s * s) * phi_s)
         + (s * phi_r + r * phi_s) / (2.0 * r * phi))
    return p, q


def pq_from_profile(profile):
    """The (P, Q) pair generated by a profile, both read off one profile
    jet per (r, s)."""
    return PQPair(lambda r, s: pq_of_jet(profile.jet(r, s), r, s),
                  source=f"profile:{profile.name}", rows=True)


def _rsu(x, y):
    # over per-row float arrays numpy's sqrt rounds as math.sqrt does; a
    # float point is plain-float evaluation of F or of the (P, Q) spray,
    # where scalars.sqrt raises on a non-finite value
    sqrt = np.sqrt if isinstance(y[0], np.ndarray) else scalars.sqrt
    u = sqrt(scalars.norm_sq(y))
    r = sqrt(scalars.norm_sq(x))
    s = scalars.dot(x, y) / u
    return r, s, u


def _pq_spray(pq, x, y):
    """G^i = u P y^i + u^2 Q x^i on floats, Taylor scalars or rows (r > 0)."""
    r, s, u = _rsu(x, y)
    P, Q = pq.PQ(r, s)
    return tuple(u * P * yi + u * u * Q * xi for xi, yi in zip(x, y))


def spray_from_pq(pq, at):
    """The (P, Q) spray at a tangent sample; of a pair with ``rows``, as
    rows in a per-sample loop (:func:`calculus.sample_rows`)."""
    if not pq.rows:
        return TensorValue(np.array([scalars.value(c) for c in _pq_spray(
            pq, at.x, at.y)]))
    G, = sample_rows(at, (pq, "spray"), lambda xs, ys: [
        np.array(_pq_spray(pq, xs, ys))])
    return TensorValue(G)


def spray_model_from_pq(pq, n, domain=None, name=""):
    """Spray-only metric model whose coefficients come from (P, Q); feeds
    the geometry pipeline (connection, curvature, delta derivatives)."""
    return MetricModel(n, None, domain or Domain(1.0),
                       spray_override=lambda x, y: _pq_spray(pq, x, y),
                       name=name or f"pq_spray[{pq.source}]")


def profile_metric(profile, n, name=""):
    """Full metric model F = u * phi(r, s) built from a profile."""
    def F(x, y):
        r, s, u = _rsu(x, y)
        return u * profile.phi(r, s)
    return MetricModel(n, F, Domain(profile.r0), name=name or profile.name)


def metrizability_residuals(jet, pq, rs):
    """Residuals of the two PDEs the profile with the jet ``jet`` at ``rs``
    must satisfy to be generated by the given (P, Q); r = 0 is excluded
    (the second PDE divides by r)."""
    r, s = rs
    if np.any(np.equal(r, 0.0)):
        raise SingularDenominator("metrizability residuals need r > 0")
    phi = jet.partial((0,), (0,))
    phi_r = jet.partial((1,), (0,))
    phi_s = jet.partial((0,), (1,))
    P, P_s, Q, Q_s = pq.jets(r, s)
    w = r * r - s * s
    res1 = abs((1.0 + s * P - w * (2.0 * Q - s * Q_s)) * phi_s
               + (s * P_s - 2.0 * P - s * (2.0 * Q - s * Q_s)) * phi)
    res2 = abs(phi_r / r - (P + Q_s * w) * phi_s - (P_s + s * Q_s) * phi)
    return res1, res2


def parallel_q(factor, P, rs):
    """The Q characterised by a parallel form b_i = f(r) x_i and a free P:
    Q = s^2 f'/(2 r^3 f) - s P / r^2 + 1/(2 r^2)."""
    r, s = rs
    f = factor.f(r)
    if np.any(np.equal(scalars.value(r), 0.0)
              | np.equal(scalars.value(f), 0.0)):
        raise SingularDenominator("parallel_q needs r > 0 and f(r) != 0")
    Pv = P(r, s) if callable(P) else P
    return (s * s * factor.d(r) / (2.0 * r ** 3 * f)
            - s * Pv / (r * r) + 1.0 / (2.0 * r * r))


def parallel_pq(factor, P):
    """PQPair with the characterised Q (P arbitrary)."""
    def PQ(r, s):
        Pv = P(r, s) if callable(P) else P
        return Pv, parallel_q(factor, Pv, (r, s))
    return PQPair(PQ, source="parallel_q")


def sss_residuals(factor, pq, rs):
    """The three scalar conditions equivalent to delta_i beta = 0 for
    beta = f(r) <x, y> and the (P, Q) spray: the x-coefficient, the
    y-coefficient, and their s-weighted combination.  Over rows, f and a
    closed-form f' are evaluated once per distinct r, and a jet f' is taken
    on the rows."""
    r, s = rs
    fv = _per_r(factor.f, r)
    dfv = factor.d(r) if factor.df is None else _per_r(factor.df, r)
    Pv, P_s, Qv, Q_s = pq.jets(r, s)
    r2 = r * r
    res1 = s * dfv / r - s * fv * P_s - fv * Pv - fv * r2 * Q_s
    res2 = (fv - fv * s * Pv + fv * s * s * P_s - 2.0 * fv * r2 * Qv
            + fv * s * r2 * Q_s)
    res3 = s * s * dfv / r + fv - 2.0 * fv * s * Pv - 2.0 * fv * r2 * Qv
    return res1, res2, res3


def _per_r(fn, r):
    """fn at each entry of the array r (or at the float r), evaluated once
    per distinct value (fn returns floats)."""
    distinct, where = np.unique(r, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()])[where]


def _delta_beta_expansion(factor, pq, xs, ys):
    """delta_i beta written out in its x_i / y_i coefficient form at each
    row of the per-row float arrays ``xs``, ``ys``, as an (n, rows) array:
    u times the x-coefficient and the y-coefficient of sss_residuals."""
    X, Y = np.array(xs), np.array(ys)
    r, s, u = _rsu(X, Y)
    res1, res2, _ = sss_residuals(factor, pq, (r, s))
    return u * res1 * X + res2 * Y


def parallel_form_check(pq, factor, samples, n=3, tol=None):
    """Full parallelness report for beta = f(r) <x, y> against the (P, Q)
    spray; the pipeline's delta_i beta, which the report keeps, must agree
    with its closed x_i/y_i-coefficient expansion."""
    model = spray_model_from_pq(pq, n)
    report = forms.is_parallel(model, factor.one_form(n), samples, tol=tol)
    deltas = iter(report.deltas)  # map_samples runs in sample order

    def expansion_gap(at):
        direct = next(deltas)
        expanded = sample_rows(at, (factor, pq, "expansion"), lambda xs, ys: [
            _delta_beta_expansion(factor, pq, xs, ys)])[0]
        gap = float(np.max(np.abs(direct - expanded)))
        scale = 1.0 + float(np.max(np.abs(direct)))
        if gap > 1e-9 * scale:
            raise SelfCheckFailure(
                f"delta beta expansion disagrees with the pipeline "
                f"(gap {gap:g})")
        return gap

    report.notes = {"expansion_gap": max(
        [0.0, *sampling.map_samples(expansion_gap, samples)])}
    return report


def classify_profile(jets, grid):
    """Detect the two special branches of the parallel-form analysis from
    the profile jets at the grid points, or at batches of them (jets of
    rows, with arrays s): phi independent of s (Riemannian, F = psi(r) u)
    and phi = c(r) s (fiberwise-linear F, degenerate metric tensor).  The
    maxima are taken point by point in grid order, as Python's ``max``
    takes them, so a NaN after the first point is passed over."""
    max_phi_s = 0.0
    max_lin = 0.0
    for jet, (_, s) in zip(jets, grid):
        phi = jet.partial((0,), (0,))
        phi_s = jet.partial((0,), (1,))
        max_phi_s = max([max_phi_s,
                         *np.ravel(abs(phi_s) / (1.0 + abs(phi))).tolist()])
        max_lin = max([max_lin, *np.ravel(abs(s * phi_s / phi - 1.0)).tolist()])
    if max_phi_s <= RIEMANNIAN_TOL:
        return "riemannian"
    if max_lin <= RIEMANNIAN_TOL:
        return "degenerate_linear"
    return "generic"
