"""1-forms beta = b_i(x) y^i and their parallelness machinery.

A form is horizontally parallel when its Berwald covariant derivative
b_{i|j} = d_j b_i - G^k_{ji} b_k vanishes; equivalently the scalar beta is
holonomy invariant (all horizontal derivatives delta_j beta vanish), subject
to the curvature compatibility R^h_{jk} b_h = 0.  Homogeneity d_C beta =
beta holds structurally because b depends on x alone.  This module
implements those operators (each takes the tensors it derives from, and
``is_parallel`` takes them once per sample) plus the Randers lift F + beta
and the functional-independence rank test used by the metrizability-freedom
argument.  The operators run on stacks of samples as the geometry ops
do, and the jets of b and beta are held as rows per batch of samples;
the homogeneity residual reads the (1, 1) jet of beta of delta_beta.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import analysis, geometry, sampling, scalars
from .calculus import (JetOrder, TangentSample, coordinates, eval_jet,
                       held, jet_of_many)
from .errors import (BadParameter, FinslerCheckError,
                     InsufficientSamples, NotPositive)
from .geometry import MetricModel, TensorValue

__all__ = [
    "OneForm", "ParallelReport", "Verdict", "covariant_derivative",
    "d_R_beta", "is_parallel", "randers_lift", "functional_independence",
]


@dataclass(eq=False)
class OneForm:
    """Coefficient field b_i(x); beta(x, y) = b_i(x) y^i.

    ``b`` must accept Taylor scalars (write it against
    :mod:`finslercheck.scalars`); ``db`` is an optional closed-form oracle
    for the Jacobian d_j b_i, computed by AD when absent.
    """

    n: int
    b: object
    db: object = None
    name: str = ""

    def __post_init__(self):  # one beta per form: a key for its held jets
        self._beta = lambda x, y: scalars.dot(self.b(x), y)

    @staticmethod
    def constant(values, name=""):
        vals = tuple(float(v) for v in values)
        return OneForm(len(vals), lambda x: vals,
                       db=lambda x: np.zeros((len(vals), len(vals))),
                       name=name or "constant")

    def beta(self):
        """The scalar field beta on the slit tangent bundle."""
        return self._beta

    def values(self, x):
        return np.array([scalars.value(v) for v in self.b(x)])

    def jacobian(self, x, at=None):
        """d_j b_i as an (i, j) matrix, from the jets of b
        :func:`calculus.held` on a sample ``at`` of base point x; without
        one, on a sample of x whose fiber vector b does not read."""
        if self.db is not None:
            return np.asarray(self.db(x), dtype=float)
        jets = held(at or TangentSample(x, (1.0,) * len(x)),
                    (self.b, 1, 0, "ad"), lambda part: jet_of_many(
                        self.b, coordinates(part)[:1], (1,)))
        return np.array([jet.dense(1) for jet in jets])


class Verdict(Enum):
    PARALLEL_WITHIN_TOL = "ParallelWithinTol"
    NOT_PARALLEL = "NotParallel"


@dataclass
class ParallelReport:
    """Aggregated parallelness residuals over a sample batch."""

    max_covariant: float
    max_delta: float
    max_curvature: float
    tolerance: float
    sample_count: int
    scheme: str
    worst: dict
    verdict: Verdict
    deltas: list  # delta_j beta per sample
    notes: dict = None


PARALLEL_TOL = {"ad": 1e-7, "fd": 1e-4}


def covariant_derivative(omega, at, C, delta, scheme="ad"):
    """Berwald horizontal covariant derivative b_{i|j} from the Berwald
    connection ``C`` taken at ``scheme``; the contraction y^i b_{i|j} =
    delta_j beta is checked against ``delta`` on every call.  The notes
    record ``max_delta``, max |delta_j beta|, and ``delta_residual``, the
    contraction's residual max |y^i b_{i|j} - delta_j beta| relative to
    1 + max_delta."""
    def stacks(part, Cs):
        db = np.array([omega.jacobian(s.x, s) for s in part])
        b = np.array([omega.values(s.x) for s in part])
        cov = db - np.einsum("skji,sk->sij", Cs, b)
        return cov, (geometry._ys(part)[:, None, :] @ cov)[:, 0]

    cov, ycov = geometry._rows(at, C.key and (
        "covariant_derivative", omega, C.key, scheme), stacks, C)
    max_delta = delta.max_abs()
    resid = float(np.max(np.abs(ycov - delta.components)))
    tol = (1e-10 if scheme == "ad" else 1e-3) * (1.0 + max_delta)
    if resid > tol:
        raise FinslerCheckError(
            f"y^i b_i|j disagrees with delta_j beta (residual {resid:g})")
    return TensorValue(cov, notes={"max_delta": max_delta,
                                   "delta_residual": resid / (1.0 + max_delta)})


def delta_beta(m, omega, at, scheme="ad"):
    """delta_j beta (horizontal derivatives of the scalar beta)."""
    return geometry.delta_derivative(m, omega.beta(), at, scheme)


def d_R_beta(omega, at, R):
    """R^h_{jk} b_h (2-form) and its y-contraction R^h_j b_h from ``R``."""
    def stacks(part, Rs):
        two_form = np.einsum("shjk,sh->sjk", Rs,
                             np.array([omega.values(s.x) for s in part]))
        return two_form, geometry._mv(two_form, geometry._ys(part))

    two_form, contracted = geometry._rows(
        at, R.key and ("d_R_beta", omega, R.key), stacks, R)
    return (TensorValue(two_form, (("antisym", (0, 1)),), dict(R.notes)),
            TensorValue(contracted, notes=dict(R.notes)))


def homogeneity_residual(omega, at):
    """|d_C beta - beta|, which vanishes structurally for x-only b; read
    off the (1, 1) jet of beta that ``delta_beta`` takes under AD."""
    def stacks(part):
        jets = [eval_jet(omega.beta(), s, JetOrder(1, 1)) for s in part]
        dy = np.array([jet.dense(0, 1) for jet in jets])
        dC = sum(y * d for y, d in zip(geometry._ys(part).T, dy.T))
        return [np.abs(dC - np.array([jet.value for jet in jets]))]

    res, = geometry._rows(at, ("homogeneity_residual", omega, "ad"), stacks)
    return float(res)


def is_parallel(m, omega, samples, tol=None, scheme="ad"):
    """Aggregate the three parallelness residuals over >= 10 samples from
    C, delta beta (kept in the report), Phi and R, each taken once per
    sample."""
    if len(samples) < 10:
        raise InsufficientSamples("is_parallel needs at least 10 samples")
    if tol is None:
        tol = PARALLEL_TOL[scheme]

    def residuals(at):
        hres = homogeneity_residual(omega, at)
        if hres > 1e-14 * (1.0 + abs(scalars.value(omega.beta()(at.x, at.y)))):
            raise FinslerCheckError(
                f"d_C beta != beta (residual {hres:g}); the form is not "
                "a fiberwise-linear function of y")
        C = geometry.berwald_connection(m, at, scheme)
        delta = delta_beta(m, omega, at, scheme)
        cov = covariant_derivative(omega, at, C, delta, scheme)
        phi = geometry.jacobi_endomorphism(m, at, scheme)
        R = geometry.curvature_R(m, at, phi, scheme)
        return delta.components, {
            "covariant": cov.max_abs(),
            "delta": cov.notes["max_delta"],
            "curvature": d_R_beta(omega, at, R)[0].max_abs(),
        }

    maxima = {"covariant": 0.0, "delta": 0.0, "curvature": 0.0}
    worst = {k: None for k in maxima}
    deltas = []
    for at, (delta, vals) in zip(samples, sampling.map_samples(residuals,
                                                               samples)):
        deltas.append(delta)
        for k, v in vals.items():
            if v > maxima[k]:
                maxima[k] = v
                worst[k] = {"x": at.x, "y": at.y, "value": v}
    verdict = (Verdict.PARALLEL_WITHIN_TOL
               if all(v <= tol for v in maxima.values())
               else Verdict.NOT_PARALLEL)
    return ParallelReport(maxima["covariant"], maxima["delta"],
                          maxima["curvature"], tol, len(samples), scheme,
                          worst, verdict, deltas)


def randers_lift(m, omega, check_samples=200, seed=0):
    """The Randers change F + beta as a new metric model.

    Positivity of F + beta is checked on a seeded sample batch; forms with
    coefficients too large for the metric raise NotPositive.
    """
    m.require_F()

    def lifted(x, y):
        return m.F(x, y) + scalars.dot(omega.b(x), y)

    radius = m.domain.default_sample_radius()
    for at in sampling.tangent_samples(m.n, check_samples, seed, radius):
        val = scalars.value(lifted(at.x, at.y))
        if not (val > 0.0) or not math.isfinite(val):
            raise NotPositive(
                f"F + beta = {val:g} at x={at.x}, y={at.y}; the lift is "
                "not a positive Finsler function on the sampled domain")
    return MetricModel(n=m.n, F=lifted, domain=m.domain,
                       name=(m.name + "+beta") if m.name else "randers_lift")


PHI_CHOICES = {
    "randers": lambda s: 1.0 + s,
    "exp": scalars.exp,
}


def functional_independence(m, omega, phi_choice="randers", samples=()):
    """Maximum numerical rank over samples of the 2 x 2n Jacobian of
    (F, F*phi(beta/F)) in (x, y); 2 means locally functionally
    independent (rank may drop on the measure-zero set y || b).  ``phi``
    is a callable or a name in PHI_CHOICES; with no sample there is no
    rank to take, which raises InsufficientSamples."""
    m.require_F()
    if isinstance(phi_choice, str):
        if phi_choice not in PHI_CHOICES:
            raise BadParameter(f"unknown phi_choice {phi_choice!r}; "
                               f"choose from {sorted(PHI_CHOICES)}")
        phi = PHI_CHOICES[phi_choice]
    else:
        phi = phi_choice
    if not samples:
        raise InsufficientSamples(
            "functional_independence needs at least one sample")

    def fbar(x, y):
        f = m.F(x, y)
        return f * phi(scalars.dot(omega.b(x), y) / f)

    best = 0
    for at in samples:
        rows = []
        for fn in (m.F, fbar):
            jet = eval_jet(fn, at, JetOrder(1, 1))
            rows.append(np.concatenate([jet.dense(1, 0), jet.dense(0, 1)]))
        best = max(best, analysis.numerical_rank(np.asarray(rows))[0])
    return best

