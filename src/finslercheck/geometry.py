"""The tensor pipeline of a Finsler metric at a tangent sample.

Everything derives from the energy E = F^2/2 through the geodesic-spray
coefficients

    G^i = 1/2 g^{ih} (y^j d_j dy_h E - d_h E),

and their jets: nonlinear connection N^i_j, Berwald connection G^h_ij and
curvature G^h_ijk, mean Berwald curvature, Landsberg tensor, Jacobi
endomorphism and the curvature 2-form R^h_jk of the canonical nonlinear
connection.

A spray jet of order (kx, ky) needs energy partials of order (kx + 1,
ky + 2).  Under AD they are all read off one flat energy jet of that order
by derivative shifts (:meth:`TNum.partial`) into the (kx, ky) algebra,
where the spray is assembled and solved; no jet is taken of Taylor-valued
inputs.  Spray-only models and the FD scheme differentiate the spray
evaluation itself.

Conventions.  R^h_jk is computed from horizontal derivatives of N and then
sign-normalised so that R^h_jk y^k equals the Jacobi endomorphism
component-wise; the orientation used is recorded in the tensor's notes.
Index lowering inside the pipeline always uses the metric tensor; tensors
record the convention they carry.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import scalars
from .calculus import (JetOrder, TangentSample, eval_jet, homogeneity_check,
                       jet_of, jet_of_many, series_jet, var_exponents)
from .errors import (ConventionMismatch, DegenerateMetric, FinslerCheckError,
                     NonFiniteValue)
from .taylor import algebra

__all__ = [
    "LoweringConvention", "IndexRole", "TensorValue", "Domain", "MetricModel",
    "energy", "metric_tensor", "hilbert_form", "angular_metric",
    "spray_coefficients", "nonlinear_connection", "berwald_connection",
    "berwald_curvature", "mean_berwald", "landsberg_tensor",
    "jacobi_endomorphism", "curvature_R", "delta_derivative",
    "metric_inverse", "lower_fiber_index",
]


class LoweringConvention(Enum):
    METRIC = "metric"        # y_i = g_ij y^j
    EUCLIDEAN = "euclidean"  # y_i = delta_ij y^j


@dataclass(frozen=True)
class IndexRole:
    variance: str  # "up" | "down"
    kind: str      # "base" | "fiber"


UP = IndexRole("up", "fiber")
DOWN_BASE = IndexRole("down", "base")
DOWN_FIBER = IndexRole("down", "fiber")


@dataclass
class TensorValue:
    """Dense component array with index metadata and symmetry tags."""

    components: np.ndarray
    roles: tuple
    symmetries: tuple = ()  # ("sym"|"antisym", positions)
    lowering: LoweringConvention | None = None
    notes: dict = field(default_factory=dict)

    def max_abs(self):
        return float(np.max(np.abs(self.components))) if self.components.size else 0.0

    def symmetry_violation(self):
        """Worst absolute deviation from the declared symmetry tags."""
        worst = 0.0
        for kind, pos in self.symmetries:
            for a in range(len(pos)):
                for b in range(a + 1, len(pos)):
                    perm = list(range(self.components.ndim))
                    perm[pos[a]], perm[pos[b]] = perm[pos[b]], perm[pos[a]]
                    swapped = np.transpose(self.components, perm)
                    if kind == "sym":
                        worst = max(worst, float(np.max(np.abs(self.components - swapped))))
                    elif kind == "antisym":
                        worst = max(worst, float(np.max(np.abs(self.components + swapped))))
                    else:
                        raise ValueError(f"unknown symmetry tag {kind!r}")
        return worst

    def check_symmetries(self, tol=1e-10):
        v = self.symmetry_violation()
        scale = 1.0 + self.max_abs()
        if v > tol * scale:
            raise FinslerCheckError(
                f"symmetry violation {v:g} exceeds {tol:g} * scale {scale:g}")
        return v


@dataclass(frozen=True)
class Domain:
    """Open ball |x| < radius, or all of R^n when radius is None."""

    radius: float | None = None

    def contains(self, x, margin=0.0):
        if self.radius is None:
            return True
        return math.sqrt(sum(scalars.value(v) ** 2 for v in x)) < self.radius - margin

    def default_sample_radius(self):
        # stay well inside ball domains so denominators remain bounded
        return 0.6 * self.radius if self.radius is not None else 0.6


@dataclass(eq=False)
class MetricModel:
    """A Finsler function and/or closed-form spray on an n-dimensional chart."""

    n: int
    F: object = None               # callable(x, y) -> scalar, 1-homogeneous in y
    domain: Domain = Domain()
    spray_override: object = None  # callable(x, y) -> sequence of n scalars
    name: str = ""

    def energy(self, x, y):
        f = self.F(x, y)
        return 0.5 * f * f

    def require_F(self):
        if self.F is None:
            raise FinslerCheckError(
                f"operation needs a Finsler function; model {self.name!r} "
                "is spray-only")


# ---------------------------------------------------------------------------
# linear algebra over generic scalars


def solve_linear(A, b):
    """Solve A z = b by Gauss elimination with value-part pivoting; entries
    may be floats or Taylor scalars."""
    n = len(A)
    M = [list(row) + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(scalars.value(M[r][col])))
        if abs(scalars.value(M[piv][col])) == 0.0:
            raise DegenerateMetric("singular linear system in spray assembly")
        M[col], M[piv] = M[piv], M[col]
        inv = 1.0 / M[col][col]
        M[col] = [e * inv for e in M[col]]
        for r in range(n):
            if r != col:
                f = M[r][col]
                M[r] = [er - f * ec for er, ec in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def _det_value(g):
    return float(np.linalg.det(np.asarray(g, dtype=float)))


DEGENERACY_REL = 1e-10


def _check_nondegenerate(gv, n, context=""):
    scale = float(np.mean(np.abs(np.diagonal(gv)))) or 1.0
    det = _det_value(gv)
    if abs(det) <= DEGENERACY_REL * scale ** n:
        raise DegenerateMetric(
            f"metric tensor degenerate (det={det:.3e}, scale={scale:.3e})"
            + (f" {context}" if context else ""))


# ---------------------------------------------------------------------------
# spray evaluation (generic over scalar type, so jets compose through it)


def _assemble_spray(n, y, d):
    """G^i = 1/2 g^{ih} (y^j d_j dy_h E - d_h E) from the energy partials
    ``d(xvars, yvars)``, floats or Taylor scalars of one algebra."""
    g = [[d((), (i, j)) for j in range(n)] for i in range(n)]
    gv = [[scalars.value(g[i][j]) for j in range(n)] for i in range(n)]
    _check_nondegenerate(np.asarray(gv), n)
    rhs = []
    for h in range(n):
        acc = -d((h,), ())
        for j in range(n):
            acc = acc + y[j] * d((j,), (h,))
        rhs.append(acc)
    w = solve_linear(g, rhs)
    return tuple(0.5 * wi for wi in w)


def _spray_scalars(m, x, y):
    # Spray values always come from Taylor-mode energy jets, also under the
    # pipeline's fd scheme: there the *outer* differentiation of the spray
    # is finite differences, which is the independent step worth checking;
    # nesting fd inside fd would cost 4^k energy evaluations per level and
    # drown in rounding noise.  The energy-level ad-vs-fd comparison is a
    # separate cross-check.
    if m.F is None:
        if m.spray_override is None:
            raise FinslerCheckError("model carries neither F nor a spray")
        return tuple(m.spray_override(x, y))
    jet = eval_jet(m.energy, TangentSample(x, y), JetOrder(1, 2))
    return _assemble_spray(m.n, y, jet.pvars)


def _shifted_spray_jets(m, at, kx, ky):
    """Spray jets of order (kx, ky) from one flat energy jet of order
    (kx + 1, ky + 2): each energy partial is a derivative shift of its
    series into the (kx, ky) algebra, where the spray is assembled."""
    n = at.n
    series = jet_of(m.energy, (at.x, at.y), (kx + 1, ky + 2)).series
    target = algebra(((n, kx), (n, ky)))

    def d(xvars, yvars):
        return series.partial((var_exponents(n, xvars),
                               var_exponents(n, yvars)), target)

    y = [target.variable(1, j, v) for j, v in enumerate(at.y)]
    return [series_jet(G).check_finite() for G in _assemble_spray(n, y, d)]


# jet orders requested per tier; AD shares one generous jet per tier, FD
# stays minimal because its cost grows exponentially with the order
_AD_TIERS = {"connection": (1, 2), "curvature": (1, 3)}
_FD_TIERS = {
    "nonlinear": (0, 1), "connection": (0, 2), "jacobi": (1, 2),
    "curvature": (0, 3),
}


def spray_jets(m, at, kx, ky, scheme="ad"):
    """Per-component jets of the spray coefficients at a float sample:
    by derivative shifts under AD when the model has F, otherwise by
    differentiating the spray evaluation.  Computed once per sample, model,
    order and scheme, and kept on the sample."""
    key = (m, kx, ky, scheme)
    jets = at.jets.get(key)
    if jets is None:
        if scheme == "ad" and m.F is not None:
            jets = _shifted_spray_jets(m, at, kx, ky)
        else:
            jets = jet_of_many(lambda xs, ys: _spray_scalars(m, xs, ys),
                               (at.x, at.y), (kx, ky), scheme=scheme)
        at.jets[key] = jets
    return jets


def _tier_jets(m, at, tier, scheme):
    if scheme == "ad":
        kx, ky = _AD_TIERS["curvature" if tier == "curvature" else "connection"]
    else:
        kx, ky = _FD_TIERS[tier]
    return spray_jets(m, at, kx, ky, scheme)


# ---------------------------------------------------------------------------
# pipeline operations


def energy(m, at):
    """E = F^2/2 at the sample."""
    m.require_F()
    e = scalars.value(m.energy(at.x, at.y))
    if not math.isfinite(e):
        raise NonFiniteValue("energy is not finite at the sample")
    return e


def metric_tensor(m, at, scheme="ad"):
    """g_ij = fiber Hessian of the energy; raises DegenerateMetric when
    rank < n at the sample."""
    m.require_F()
    jet = eval_jet(m.energy, at, JetOrder(0, 2), scheme=scheme)
    n = at.n
    g = np.array([[jet.pvars((), (i, j)) for j in range(n)] for i in range(n)])
    _check_nondegenerate(g, n)
    return TensorValue(g, (DOWN_FIBER, DOWN_FIBER), (("sym", (0, 1)),),
                       lowering=LoweringConvention.METRIC)


def metric_inverse(m, at, scheme="ad"):
    g = metric_tensor(m, at, scheme).components
    return np.linalg.inv(g)


def hilbert_form(m, at, scheme="ad"):
    """l_i = dF/dy^i."""
    m.require_F()
    jet = eval_jet(m.F, at, JetOrder(0, 1), scheme=scheme)
    ell = np.array([jet.pvars((), (i,)) for i in range(at.n)])
    return TensorValue(ell, (DOWN_FIBER,))


def angular_metric(m, at, scheme="ad", check_tol=1e-8):
    """h_ij = g_ij - l_i l_j; checked against F * d2F/dy dy and h y = 0."""
    m.require_F()
    n = at.n
    g = metric_tensor(m, at, scheme).components
    fjet = eval_jet(m.F, at, JetOrder(0, 2), scheme=scheme)
    fval = fjet.value
    ell = np.array([fjet.pvars((), (i,)) for i in range(n)])
    h = g - np.outer(ell, ell)
    hess = np.array([[fjet.pvars((), (i, j)) for j in range(n)] for i in range(n)])
    scale = 1.0 + float(np.max(np.abs(h)))
    tol = check_tol if scheme == "ad" else 1e-3
    if float(np.max(np.abs(h - fval * hess))) > tol * scale:
        raise FinslerCheckError("angular metric failed the F*Hess(F) cross-check")
    if float(np.max(np.abs(h @ np.asarray(at.y, dtype=float)))) > tol * scale:
        raise FinslerCheckError("angular metric is not transverse to y")
    return TensorValue(h, (DOWN_FIBER, DOWN_FIBER), (("sym", (0, 1)),),
                       lowering=LoweringConvention.METRIC)


def spray_coefficients(m, at, scheme="ad"):
    """Geodesic-spray coefficients G^i; 2-homogeneity is checked on the
    whole spray vector (one evaluation per scale), and a closed-form
    override (when the model carries one next to F) is compared and
    reported in the notes."""
    notes = {}
    G = np.array([scalars.value(c) for c in _spray_scalars(m, at.x, at.y)])
    if not np.isfinite(G).all():
        raise NonFiniteValue("spray coefficients not finite at the sample")
    if m.F is not None and m.spray_override is not None:
        ref = np.array([scalars.value(c) for c in m.spray_override(at.x, at.y)])
        notes["override_deviation"] = float(np.max(np.abs(G - ref)))
    hom_tol = 1e-9 if scheme == "ad" else 1e-4
    residuals = homogeneity_check(lambda x, y: _spray_scalars(m, x, y),
                                  at, 2, value=G)
    for i, res in enumerate(residuals):
        if res > hom_tol:
            raise FinslerCheckError(
                f"spray component {i} is not 2-homogeneous (residual {res:g})")
    return TensorValue(G, (UP,), notes=notes)


def _euler_check(residual, scale, scheme, what):
    tol = 1e-9 if scheme == "ad" else 1e-3
    if residual > tol * (1.0 + scale):
        raise FinslerCheckError(f"{what} failed its Euler contraction "
                                f"(residual {residual:g})")


def nonlinear_connection(m, at, scheme="ad"):
    """N^i_j = dG^i/dy^j, with the Euler check N y = 2G."""
    jets = _tier_jets(m, at, "nonlinear", scheme)
    n = at.n
    N = np.array([[jets[i].pvars((), (j,)) for j in range(n)] for i in range(n)])
    G = np.array([jets[i].value for i in range(n)])
    y = np.asarray(at.y, dtype=float)
    _euler_check(float(np.max(np.abs(N @ y - 2.0 * G))), float(np.max(np.abs(G))),
                 scheme, "nonlinear connection")
    return TensorValue(N, (UP, DOWN_BASE))


def berwald_connection(m, at, scheme="ad"):
    """G^h_ij = dN^h_j/dy^i (symmetric in i, j)."""
    jets = _tier_jets(m, at, "connection", scheme)
    n = at.n
    C = np.array([[[jets[h].pvars((), (i, j)) for j in range(n)]
                   for i in range(n)] for h in range(n)])
    N = np.array([[jets[h].pvars((), (j,)) for j in range(n)] for h in range(n)])
    y = np.asarray(at.y, dtype=float)
    _euler_check(float(np.max(np.abs(np.einsum("hij,j->hi", C, y) - N))),
                 float(np.max(np.abs(N))), scheme, "Berwald connection")
    return TensorValue(C, (UP, DOWN_BASE, DOWN_BASE), (("sym", (1, 2)),))


def berwald_curvature(m, at, scheme="ad"):
    """G^h_ijk, totally symmetric, with G^h_ijk y^k = 0."""
    jets = _tier_jets(m, at, "curvature", scheme)
    n = at.n
    B = np.array([[[[jets[h].pvars((), (i, j, k)) for k in range(n)]
                    for j in range(n)] for i in range(n)] for h in range(n)])
    y = np.asarray(at.y, dtype=float)
    _euler_check(float(np.max(np.abs(np.einsum("hijk,k->hij", B, y)))),
                 float(np.max(np.abs(B))), scheme, "Berwald curvature")
    return TensorValue(B, (UP, DOWN_BASE, DOWN_BASE, DOWN_BASE),
                       (("sym", (1, 2, 3)),))


def mean_berwald(m, at, scheme="ad"):
    """E_jk = (1/2) G^i_ijk."""
    B = berwald_curvature(m, at, scheme).components
    E = 0.5 * np.einsum("iijk->jk", B)
    return TensorValue(E, (DOWN_BASE, DOWN_BASE), (("sym", (0, 1)),))


def landsberg_tensor(m, at, scheme="ad"):
    """L_ijk = -(1/2) F G^h_ijk dF/dy^h."""
    m.require_F()
    B = berwald_curvature(m, at, scheme).components
    fjet = eval_jet(m.F, at, JetOrder(0, 1), scheme=scheme)
    ell = np.array([fjet.pvars((), (h,)) for h in range(at.n)])
    L = -0.5 * fjet.value * np.einsum("hijk,h->ijk", B, ell)
    return TensorValue(L, (DOWN_BASE, DOWN_BASE, DOWN_BASE),
                       (("sym", (0, 1, 2)),))


def jacobi_endomorphism(m, at, scheme="ad"):
    """Phi^i_j = 2 d_j G^i - S(N^i_j) - N^i_k N^k_j  (Riemann curvature)."""
    jets = _tier_jets(m, at, "jacobi", scheme)
    n = at.n
    G = np.array([jets[i].value for i in range(n)])
    dG = np.array([[jets[i].pvars((j,), ()) for j in range(n)] for i in range(n)])
    N = np.array([[jets[i].pvars((), (j,)) for j in range(n)] for i in range(n)])
    dN = np.array([[[jets[i].pvars((k,), (j,)) for k in range(n)]
                    for j in range(n)] for i in range(n)])   # dN[i,j,k] = d_k N^i_j
    dyN = np.array([[[jets[i].pvars((), (j, k)) for k in range(n)]
                     for j in range(n)] for i in range(n)])  # dyN[i,j,k]
    y = np.asarray(at.y, dtype=float)
    SN = np.einsum("ijk,k->ij", dN, y) - 2.0 * np.einsum("ijk,k->ij", dyN, G)
    phi = 2.0 * dG - SN - N @ N
    scale = float(np.max(np.abs(phi)))
    tol = 1e-9 if scheme == "ad" else 1e-3
    if float(np.max(np.abs(phi @ y))) > tol * (1.0 + scale):
        raise FinslerCheckError("Jacobi endomorphism does not annihilate y")
    return TensorValue(phi, (UP, DOWN_BASE))


def curvature_R(m, at, scheme="ad", check_tol=1e-8):
    """Curvature 2-form R^h_jk of the nonlinear connection, antisymmetric
    in (j, k) as stored, sign-normalised so that R^h_jk y^k = Phi^h_j."""
    jets = _tier_jets(m, at, "jacobi", scheme)
    n = at.n
    N = np.array([[jets[h].pvars((), (j,)) for j in range(n)] for h in range(n)])
    dN = np.array([[[jets[h].pvars((k,), (j,)) for k in range(n)]
                    for j in range(n)] for h in range(n)])   # d_k N^h_j
    C = np.array([[[jets[h].pvars((), (l, j)) for j in range(n)]
                   for l in range(n)] for h in range(n)])    # G^h_lj
    R = np.zeros((n, n, n))
    for j in range(n):
        for k in range(j + 1, n):
            # delta_j N^h_k - delta_k N^h_j, delta_j = d_j - N^l_j dy_l
            val = (dN[:, k, j] - dN[:, j, k]
                   - np.einsum("l,hl->h", N[:, j], C[:, :, k])
                   + np.einsum("l,hl->h", N[:, k], C[:, :, j]))
            R[:, j, k] = val
            R[:, k, j] = -val
    y = np.asarray(at.y, dtype=float)
    phi = jacobi_endomorphism(m, at, scheme).components
    contracted = np.einsum("hjk,k->hj", R, y)
    scale = 1.0 + float(np.max(np.abs(phi)))
    tol = check_tol if scheme == "ad" else 1e-3
    if float(np.max(np.abs(contracted - phi))) <= tol * scale:
        orientation = 1
    elif float(np.max(np.abs(contracted + phi))) <= tol * scale:
        R = -R
        orientation = -1
    else:
        raise ConventionMismatch(
            "R^h_jk y^k differs from the Jacobi endomorphism by more than "
            "a global sign")
    return TensorValue(R, (UP, DOWN_BASE, DOWN_BASE), (("antisym", (1, 2)),),
                       notes={"orientation": orientation})


def delta_derivative(m, f, at, scheme="ad"):
    """Horizontal derivative (delta_i f) = d_i f - N^j_i dy_j f of a scalar
    field on the slit tangent bundle."""
    jets = _tier_jets(m, at, "nonlinear", scheme)
    n = at.n
    N = np.array([[jets[j].pvars((), (i,)) for i in range(n)] for j in range(n)])
    fjet = eval_jet(f, at, JetOrder(1, 1), scheme=scheme)
    out = np.array([fjet.pvars((i,), ())
                    - sum(N[j, i] * fjet.pvars((), (j,)) for j in range(n))
                    for i in range(n)])
    return TensorValue(out, (DOWN_BASE,))


def lower_fiber_index(m, at, vec, scheme="ad"):
    """y_i = g_ij y^j style metric lowering of an up-fiber vector."""
    g = metric_tensor(m, at, scheme).components
    return g @ np.asarray(vec, dtype=float)
