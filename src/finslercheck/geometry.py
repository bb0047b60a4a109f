"""The tensor pipeline of a Finsler metric at a tangent sample.

Everything derives from the energy E = F^2/2 through the geodesic-spray
coefficients

    G^i = 1/2 g^{ih} (y^j d_j dy_h E - d_h E),

and their jets: nonlinear connection N^i_j, Berwald connection G^h_ij and
curvature G^h_ijk, mean Berwald curvature, Landsberg tensor, Jacobi
endomorphism and the curvature 2-form R^h_jk of the canonical nonlinear
connection.

A spray jet of order (kx, ky) needs energy partials of order (kx + 1,
ky + 2), so the curvature tier (1, 3) takes an energy jet of order
(2, 5).  Under AD they are all read off one flat energy jet of that order
by derivative shifts (:meth:`TRows.partial`) into the (kx, ky) algebra,
where the spray is assembled and solved; no jet is taken of Taylor-valued
inputs.  Spray-only models and the FD scheme differentiate the spray
evaluation itself; FD evaluates it at the stencil points of all of a
jet's rows in batches of Taylor rows (``_spray_rows``: one (1, 2) energy
jet, with the non-degeneracy check and the solve's pivot per row).

An op's first read, under either scheme, takes what it reads for every
sample of its per-sample loop (:func:`sampling.map_samples`) as rows, each
row bit for bit that sample's batch of one, and a sample outside a loop is
a loop of one (:func:`calculus.held`): the spray values, the energy and F
jets, and the spray partials the ops read (``_spray_partials``), read
straight off one batch of spray jets per ``SPRAY_BATCH`` samples of a
model with F (else per ``FD_BATCH``); an AD (1, 2) read takes the
(1, 3) rows a sample holds, bit for bit a direct (1, 2) computation's.
The spray value is held with its three homogeneity scalings, four rows
per sample.  A sample whose batch failed, or whose row is not finite,
reads alone and fails with its own error.  Every held key names its
scheme, so the AD Euler chain that an FD pass also takes never feeds an
FD op.

Each op's body is written once, on stacks with a leading sample axis
(``_rows``): its first read runs it over the loop's samples, on spray
partials gathered once per batch.  Its checks are computed per row and
raised at the sample's read.

An AD tier keeps only its demand staircase (``_AD_STAIRS``): the spray
partials the ops read, of x-order 0 up to the tier's y-order and of
x-order 1 up to y-order 1, and the energy partials they are shifted from.
Nothing reads a spray partial of x-order 1 and y-order 2 or more, so none
is computed; a read outside the stair raises KeyError.

Derived ops take their upstream tensor instead of computing it again:
``angular_metric`` takes g, ``mean_berwald`` the Berwald curvature,
``landsberg_tensor`` the Berwald curvature and the Hilbert form (which
records the value of F it read as ``notes["F"]``), ``curvature_R`` the
Jacobi endomorphism (its rows, in a loop).  No op calls another op, so a
caller computes each tensor once per sample.

Conventions.  R^h_jk is computed from horizontal derivatives of N and then
sign-normalised so that R^h_jk y^k equals the Jacobi endomorphism
component-wise; the orientation used is recorded in the tensor's notes.
Index lowering inside the pipeline always uses the metric tensor.  The ops
that check an Euler contraction record its raw residual in their notes as
``euler_residual``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import scalars
from .calculus import (FD_BATCH, HOMOGENEITY_SCALES, JetOrder, coordinates,
                       eval_jet, finite_rows, held, homogeneity_check, jet_of,
                       jet_of_many, jet_of_rows, sample_rows, series_jet,
                       var_exponents)
from .errors import (ConventionMismatch, DegenerateMetric, FinslerCheckError,
                     NonFiniteValue)
from .taylor import TRows, algebra

__all__ = [
    "TensorValue", "Domain", "MetricModel",
    "energy", "metric_tensor", "hilbert_form", "angular_metric",
    "spray_coefficients", "nonlinear_connection", "berwald_connection",
    "berwald_curvature", "mean_berwald", "landsberg_tensor",
    "jacobi_endomorphism", "curvature_R", "delta_derivative",
]


@dataclass
class TensorValue:
    """Dense component array with symmetry tags and notes; ``key`` is that
    of its rows held on the samples of a per-sample loop (:func:`_rows`)."""

    components: np.ndarray
    symmetries: tuple = ()  # ("sym"|"antisym", positions)
    notes: dict = field(default_factory=dict)
    key: object = field(default=None, repr=False, compare=False)

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


@dataclass(frozen=True)
class Domain:
    """Open ball |x| < radius, or all of R^n when radius is None."""

    radius: float | None = None

    def default_sample_radius(self):
        # stay well inside ball domains so denominators remain bounded
        return 0.6 * self.radius if self.radius is not None else 0.6


@dataclass(eq=False)
class MetricModel:
    """A Finsler function, or the spray of a spray-only model, on an
    n-dimensional chart."""

    n: int
    F: object = None               # callable(x, y) -> scalar, 1-homogeneous in y
    domain: Domain = Domain()
    spray_override: object = None  # callable(x, y) -> n scalars; read when F is None
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


def _where(here, a, b):
    """``a`` at the rows where ``here`` holds, else ``b``: per-row float
    arrays or Taylor rows."""
    if isinstance(a, TRows):
        return TRows(a.alg, np.where(here, a.c, b.c))
    return np.where(here, a, b)


def solve_linear(A, b):
    """Solve A z = b by Gauss-Jordan elimination with value-part pivoting.
    Entries are per-row float arrays or Taylor rows of one row count, or
    floats; the pivot is taken per row, so row r does the operations of
    solving its batch of one.  A zero pivot in any row raises
    DegenerateMetric."""
    n = len(A)
    M = [list(row) + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        mags = np.abs([scalars.value(M[r][col]) for r in range(col, n)])
        if not mags.max(axis=0).all():
            raise DegenerateMetric("singular linear system in spray assembly")
        # argmax, like max, takes the first of equal candidates
        piv = col + mags.argmax(axis=0)
        top = M[col]
        for r in range(col + 1, n):
            here = piv == r
            M[col] = [_where(here, er, ec) for ec, er in zip(M[col], M[r])]
            M[r] = [_where(here, et, er) for et, er in zip(top, M[r])]
        inv = 1.0 / M[col][col]
        M[col] = [e * inv for e in M[col]]
        for r in range(n):
            if r != col:
                f = M[r][col]
                M[r] = [er - f * ec for er, ec in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


DEGENERACY_REL = 1e-10


def _degeneracy(g):
    """(det, mean |diagonal entry|) of each matrix of the stack ``g``, with
    the same float operations as for one matrix."""
    return (np.linalg.det(g),
            np.mean(np.abs(np.diagonal(g, axis1=1, axis2=2)), axis=1))


def _check_nondegenerate(n, dets, scales):
    """Raise DegenerateMetric for the first |det| that does not exceed
    DEGENERACY_REL times the n-th power of its scale (:func:`_degeneracy`)."""
    for det, scale in zip(np.ravel(dets).tolist(), np.ravel(scales).tolist()):
        scale = scale or 1.0
        if abs(det) <= DEGENERACY_REL * scale ** n:
            raise DegenerateMetric(
                f"metric tensor degenerate (det={det:.3e}, scale={scale:.3e})")


# ---------------------------------------------------------------------------
# spray evaluation (generic over scalar type, so jets compose through it)


def _spray_system(n, y, d):
    """The system g_hi w^i = y^j d_j dy_h E - d_h E whose solution is 2G,
    as (g, right-hand sides), from the energy partials ``d(xvars, yvars)``
    (see :func:`_assemble_spray`)."""
    g = [[d((), (i, j)) for j in range(n)] for i in range(n)]
    rhs = []
    for h in range(n):
        acc = -d((h,), ())
        for j in range(n):
            acc = acc + y[j] * d((j,), (h,))
        rhs.append(acc)
    return g, rhs


def _assemble_spray(n, y, d):
    """G^i = 1/2 g^{ih} (y^j d_j dy_h E - d_h E) from the energy partials
    ``d(xvars, yvars)``: floats (the spray at a float point), float arrays
    over rows, or Taylor rows of one algebra."""
    g, rhs = _spray_system(n, y, d)
    values = np.array([[scalars.value(e) for e in row] for row in g])
    _check_nondegenerate(n, *_degeneracy(
        np.reshape(values, (n, n, -1)).transpose(2, 0, 1)))
    return tuple(0.5 * wi for wi in solve_linear(g, rhs))


def _spray_rows(m, xs, ys):
    """The spray of an F-model at each row of the float arrays ``xs``,
    ``ys`` (rows, n), as one (rows, n) array: one (1, 2) energy jet over
    the rows, assembled and solved on its per-row partials, so row r
    equals ``_spray_scalars(m, xs[r], ys[r])`` bit for bit."""
    jet = jet_of_rows(m.energy, (xs, ys), (1, 2))
    return np.transpose(_assemble_spray(m.n, ys.T, jet.pvars))


def _spray_values(m, xs, ys):
    """The spray at each row of the per-row float arrays ``xs``, ``ys`` and
    at its y times each of HOMOGENEITY_SCALES, as a (1 + scales, n, rows)
    array, each bit for bit ``_spray_scalars`` there: through one
    ``_spray_rows`` for an F-model, else point by point (plain-float
    evaluation of the spray)."""
    lams = (1.0,) + HOMOGENEITY_SCALES
    X = np.tile(np.transpose(xs), (len(lams), 1))
    Y = np.concatenate([lam * np.transpose(ys) for lam in lams])
    if m.F is None:
        G = np.array([[scalars.value(c) for c in _spray_scalars(m, x, y)]
                      for x, y in zip(X.tolist(), Y.tolist())])
    else:
        G = _spray_rows(m, X, Y)
    return G.reshape(len(lams), -1, m.n).transpose(0, 2, 1)


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
    return _assemble_spray(m.n, y, jet_of(m.energy, (x, y), (1, 2)).pvars)


def _shifted_spray_jets(m, x, y, kx, ky):
    """Spray jets of order (kx, ky) from one flat energy jet of order
    (kx + 1, ky + 2): each energy partial is a derivative shift of its
    series into the (kx, ky) algebra, where the spray is assembled.  Both
    algebras keep the tier's demand staircase if it has one.  ``x``, ``y``
    are per-row float arrays, one row per sample; the jets are of Taylor
    rows, with the row axis last, and row r is bit for bit the jets of its
    batch of one.  Jets of which no row is finite raise NonFiniteValue; a
    non-finite row among finite ones is left to :func:`calculus.fill_jets`."""
    n = m.n
    spray_stair, energy_stair = _AD_STAIRS.get((kx, ky), (None, None))
    series = jet_of(m.energy, (x, y), (kx + 1, ky + 2),
                    stair=energy_stair).series
    target = algebra(((n, kx), (n, ky)), spray_stair)

    def d(xvars, yvars):
        return series.partial((var_exponents(n, xvars),
                               var_exponents(n, yvars)), target)

    y = [target.variable(1, j, v) for j, v in enumerate(y)]
    jets = [series_jet(G) for G in _assemble_spray(n, y, d)]
    if not finite_rows(jets).any():
        raise NonFiniteValue("non-finite derivative encountered")
    return jets


# Samples per energy jet when a per-sample loop takes the spray partials
# of a model with F.  Each row carries the (1, 3) energy jet's box of
# coefficients (560 at n = 3) through every multiply, so the batch bounds
# the memory a command's spray jets take at once.  A loop's parts of
# FD_BATCH samples split into whole batches, so N samples take
# ceil(N / SPRAY_BATCH) energy jets.
SPRAY_BATCH = 16
assert FD_BATCH % SPRAY_BATCH == 0


def _spray_jet_rows(m, kx, ky, scheme):
    """The spray jets of order (kx, ky) at a list of samples, as jets of
    rows, each row bit for bit the sample's batch of one: under AD for a
    model with F from one staircase energy jet; else the jets of the spray
    evaluation, whose FD stencil points a model with F evaluates as rows
    (``_spray_rows``)."""
    if m.F is not None and scheme == "ad":  # the spray's jet dispatch
        return lambda part: _shifted_spray_jets(m, *coordinates(part), kx, ky)
    rows = m.F and (lambda xs, ys: _spray_rows(m, xs, ys))
    return lambda part: jet_of_many(
        lambda x, y: _spray_scalars(m, x, y), coordinates(part), (kx, ky),
        scheme, rows=rows)


# jet orders requested per scheme and tier; AD shares one generous jet per
# tier, FD stays minimal because its cost grows exponentially with the order
_TIERS = {"ad": {"nonlinear": (1, 2), "connection": (1, 2), "jacobi": (1, 2),
                 "curvature": (1, 3)},
          "fd": {"nonlinear": (0, 1), "connection": (0, 2), "jacobi": (1, 2),
                 "curvature": (0, 3)}}
# (spray, energy) demand staircases of each AD tier order: the ops read
# spray partials (0, <= ky) and (1, <= 1); the spray assembly shifts them
# from energy partials (0, <= ky + 2), (1, <= ky + 1) and (2, <= 2).  The
# (1, 3) stair keeps every spray partial of the (1, 2) stair, bit for bit.
_AD_STAIRS = {(1, 3): ((3, 1), (5, 4, 2)), (1, 2): ((2, 1), (4, 3, 2))}
# the spray partials the ops read, by (x-order, y-order): G, dG, N, dN,
# dy N and B; a (1, 2) tier's are the first five of the (1, 3) tier's
_SPRAY_ORDERS = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (0, 3))


def spray_jets(m, at, kx, ky, scheme="ad"):
    """Per-component jets of the spray coefficients at a float sample,
    under either scheme: row 0 of its batch of one (``_spray_jet_rows``).
    A library read, which keeps nothing on the sample; no op calls it."""
    return [j.row(0) for j in _spray_jet_rows(m, kx, ky, scheme)([at])]


def _spray_partials(m, part, tier, scheme):
    """A ``tier``'s spray partials at the samples ``part``, stacked, by
    order (those of ``_SPRAY_ORDERS`` within the tier's): ``[(0, 1)][s, h,
    j]`` is N^h_j at ``part[s]``, :func:`calculus.held`: read off one batch
    of spray jets per ``SPRAY_BATCH`` samples of a model with F (else per
    ``FD_BATCH``); an AD (1, 2) read takes the (1, 3) rows a sample holds."""
    kx, ky = _TIERS[scheme][tier]
    orders = [(a, b) for a, b in _SPRAY_ORDERS if a <= kx and b <= ky]
    size = FD_BATCH if m.F is None else SPRAY_BATCH
    jets = _spray_jet_rows(m, kx, ky, scheme)

    def read(chunk):  # component axis first, then the order's, rows last
        return [np.array([j.dense(*o) for j in chunk]) for o in orders]

    def gather(sub):
        chunks = [read(jets(sub[lo:lo + size]))
                  for lo in range(0, len(sub), size)]
        return [np.concatenate(c, axis=-1) for c in zip(*chunks)]

    key = ("spray_partials", m, kx, ky, scheme)
    full = ("spray_partials", m, 1, 3, scheme)
    rows = [at.jets.get(full) or held(at, key, gather) for at in part]
    return {o: np.array([r[i] for r in rows]) for i, o in enumerate(orders)}


def _rows(at, key, stacks, *upstream):
    """``at``'s row of ``stacks(part, *ups)``, arrays with a leading axis
    over the samples ``part`` (``ups``: the ``upstream`` tensors' rows held
    there), :func:`calculus.held` under ``key``, which is None where an
    upstream tensor is held under no key (the caller built it)."""
    def run(part):  # rows last
        ups = [[t.components if s is at else (s.jets.get(t.key) or [None])[0]
                for s in part] for t in upstream]
        if any(r is None for up in ups for r in up):
            raise FinslerCheckError("an upstream tensor is not held")
        return [o.transpose(*range(1, o.ndim), 0)
                for o in stacks(part, *map(np.array, ups))]

    return held(at, key, run)


def _max(a):  # max |a| per sample of a stack
    return np.abs(a).reshape(len(a), -1).max(1)


def _ys(part):
    return np.array([at.y for at in part], dtype=float)


def _mv(M, v):  # M[s] @ v[s] per sample
    return (M @ v[..., None])[..., 0]


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

    def stacks(part):
        g = np.array([eval_jet(m.energy, s, JetOrder(0, 2), scheme=scheme)
                      .dense(0, 2) for s in part])
        return (g, *_degeneracy(g))

    key = ("metric_tensor", m, scheme)
    g, det, scale = _rows(at, key, stacks)
    _check_nondegenerate(m.n, det, scale)
    return TensorValue(g, (("sym", (0, 1)),), key=key)


def hilbert_form(m, at, scheme="ad"):
    """l_i = dF/dy^i; the value of F read off the same jet is kept as
    ``notes["F"]``."""
    m.require_F()
    jet = eval_jet(m.F, at, JetOrder(0, 1), scheme=scheme)
    return TensorValue(jet.dense(0, 1), notes={"F": jet.value})


def angular_metric(m, at, g, scheme="ad"):
    """h_ij = g_ij - l_i l_j; checked against F * d2F/dy dy and h y = 0."""
    m.require_F()
    fjet = eval_jet(m.F, at, JetOrder(0, 2), scheme=scheme)
    fval = fjet.value
    ell = fjet.dense(0, 1)
    h = g.components - np.outer(ell, ell)
    hess = fjet.dense(0, 2)
    scale = 1.0 + float(np.max(np.abs(h)))
    tol = 1e-8 if scheme == "ad" else 1e-3
    if float(np.max(np.abs(h - fval * hess))) > tol * scale:
        raise FinslerCheckError("angular metric failed the F*Hess(F) cross-check")
    if float(np.max(np.abs(h @ np.asarray(at.y, dtype=float)))) > tol * scale:
        raise FinslerCheckError("angular metric is not transverse to y")
    return TensorValue(h, (("sym", (0, 1)),))


def spray_coefficients(m, at):
    """Geodesic-spray coefficients G^i; 2-homogeneity is checked on the
    whole spray vector, taken with its scalings as rows (``_spray_values``,
    ``SPRAY_BATCH`` samples at once in a per-sample loop).  G is read off
    AD energy jets under either pipeline scheme (``_spray_scalars``)."""
    G, *scaled = sample_rows(at, (m, 0, 0, "values"), lambda xs, ys: [
        _spray_values(m, xs, ys)], SPRAY_BATCH)[0]
    if not np.isfinite(G).all():
        raise NonFiniteValue("spray coefficients not finite at the sample")
    scaled = iter(scaled)
    residuals = homogeneity_check(lambda x, y: next(scaled), at, 2, value=G)
    for i, res in enumerate(residuals):
        if res > 1e-9:
            raise FinslerCheckError(
                f"spray component {i} is not 2-homogeneous (residual {res:g})")
    return TensorValue(G)


def _euler_op(m, at, scheme, stacks, what, symmetries=()):
    """The tensor ``what`` of ``stacks``, which also give each sample's raw
    Euler contraction residual (kept in the notes) and scale; raises past
    the scheme's tolerance relative to ``1 + scale``."""
    key = (what, m, scheme)
    T, residual, scale = _rows(at, key, stacks)
    residual, tol = float(residual), 1e-9 if scheme == "ad" else 1e-3
    if residual > tol * (1.0 + float(scale)):
        raise FinslerCheckError(f"{what} failed its Euler contraction "
                                f"(residual {residual:g})")
    return TensorValue(T, symmetries, {"euler_residual": residual}, key)


def nonlinear_connection(m, at, scheme="ad"):
    """N^i_j = dG^i/dy^j, with the Euler check N y = 2G."""
    def stacks(part):
        P = _spray_partials(m, part, "nonlinear", scheme)
        N, G = P[0, 1], P[0, 0]
        return N, _max(_mv(N, _ys(part)) - 2.0 * G), _max(G)

    return _euler_op(m, at, scheme, stacks, "nonlinear connection")


def berwald_connection(m, at, scheme="ad"):
    """G^h_ij = dN^h_j/dy^i (symmetric in i, j), with G^h_ij y^j = N^h_i."""
    def stacks(part):
        P = _spray_partials(m, part, "connection", scheme)
        C, N = P[0, 2], P[0, 1]
        return C, _max(np.einsum("shij,sj->shi", C, _ys(part)) - N), _max(N)

    return _euler_op(m, at, scheme, stacks, "Berwald connection",
                     (("sym", (1, 2)),))


def berwald_curvature(m, at, scheme="ad"):
    """G^h_ijk, totally symmetric, with G^h_ijk y^k = 0."""
    def stacks(part):
        B = _spray_partials(m, part, "curvature", scheme)[0, 3]
        return B, _max(np.einsum("shijk,sk->shij", B, _ys(part))), _max(B)

    return _euler_op(m, at, scheme, stacks, "Berwald curvature",
                     (("sym", (1, 2, 3)),))


def mean_berwald(B):
    """E_jk = (1/2) G^i_ijk from the Berwald curvature ``B``."""
    E = 0.5 * np.einsum("iijk->jk", B.components)
    return TensorValue(E, (("sym", (0, 1)),))


def landsberg_tensor(B, ell):
    """L_ijk = -(1/2) F G^h_ijk l_h from the Berwald curvature ``B`` and
    the Hilbert form ``ell`` (with its ``notes["F"]``)."""
    L = -0.5 * ell.notes["F"] * np.einsum("hijk,h->ijk", B.components,
                                          ell.components)
    return TensorValue(L, (("sym", (0, 1, 2)),))


def jacobi_endomorphism(m, at, scheme="ad"):
    """Phi^i_j = 2 d_j G^i - S(N^i_j) - N^i_k N^k_j  (Riemann curvature),
    with Phi y = 0."""
    def stacks(part):
        P = _spray_partials(m, part, "jacobi", scheme)
        G, dG, N, dyN = P[0, 0], P[1, 0], P[0, 1], P[0, 2]
        dN = P[1, 1].transpose(0, 1, 3, 2).copy()  # d_k N^i_j
        y = _ys(part)
        SN = (np.einsum("sijk,sk->sij", dN, y)
              - 2.0 * np.einsum("sijk,sk->sij", dyN, G))
        phi = 2.0 * dG - SN - N @ N
        return phi, _max(_mv(phi, y)), _max(phi)

    return _euler_op(m, at, scheme, stacks, "Jacobi endomorphism")


def curvature_R(m, at, phi, scheme="ad"):
    """Curvature 2-form R^h_jk of the nonlinear connection, antisymmetric
    in (j, k) as stored, sign-normalised so that R^h_jk y^k = phi^h_j."""
    def stacks(part, phis):
        P = _spray_partials(m, part, "jacobi", scheme)
        N, C = P[0, 1], P[0, 2]                    # C[s, h, l, j] = G^h_lj
        dN = P[1, 1].transpose(0, 1, 3, 2).copy()  # d_k N^h_j
        n = N.shape[1]
        R = np.zeros(N.shape + (n,))
        for j in range(n):
            for k in range(j + 1, n):
                # delta_j N^h_k - delta_k N^h_j, delta_j = d_j - N^l_j dy_l
                val = (dN[:, :, k, j] - dN[:, :, j, k]
                       - np.einsum("sl,shl->sh", N[:, :, j], C[:, :, :, k])
                       + np.einsum("sl,shl->sh", N[:, :, k], C[:, :, :, j]))
                R[:, :, j, k] = val
                R[:, :, k, j] = -val
        contracted = np.einsum("shjk,sk->shj", R, _ys(part))
        bound = (1e-8 if scheme == "ad" else 1e-3) * (1.0 + _max(phis))
        # the orientation that makes R y = phi, or 0 for neither sign
        sign = np.where(_max(contracted - phis) <= bound, 1,
                        np.where(_max(contracted + phis) <= bound, -1, 0))
        return sign[:, None, None, None] * R, sign

    key = phi.key and ("curvature_R", m, phi.key, scheme)
    R, orientation = _rows(at, key, stacks, phi)
    if not orientation:
        raise ConventionMismatch(
            "R^h_jk y^k differs from the Jacobi endomorphism by more than "
            "a global sign")
    return TensorValue(R, (("antisym", (1, 2)),),
                       {"orientation": int(orientation)}, key)


def delta_derivative(m, f, at, scheme="ad"):
    """Horizontal derivative (delta_i f) = d_i f - N^j_i dy_j f of a scalar
    field on the slit tangent bundle."""
    def stacks(part):
        N = _spray_partials(m, part, "nonlinear", scheme)[0, 1]
        jets = [eval_jet(f, s, JetOrder(1, 1), scheme=scheme) for s in part]
        dx, dy = (np.array([j.dense(*o) for j in jets])
                  for o in ((1, 0), (0, 1)))
        return [dx - (N * dy[:, :, None]).sum(axis=1)]

    key = ("delta_derivative", m, f, scheme)
    out, = _rows(at, key, stacks)
    return TensorValue(out, key=key)
