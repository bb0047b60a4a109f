"""Theorem-level verifiers.

* scalar-curvature fit: least-structure fit of the Jacobi endomorphism to
  K (F^2 I - y ycol) with metric-lowered y; constancy and residual feed the
  no-parallel-form argument for K != 0.
* parallel obstruction scan: for each base point, stack the linear
  constraints a parallel form's coefficients must satisfy (Berwald-curvature
  contractions and curvature rows) and measure the kernel.  Kernel dimension
  0 at a single x already rules out a parallel form globally; when some x
  keeps a positive kernel, the intersection of kernels over all scanned x is
  the fallback witness.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import geometry
from .errors import InsufficientSamples
from .sampling import base_points, fiber_samples, map_samples
from .calculus import TangentSample

__all__ = [
    "ScalarCurvatureVerdict", "ScalarCurvatureFit", "scalar_curvature_fit",
    "numerical_rank", "KernelScanReport", "parallel_obstruction_scan",
]


class ScalarCurvatureVerdict(Enum):
    SCALAR_CURVATURE = "ScalarCurvature"
    NOT_SCALAR = "NotScalar"


@dataclass
class ScalarCurvatureFit:
    k_values: list
    max_residual: float
    scale: float
    tolerance: float
    verdict: ScalarCurvatureVerdict
    k_min: float = 0.0
    k_max: float = 0.0

    @property
    def k_spread(self):
        return self.k_max - self.k_min


def scalar_curvature_fit(m, samples, tol=1e-6, scheme="ad"):
    """Fit K per sample from trace(Phi) = K (n-1) F^2 and measure the
    residual of Phi - K (F^2 d^h_i - y_i y^h) with metric-lowered y_i."""
    n = m.n

    def fit(at):
        phi = geometry.jacobi_endomorphism(m, at, scheme).components
        f2 = 2.0 * geometry.energy(m, at)
        y_up = np.asarray(at.y, dtype=float)
        y_low = geometry.metric_tensor(m, at, scheme).components @ y_up
        k = float(np.trace(phi)) / ((n - 1) * f2)
        model = k * (f2 * np.eye(n) - np.outer(y_up, y_low))
        return k, float(np.max(np.abs(phi - model))), f2 * (1.0 + abs(k))

    fits = map_samples(fit, samples)
    ks = [k for k, _, _ in fits]
    worst = max([0.0, *(res for _, res, _ in fits)])
    scale = max([1.0, *(sc for _, _, sc in fits)])
    verdict = (ScalarCurvatureVerdict.SCALAR_CURVATURE
               if worst <= tol * scale else ScalarCurvatureVerdict.NOT_SCALAR)
    return ScalarCurvatureFit(ks, worst, scale, tol, verdict,
                              k_min=min(ks), k_max=max(ks))


RANK_THRESHOLD = 1e-7

# singular values below this absolute size are numerical zeros (AD noise is
# ~1e-14 on O(1) tensors); a relative threshold alone would hallucinate rank
# out of an all-noise matrix
ZERO_FLOOR = 1e-10


def numerical_rank(mat):
    """(rank, singular values) of ``mat``: the count of singular values
    above both RANK_THRESHOLD times the largest and ZERO_FLOOR."""
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] <= ZERO_FLOOR:
        return 0, sv
    return int(np.sum(sv > max(RANK_THRESHOLD * sv[0], ZERO_FLOOR))), sv


@dataclass
class KernelScanReport:
    """Per-base-point kernel data of the stacked parallel-form constraints."""

    rows_mode: str
    per_x: list = field(default_factory=list)
    matrices: list = field(default_factory=list)
    intersection_kernel_dim: int = 0

    @property
    def max_kernel_dim(self):
        return max(r["kernel_dim"] for r in self.per_x)

    @property
    def branch(self):
        """Which witness fired: every x separately, or only their
        intersection, or neither."""
        if all(r["kernel_dim"] == 0 for r in self.per_x):
            return "pointwise"
        if self.intersection_kernel_dim == 0:
            return "intersection"
        return "inconclusive"

    @property
    def obstructed(self):
        return self.branch in ("pointwise", "intersection")


def parallel_obstruction_scan(m, x_points=5, y_per_point=20, rows="both",
                              seed=0, scheme="ad"):
    """Stack b |-> G^h_ijk b_h and b |-> R^h_jk b_h rows over fiber samples
    at each base point and measure the kernel dimension (columns = n).

    ``x_points`` may be an integer (seeded base points) or an explicit list
    of base points.  ``rows`` selects which constraints enter: "berwald",
    "curvature", or "both".  Each base point's kernel is measured on its
    own.
    """
    n = m.n
    if y_per_point < n + 2:
        raise InsufficientSamples(
            f"scan needs at least n+2 = {n + 2} fiber samples per point")
    if rows not in ("both", "berwald", "curvature"):
        raise ValueError(f"unknown row selection {rows!r}")
    if isinstance(x_points, int):
        radius = m.domain.default_sample_radius()
        xs = base_points(n, x_points, seed, radius)
    else:
        xs = [tuple(x) for x in x_points]
    ys = fiber_samples(n, y_per_point, seed + 104729)
    triples = [(i, j, k) for i in range(n) for j in range(i, n)
               for k in range(j, n)]

    def rows_at(at):
        out = []
        if rows in ("both", "berwald"):
            B = geometry.berwald_curvature(m, at, scheme).components
            for (i, j, k) in triples:
                out.append(B[:, i, j, k])
        if rows in ("both", "curvature"):
            phi = geometry.jacobi_endomorphism(m, at, scheme)
            R = geometry.curvature_R(m, at, phi, scheme).components
            for j in range(n):
                for k in range(j + 1, n):
                    out.append(R[:, j, k])
        return np.array(out)  # no view keeps B or R alive past the sample

    report = KernelScanReport(rows_mode=rows)
    # one loop over all base points: a first read fills all their samples
    flat = map_samples(rows_at, [TangentSample(x, y) for x in xs for y in ys])
    mats = [np.array(flat[i:i + len(ys)]).reshape(-1, n)
            for i in range(0, len(flat), len(ys))]
    for x, mat in zip(xs, mats):
        rank, sv = numerical_rank(mat)
        report.per_x.append({
            "x": tuple(x), "rows": mat.shape[0],
            "singular_values": [float(v) for v in sv],
            "rank": rank, "kernel_dim": n - rank,
        })
        report.matrices.append(mat)
    total_rank, _ = numerical_rank(np.vstack(mats))
    report.intersection_kernel_dim = n - total_rank
    return report

