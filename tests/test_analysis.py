"""Theorem-level verifiers: scalar-curvature fit, ranks, kernel scans."""

import pytest

from finslercheck import analysis, catalogue, cli
from finslercheck.analysis import ScalarCurvatureVerdict
from finslercheck.errors import InsufficientSamples
from finslercheck.sampling import base_points, tangent_samples
from oracles import kernel_residual


def test_fit_euclidean(euclid3, samples10):
    fit = analysis.scalar_curvature_fit(euclid3.model, samples10)
    assert fit.verdict is ScalarCurvatureVerdict.SCALAR_CURVATURE
    assert abs(fit.k_min) <= 1e-10 and abs(fit.k_max) <= 1e-10
    assert fit.max_residual <= 1e-10


def test_fit_classic_zero_curvature(classic3, samples10):
    fit = analysis.scalar_curvature_fit(classic3.model, samples10)
    assert fit.verdict is ScalarCurvatureVerdict.SCALAR_CURVATURE
    assert max(abs(fit.k_min), abs(fit.k_max)) <= 1e-6


def test_fit_klein_constant_minus_one(klein3):
    samples = tangent_samples(3, 100, seed=404)
    fit = analysis.scalar_curvature_fit(klein3.model, samples)
    assert fit.verdict is ScalarCurvatureVerdict.SCALAR_CURVATURE
    assert fit.k_min == pytest.approx(-1.0, abs=1e-6)
    assert fit.k_max == pytest.approx(-1.0, abs=1e-6)
    assert fit.k_spread <= 1e-6
    assert fit.max_residual <= 1e-6 * fit.scale


def _worst(model, samples, read):
    """The largest ``read(tensors)`` over the samples' pipeline passes, as
    ``invariants`` takes them."""
    return max(read(cli._pass(model, at, "ad")[0]) for at in samples)


def _rank_E(t):
    return analysis.numerical_rank(t["mean_berwald"].components)[0]


def _max_L(t):
    return t["landsberg"].max_abs()


def test_mean_berwald_rank(euclid3, funk3, gb3, samples10):
    rank_e = _worst(euclid3.model, samples10[:5], _rank_E)
    assert rank_e == 0
    rank_f = _worst(funk3.model, samples10[:5], _rank_E)
    assert rank_f == 0  # Berwald with a parallel form: rank <= n-2 = 1
    rank_g = _worst(gb3.model, samples10[:5], _rank_E)
    assert 0 <= rank_g <= 3


def test_scan_euclidean_inconclusive(euclid3):
    rep = analysis.parallel_obstruction_scan(euclid3.model, x_points=3,
                                             y_per_point=8, seed=5)
    # all constraint rows vanish: every constant form passes
    assert rep.max_kernel_dim == 3
    assert rep.intersection_kernel_dim == 3
    assert rep.branch == "inconclusive"
    assert not rep.obstructed


def test_scan_needs_samples(euclid3):
    with pytest.raises(InsufficientSamples):
        analysis.parallel_obstruction_scan(euclid3.model, y_per_point=3)


def test_scan_general_berwald_obstructed(gb3):
    rep = analysis.parallel_obstruction_scan(gb3.model, x_points=3,
                                             y_per_point=8, seed=7)
    assert rep.max_kernel_dim == 0
    assert rep.branch == "pointwise"
    assert rep.obstructed


def test_scan_klein_curvature_rows_only(klein3):
    rep = analysis.parallel_obstruction_scan(klein3.model, x_points=3,
                                             y_per_point=8, rows="curvature",
                                             seed=9)
    assert rep.max_kernel_dim == 0
    assert rep.branch == "pointwise"


def test_known_forms_lie_in_scan_kernel(euclid3, funk3):
    # Euclidean constants
    rep = analysis.parallel_obstruction_scan(euclid3.model, x_points=2,
                                             y_per_point=8, seed=3)
    for idx in range(2):
        assert kernel_residual(rep, idx, (1.0, 0.0, 0.0)) <= 1e-7

    # the funk_parallel family evaluated at each scanned x
    omega = funk3.parallel_family(c=1.0, c_mu=(0.0, 0.2))
    xs = base_points(3, 2, seed=13, radius=0.5)
    rep = analysis.parallel_obstruction_scan(funk3.model, x_points=xs,
                                             y_per_point=8, seed=13)
    for idx, x in enumerate(xs):
        b = omega.values(x)
        assert kernel_residual(rep, idx, b) <= 1e-7


def test_nonzero_scalar_curvature_blocks_forms(klein3):
    # numerical restatement: |K| bounded below implies empty kernel from
    # curvature rows alone
    samples = tangent_samples(3, 10, seed=6)
    fit = analysis.scalar_curvature_fit(klein3.model, samples)
    assert min(abs(fit.k_min), abs(fit.k_max)) >= 1e-3
    rep = analysis.parallel_obstruction_scan(klein3.model, x_points=4,
                                             y_per_point=8, rows="curvature",
                                             seed=11)
    assert rep.max_kernel_dim == 0


def test_landsberg_residual(euclid3, funk3, gb3, samples10):
    assert _worst(euclid3.model, samples10[:4], _max_L) <= 1e-12
    assert _worst(funk3.model, samples10[:4], _max_L) <= 1e-9
    assert _worst(gb3.model, samples10[:4], _max_L) > 1e-3


def test_surface_case_berwald_landsberg_cooccurrence():
    # n = 2: whenever the Landsberg tensor vanishes and the scan keeps a
    # kernel vector, the Berwald curvature must vanish too
    tol = 1e-8
    samples = tangent_samples(2, 6, seed=17)
    for name in catalogue.names():
        ent = catalogue.entry(name, n=2)
        passes = [cli._pass(ent.model, at, "ad")[0] for at in samples]
        lres = max(_max_L(t) for t in passes)
        rep = analysis.parallel_obstruction_scan(ent.model, x_points=3,
                                                 y_per_point=6, seed=19)
        if lres <= tol and rep.max_kernel_dim > 0:
            worst_b = max(t["berwald_curvature"].max_abs() for t in passes)
            assert worst_b <= tol
