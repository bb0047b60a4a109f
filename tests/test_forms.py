"""Parallelness machinery: covariant derivatives, d_R, Randers lift,
functional independence."""

import numpy as np
import pytest

from finslercheck import catalogue, forms, geometry
from finslercheck.calculus import TangentSample, jet_of_many
from finslercheck.errors import BadParameter, InsufficientSamples, NotPositive
from finslercheck.forms import OneForm, Verdict
from finslercheck.sampling import tangent_samples
from oracles import annihilation_check, m_covector


@pytest.fixture(scope="module")
def funk_family(funk3):
    return funk3.parallel_family(c=1.0, c_mu=(0.0, 0.2))


def x_form(n=3):
    return OneForm(n, lambda x: tuple(x), name="b_i=x_i")


def covariant(model, omega, at):
    """b_{i|j} from the Berwald connection and delta beta at the sample."""
    return forms.covariant_derivative(
        omega, at, geometry.berwald_connection(model, at),
        forms.delta_beta(model, omega, at))


def d_R_beta(model, omega, at):
    phi = geometry.jacobi_endomorphism(model, at)
    return forms.d_R_beta(omega, at, geometry.curvature_R(model, at, phi))


def test_covariant_derivative_constant(euclid3):
    omega = OneForm.constant((0.7, -0.2, 0.1))
    at = TangentSample((0.4, 0.1, -0.3), (0.2, 0.9, -0.5))
    assert covariant(euclid3.model, omega, at).max_abs() <= 1e-14


def test_covariant_derivative_linear_b(euclid3):
    at = TangentSample((0.4, 0.1, -0.3), (0.2, 0.9, -0.5))
    cov = covariant(euclid3.model, x_form(), at).components
    np.testing.assert_allclose(cov, np.eye(3), atol=1e-12)


def test_covariant_derivative_funk_family(funk3, funk_family):
    omega = funk3.parallel_family(c=1.0, c_mu=(0.0, 0.0))
    for at in tangent_samples(3, 20, seed=11):
        assert covariant(funk3.model, omega, at).max_abs() <= 1e-8
    for at in tangent_samples(3, 20, seed=12):
        assert covariant(funk3.model, funk_family, at).max_abs() <= 1e-8


def test_covariant_derivative_records_delta_beta(funk3, funk_family):
    # the notes equal the y^i b_i|j = delta_j beta check recomputed here
    for at in tangent_samples(3, 5, seed=13):
        cov = covariant(funk3.model, funk_family, at)
        delta = forms.delta_beta(funk3.model, funk_family, at).components
        max_delta = float(np.max(np.abs(delta)))
        resid = float(np.max(np.abs(np.asarray(at.y) @ cov.components - delta)))
        assert cov.notes["max_delta"] == max_delta
        assert cov.notes["delta_residual"] == resid / (1.0 + max_delta)


def test_fiber_derivative_of_delta_beta_is_covariant_derivative(funk3):
    # dy_i(delta_j beta) = b_{i|j}, probed by finite differences in y
    omega = funk3.parallel_family(c=0.3, c_mu=(0.1, 0.0))
    at = TangentSample((0.2, -0.1, 0.3), (0.6, 0.7, -0.3))
    cov = covariant(funk3.model, omega, at).components
    beta = omega.beta()
    fd = jet_of_many(lambda x, y: geometry.delta_derivative(
        funk3.model, beta, TangentSample(x, y)).components,
        (at.x, at.y), (0, 1), scheme="fd")
    for i in range(3):
        for j in range(3):
            assert fd[j].pvars((), (i,)) == pytest.approx(cov[i, j], abs=1e-8)


def test_d_r_beta_euclidean(euclid3):
    omega = OneForm.constant((1.0, 2.0, 3.0))
    at = TangentSample((0.3, 0.0, -0.1), (1.0, -0.4, 0.2))
    two, contr = d_R_beta(euclid3.model, omega, at)
    assert two.max_abs() <= 1e-12
    assert contr.max_abs() <= 1e-12


def test_d_r_beta_klein_frozen(klein3):
    # fitted K = -1 and metric-lowered y give contracted form (0, -1, 0)
    omega = OneForm.constant((0.0, 1.0, 0.0))
    at = TangentSample((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    two, contr = d_R_beta(klein3.model, omega, at)
    np.testing.assert_allclose(contr.components, [0.0, -1.0, 0.0], atol=1e-9)
    assert two.symmetry_violation() == 0.0


def test_d_r_beta_classic_zero(classic3):
    omega = OneForm.constant((0.4, -0.7, 0.2))
    for at in tangent_samples(3, 5, seed=31):
        two, contr = d_R_beta(classic3.model, omega, at)
        f2 = 2.0 * geometry.energy(classic3.model, at)
        assert two.max_abs() <= 1e-6 * f2


def test_m_covector_euclidean(euclid3):
    omega = OneForm.constant((1.0, 0.0, 0.0))
    at_par = TangentSample((0.2, 0.0, 0.0), (1.0, 0.0, 0.0))
    ell = geometry.hilbert_form(euclid3.model, at_par)
    assert m_covector(omega, at_par, ell).max_abs() <= 1e-14
    at_perp = TangentSample((0.2, 0.0, 0.0), (0.0, 1.0, 0.0))
    ell = geometry.hilbert_form(euclid3.model, at_perp)
    np.testing.assert_allclose(
        m_covector(omega, at_perp, ell).components,
        [1.0, 0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("name", ["euclidean", "klein", "funk_parallel",
                                  "berwald_classic", "general_berwald"])
def test_m_covector_not_identically_zero(name):
    # y-sweep restatement of the nonvanishing lemma
    ent = catalogue.entry(name, n=3)
    omega = OneForm.constant((0.6, -0.3, 0.1))
    x = (0.2, 0.1, -0.25)
    rng = np.random.default_rng(77)
    best = 0.0
    for _ in range(50):
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        at = TangentSample(x, tuple(y))
        ell = geometry.hilbert_form(ent.model, at)
        best = max(best, m_covector(omega, at, ell).max_abs())
    assert best > 1e-8


def test_is_parallel_euclidean_constant(euclid3, samples10):
    omega = OneForm.constant((0.3, 0.4, -0.1))
    rep = forms.is_parallel(euclid3.model, omega, samples10)
    assert rep.verdict is Verdict.PARALLEL_WITHIN_TOL


def test_is_parallel_linear_b_fails(euclid3, samples10):
    rep = forms.is_parallel(euclid3.model, x_form(), samples10)
    assert rep.verdict is Verdict.NOT_PARALLEL
    assert rep.max_covariant == pytest.approx(1.0, rel=1e-9)


def test_is_parallel_needs_samples(euclid3):
    omega = OneForm.constant((1.0, 0.0, 0.0))
    with pytest.raises(InsufficientSamples):
        forms.is_parallel(euclid3.model, omega, tangent_samples(3, 5, seed=1))


def test_is_parallel_funk_family(funk3, funk_family, samples20):
    rep = forms.is_parallel(funk3.model, funk_family, samples20, tol=1e-7)
    assert rep.verdict is Verdict.PARALLEL_WITHIN_TOL
    assert max(rep.max_covariant, rep.max_delta, rep.max_curvature) <= 1e-7


def test_is_parallel_fd_scheme(funk3, samples10):
    # the finite-difference scheme carries its own looser default tolerance;
    # a spray-only model keeps the fd evaluation count manageable
    model = geometry.MetricModel(3, None, funk3.model.domain,
                                 spray_override=funk3.spray_cf,
                                 name="funk_spray_only")
    omega = funk3.parallel_family(c=1.0, c_mu=(0.0, 0.0))
    rep = forms.is_parallel(model, omega, samples10, scheme="fd")
    assert rep.tolerance == 1e-4
    assert rep.verdict is Verdict.PARALLEL_WITHIN_TOL
    bad = OneForm(3, lambda x: tuple(x))
    rep_bad = forms.is_parallel(model, bad, samples10, scheme="fd")
    assert rep_bad.verdict is Verdict.NOT_PARALLEL


def test_randers_lift_euclidean(euclid3):
    omega = OneForm.constant((0.5, 0.0, 0.0))
    lift = forms.randers_lift(euclid3.model, omega)
    at = TangentSample((0.1, 0.2, 0.3), (0.0, 1.0, 0.0))
    assert lift.F(at.x, at.y) == pytest.approx(1.0)
    with pytest.raises(NotPositive):
        forms.randers_lift(euclid3.model, OneForm.constant((2.0, 0.0, 0.0)))


def test_randers_lift_of_parallel_form_shares_spray(funk3):
    omega = funk3.parallel_family(c=0.15, c_mu=(0.0, 0.03))
    lift = forms.randers_lift(funk3.model, omega)
    for at in tangent_samples(3, 10, seed=41):
        G0 = geometry.spray_coefficients(funk3.model, at).components
        G1 = geometry.spray_coefficients(lift, at).components
        assert np.max(np.abs(G0 - G1)) <= 1e-7 * (1.0 + np.max(np.abs(G0)))


def test_functional_independence_frozen_rows(euclid3):
    omega = OneForm.constant((1.0, 0.0, 0.0))
    at_rank2 = TangentSample((0.1, -0.2, 0.0), (0.0, 1.0, 0.0))
    assert forms.functional_independence(
        euclid3.model, omega, "randers", [at_rank2]) == 2
    # on the ray y || b the two gradients are collinear
    at_rank1 = TangentSample((0.1, -0.2, 0.0), (1.0, 0.0, 0.0))
    assert forms.functional_independence(
        euclid3.model, omega, "randers", [at_rank1]) == 1
    assert forms.functional_independence(
        euclid3.model, omega, "randers", [at_rank1, at_rank2]) == 2


def test_functional_independence_funk(funk3, funk_family, samples20):
    assert forms.functional_independence(
        funk3.model, funk_family, "randers", samples20) == 2
    assert forms.functional_independence(
        funk3.model, funk_family, "exp", samples20[:5]) == 2


def test_functional_independence_without_samples_raises(funk3, funk_family):
    # rank 0 would read as "dependent" where nothing was measured
    for samples in ((), []):
        with pytest.raises(InsufficientSamples):
            forms.functional_independence(funk3.model, funk_family,
                                          "randers", samples)
    with pytest.raises(InsufficientSamples):
        forms.functional_independence(funk3.model, funk_family)


def test_functional_independence_unknown_phi_names_the_choices(
        funk3, funk_family, samples20):
    with pytest.raises(BadParameter) as err:
        forms.functional_independence(funk3.model, funk_family, "cosh",
                                      samples20[:1])
    assert "'cosh'" in str(err.value)
    assert all(repr(name) in str(err.value) for name in forms.PHI_CHOICES)


def test_annihilation_check(euclid3, funk3, gb3):
    omega = OneForm.constant((1.0, 0.0, 0.0))
    at = TangentSample((0.25, -0.1, 0.2), (0.3, 0.8, -0.5))

    def check(model, omega):
        return annihilation_check(
            omega, at, geometry.berwald_curvature(model, at),
            geometry.hilbert_form(model, at))

    r_ell, r_b = check(euclid3.model, omega)
    assert r_ell <= 1e-12 and r_b <= 1e-12
    omega_f = funk3.parallel_family(c=1.0, c_mu=(0.0, 0.0))
    r_ell, r_b = check(funk3.model, omega_f)
    assert r_ell <= 1e-9 and r_b <= 1e-9
    # non-Landsberg metric: a generic constant b is not annihilated
    r_ell, r_b = check(gb3.model, omega)
    assert r_b > 1e-3
