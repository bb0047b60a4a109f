"""Spherically symmetric machinery: P/Q extraction, metrizability PDEs,
and the parallel-form characterisation."""

import math

import numpy as np
import pytest

from finslercheck import catalogue, cli, geometry, sphsym, taylor
from finslercheck.calculus import TangentSample, jet_of
from finslercheck.errors import SingularDenominator
from finslercheck.forms import Verdict
from finslercheck.sampling import rs_grid, tangent_samples
from finslercheck.sphsym import (
    PQPair, RadialFactor, SphSymProfile, classify_profile,
    connection_from_pq, metrizability_residuals, parallel_form_check,
    parallel_pq, parallel_q, pq_from_profile, profile_metric, spray_from_pq,
    spray_model_from_pq, sss_residuals,
)


@pytest.fixture(scope="module")
def classic_profile():
    return SphSymProfile(catalogue.berwald_classic_phi, r0=1.0,
                         name="berwald_classic")


@pytest.fixture(scope="module")
def flat_profile():
    return SphSymProfile(lambda r, s: 1.0 + 0.0 * r, name="euclidean")


def classic_P(r, s):
    return (math.sqrt(1.0 - r * r + s * s) + s) / (1.0 - r * r)


def test_flat_profile_pq(flat_profile):
    P, Q = pq_from_profile(flat_profile).PQ(0.3, 0.1)
    assert P == pytest.approx(0.0, abs=1e-14)
    assert Q == pytest.approx(0.0, abs=1e-14)


def test_classic_profile_pq_near_origin(classic_profile):
    r, s = 1e-3, 0.0
    P, Q = pq_from_profile(classic_profile).PQ(r, s)
    assert abs(Q) <= 1e-8
    assert P == pytest.approx(classic_P(r, s), abs=1e-8)
    assert P == pytest.approx(1.0, abs=1e-5)


def test_classic_profile_pq_grid(classic_profile):
    pq = pq_from_profile(classic_profile)
    for (r, s) in rs_grid(nr=20, ns=20):
        P, Q = pq.PQ(r, s)
        assert abs(Q) <= 1e-8
        assert abs(P - classic_P(r, s)) <= 1e-8


def test_spray_from_pq_trivial(flat_profile):
    pq = pq_from_profile(flat_profile)
    at = TangentSample((0.3, 0.1, -0.2), (0.5, -0.5, 0.7))
    assert spray_from_pq(pq, at).max_abs() <= 1e-12


def test_spray_from_pq_classic_origin(classic_profile):
    pq = pq_from_profile(classic_profile)
    # r must stay positive; at tiny r the spray approaches |y| y
    at = TangentSample((1e-8, 0.0, 0.0), (1.0, 0.0, 0.0))
    G = spray_from_pq(pq, at).components
    np.testing.assert_allclose(G, [1.0, 0.0, 0.0], atol=1e-6)


def test_pq_spray_matches_ad_spray(classic_profile):
    pq = pq_from_profile(classic_profile)
    model = profile_metric(classic_profile, 3)
    for at in tangent_samples(3, 10, seed=21, r_min=0.05):
        G1 = spray_from_pq(pq, at).components
        G2 = geometry.spray_coefficients(model, at).components
        assert np.max(np.abs(G1 - G2)) <= 1e-7 * (1.0 + np.max(np.abs(G2)))


def test_connection_from_pq_matches_jets(classic_profile):
    pq = pq_from_profile(classic_profile)
    model = spray_model_from_pq(pq, 3)
    full = profile_metric(classic_profile, 3)
    for at in tangent_samples(3, 5, seed=22, r_min=0.05):
        N_cf = connection_from_pq(pq, at).components
        N_jet = geometry.nonlinear_connection(model, at).components
        assert np.max(np.abs(N_cf - N_jet)) <= 1e-8 * (1.0 + np.max(np.abs(N_jet)))
        N_full = geometry.nonlinear_connection(full, at).components
        assert np.max(np.abs(N_cf - N_full)) <= 1e-7 * (1.0 + np.max(np.abs(N_full)))
        # Euler check
        y = np.array(at.y)
        G = spray_from_pq(pq, at).components
        assert np.max(np.abs(N_cf @ y - 2 * G)) <= 1e-9 * (1.0 + np.max(np.abs(G)))


def test_spray_from_pq_homogeneous():
    f = RadialFactor(lambda r: 1.0, df=lambda r: 0.0)
    pq = parallel_pq(f, lambda r, s: r * s / 10.0)
    x = (0.3, -0.2, 0.4)
    y = (0.5, 0.8, -0.1)
    G1 = spray_from_pq(pq, TangentSample(x, y)).components
    lam = 1.7
    G2 = spray_from_pq(pq, TangentSample(x, tuple(lam * v for v in y))).components
    assert np.max(np.abs(G2 - lam ** 2 * G1)) <= 1e-10 * (1 + np.max(np.abs(G1)))


def test_one_profile_jet_per_pq_evaluation(classic_profile, monkeypatch):
    # P and Q come from one profile jet: one per spray evaluation (floats
    # or Taylor scalars), one per metrizability residual call besides the
    # jet it is given
    calls = []
    jet = SphSymProfile.jet

    def counted(self, *args, **kwargs):
        calls.append(1)
        return jet(self, *args, **kwargs)

    monkeypatch.setattr(SphSymProfile, "jet", counted)
    pq = pq_from_profile(classic_profile)
    at = TangentSample((0.3, 0.1, -0.2), (0.5, -0.5, 0.7))
    spray_from_pq(pq, at)
    assert len(calls) == 1
    model = spray_model_from_pq(pq, 3)
    model.spray_override(at.x, at.y)
    assert len(calls) == 2
    geometry.spray_jets(model, at, 1, 2)
    assert len(calls) == 3
    metrizability_residuals(classic_profile.jet(0.4, 0.2), pq, (0.4, 0.2))
    assert len(calls) == 5


def test_sphsym_takes_one_profile_jet_per_grid_point(monkeypatch, capsys):
    # per grid point one float jet and one inside pq.jets at Taylor-valued
    # (r, s); one per closure sample for the (P, Q) spray
    calls = []
    jet = SphSymProfile.jet

    def counted(self, *args, **kwargs):
        calls.append(1)
        return jet(self, *args, **kwargs)

    monkeypatch.setattr(SphSymProfile, "jet", counted)
    argv = ["sphsym", "--phi", "berwald_classic", "--samples", "10",
            "--grid-nr", "4", "--grid-ns", "4"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 2 * 4 * 4 + 10


def test_metrizability_residuals_trivial(flat_profile):
    pq = pq_from_profile(flat_profile)
    r1, r2 = metrizability_residuals(flat_profile.jet(0.4, 0.2), pq,
                                     (0.4, 0.2))
    assert r1 <= 1e-14 and r2 <= 1e-14


def test_metrizability_residuals_classic_self_consistent(classic_profile):
    pq = pq_from_profile(classic_profile)
    for (r, s) in rs_grid(nr=10, ns=10):
        r1, r2 = metrizability_residuals(classic_profile.jet(r, s), pq,
                                         (r, s))
        assert r1 <= 1e-7 and r2 <= 1e-7


def test_metrizability_residuals_detect_wrong_spray(flat_profile):
    # Euclidean profile with an alien Q: first PDE residual |s| / r^2 > 0
    pq = PQPair(lambda r, s: (0.0, 1.0 / (2.0 * r * r)))
    r, s = 0.5, 0.3
    r1, r2 = metrizability_residuals(flat_profile.jet(r, s), pq, (r, s))
    assert r1 == pytest.approx(abs(s) / r ** 2, rel=1e-10)
    assert r1 > 0.1


def test_parallel_q_values():
    f = RadialFactor(lambda r: 1.0, df=lambda r: 0.0)
    assert parallel_q(f, lambda r, s: 0.0, (1.0, 0.3)) == pytest.approx(0.5)
    assert parallel_q(f, lambda r, s: r * s / 10.0, (1.0, 0.3)) == pytest.approx(0.491)
    with pytest.raises(SingularDenominator):
        parallel_q(f, 0.0, (0.0, 0.0))
    fzero = RadialFactor(lambda r: 0.0, df=lambda r: 0.0)
    with pytest.raises(SingularDenominator):
        parallel_q(fzero, 0.0, (0.5, 0.1))


FACTORS = [
    RadialFactor(lambda r: 1.0, df=lambda r: 0.0, name="1"),
    RadialFactor(lambda r: 1.0 + r * r, df=lambda r: 2.0 * r, name="1+r^2"),
    RadialFactor(lambda r: math.exp(r) if isinstance(r, float) else r.exp(),
                 name="e^r"),
]

P_CHOICES = [
    ("0", lambda r, s: 0.0),
    ("rs/10", lambda r, s: r * s / 10.0),
    ("s^2", lambda r, s: s * s),
]


@pytest.mark.parametrize("factor", FACTORS, ids=lambda f: f.name)
@pytest.mark.parametrize("pname,P", P_CHOICES, ids=lambda v: v if isinstance(v, str) else "")
def test_characterised_q_is_an_identity(factor, pname, P):
    # substituting the characterised Q annihilates all three conditions
    pq = parallel_pq(factor, P)
    for (r, s) in rs_grid(r_lo=0.1, r_hi=0.8, nr=6, ns=6):
        r1, r2, r3 = sss_residuals(factor, pq, (r, s))
        assert abs(r1) <= 1e-10
        assert abs(r2) <= 1e-10
        assert abs(r3) <= 1e-10


def test_sss_residuals_euclidean_not_parallel():
    f = RadialFactor(lambda r: 1.0, df=lambda r: 0.0)
    r1, r2, r3 = sss_residuals(f, PQPair(lambda r, s: (0.0, 0.0)), (1.0, 0.0))
    assert r3 == pytest.approx(1.0)


def test_sss_linear_combination_identity():
    f = FACTORS[1]
    P = P_CHOICES[1][1]
    # arbitrary Q, identity must hold
    pq = PQPair(lambda rr, ss: (P(rr, ss), 0.3 + 0.0 * rr))
    rng = np.random.default_rng(8)
    for _ in range(10):
        r = float(rng.uniform(0.1, 0.9))
        s = float(rng.uniform(-0.9 * r, 0.9 * r))
        r1, r2, r3 = sss_residuals(f, pq, (r, s))
        assert abs(s * r1 + r2 - r3) <= 1e-12 * (1 + abs(r3))


def test_parallel_form_check_positive_case():
    f = RadialFactor(lambda r: 1.0, df=lambda r: 0.0)
    pq = parallel_pq(f, lambda r, s: r * s / 10.0)
    samples = tangent_samples(3, 30, seed=77, radius=0.9, r_min=0.1)
    rep = parallel_form_check(pq, f, samples, n=3)
    assert rep.verdict is Verdict.PARALLEL_WITHIN_TOL
    assert rep.max_delta <= 1e-7
    assert rep.notes["expansion_gap"] <= 1e-9


def test_parallel_form_check_euclidean_negative():
    f = RadialFactor(lambda r: 1.0, df=lambda r: 0.0)
    pq = PQPair(lambda r, s: (0.0, 0.0), source="euclidean")
    samples = tangent_samples(3, 15, seed=78, radius=0.9, r_min=0.3)
    rep = parallel_form_check(pq, f, samples, n=3)
    assert rep.verdict is Verdict.NOT_PARALLEL
    assert rep.max_delta >= 0.5


def test_parallel_form_check_classic_negative(classic_profile):
    pq = pq_from_profile(classic_profile)
    f = RadialFactor(lambda r: 1.0, df=lambda r: 0.0)
    samples = tangent_samples(3, 12, seed=79, radius=0.6, r_min=0.1)
    rep = parallel_form_check(pq, f, samples, n=3)
    assert rep.verdict is Verdict.NOT_PARALLEL


def test_classify_profile(classic_profile):
    def classify(profile, grid):
        return classify_profile([profile.jet(*rs) for rs in grid], grid)

    grid = rs_grid(nr=8, ns=8)
    assert classify(classic_profile, grid) == "generic"
    riem = SphSymProfile(lambda r, s: 1.0 + r * r / 2.0)
    assert classify(riem, grid) == "riemannian"
    sgrid = [(r, s) for (r, s) in grid if s > 0.01]
    lin = SphSymProfile(lambda r, s: (1.0 + r * r) * s)
    assert classify(lin, sgrid) == "degenerate_linear"


def test_singular_denominator_raised():
    # phi = sqrt(1 - s^2/(r^2))-like profile engineered to kill the
    # denominator: phi - s phi_s + (r^2 - s^2) phi_ss = 0 for phi = s
    prof = SphSymProfile(lambda r, s: s + 0.0 * r)
    pq = pq_from_profile(prof)
    with pytest.raises(SingularDenominator):
        pq.PQ(0.5, 0.2)


def test_sphsym_builds_only_flat_algebras(monkeypatch, capsys):
    # profile jets at Taylor-valued (r, s) are composed from float jets,
    # so no algebra gains blocks beyond one per jet group
    monkeypatch.setattr(taylor, "_ALGEBRAS", {})
    argv = ["sphsym", "--phi", "berwald_classic", "--samples", "100",
            "--f", "1", "--P", "r*s/10", "--seed", "0"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    built = list(taylor._ALGEBRAS)
    assert built and max(len(blocks) for blocks in built) <= 2
