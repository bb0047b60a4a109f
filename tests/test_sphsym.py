"""Spherically symmetric machinery: P/Q extraction, metrizability PDEs,
and the parallel-form characterisation."""

import json
import math

import numpy as np
import pytest

from finslercheck import catalogue, cli, geometry, taylor
from finslercheck.calculus import FD_BATCH, TangentSample
from finslercheck.config import build_config
from finslercheck.errors import FinslerCheckError, SingularDenominator
from finslercheck.expressions import compile_scalar
from finslercheck.forms import Verdict
from finslercheck.sampling import rs_grid, tangent_samples
from finslercheck.sphsym import (
    PQPair, RadialFactor, SphSymProfile, classify_profile,
    metrizability_residuals, parallel_form_check, parallel_pq, parallel_q,
    pq_from_profile, pq_of_jet, profile_metric, spray_from_pq,
    spray_model_from_pq, sss_residuals,
)
from oracles import connection_from_pq


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


def test_sphsym_takes_two_profile_jets_per_grid_batch(monkeypatch, capsys):
    # per batch of grid points one float jet of rows and one inside
    # pq.jets at Taylor rows; one for the (P, Q) spray of all 10 closure
    # samples, as rows
    calls = []
    jet = SphSymProfile.jet

    def counted(self, *args, **kwargs):
        calls.append(1)
        return jet(self, *args, **kwargs)

    monkeypatch.setattr(SphSymProfile, "jet", counted)
    argv = ["sphsym", "--phi", "berwald_classic", "--samples", "10",
            "--grid-nr", "7", "--grid-ns", "11"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    batches = -(-7 * 11 // FD_BATCH)
    assert batches == 2
    assert len(calls) == 2 * batches + 1


GRID_PROFILES = ["berwald_classic", "exp(0.1*s)+r*r", "sin(s)+2",
                 "sqrt(1+s*s)+r"]


def _profile(name):
    if name == "berwald_classic":
        return SphSymProfile(catalogue.berwald_classic_phi, name=name)
    return SphSymProfile(compile_scalar(name, ("r", "s")), name=name)


def _ragged_grid():
    grid = np.array(rs_grid(nr=7, ns=11))
    assert len(grid) > FD_BATCH and len(grid) % FD_BATCH
    return grid


@pytest.mark.parametrize("name", GRID_PROFILES)
def test_grid_rows_equal_the_per_point_functions(name):
    # every grid function on a batch of rows equals, bit for bit, the
    # same function at each of its points
    profile = _profile(name)
    pq = pq_from_profile(profile)
    factor = RadialFactor(compile_scalar("exp(r)+r*r", ("r",)))
    char_pq = parallel_pq(factor, compile_scalar("r*s/10-s", ("r", "s")))
    grid = _ragged_grid()
    for lo in range(0, len(grid), FD_BATCH):
        r, s = grid[lo:lo + FD_BATCH].T
        jet = profile.jet(r, s)
        got = (*pq.jets(r, s), *metrizability_residuals(jet, pq, (r, s)),
               *pq_of_jet(jet, r, s),
               *sss_residuals(factor, char_pq, (r, s)))
        assert all(v.shape == r.shape for v in got)
        for i, rs in enumerate(zip(r.tolist(), s.tolist())):
            jet = profile.jet(*rs)
            ref = (*pq.jets(*rs), *metrizability_residuals(jet, pq, rs),
                   *pq_of_jet(jet, *rs),
                   *sss_residuals(factor, char_pq, rs))
            assert np.array_equal([v[i] for v in got], ref), rs


@pytest.mark.parametrize("name", GRID_PROFILES)
def test_sphsym_grid_equals_the_per_point_loop(name, tmp_path, capsys):
    # the sweep, the residual maxima and the classification of the batched
    # command are those of a loop over the grid points
    profile = _profile(name)
    pq = pq_from_profile(profile)
    grid = [tuple(rs) for rs in _ragged_grid().tolist()]
    rows, jets = [], []
    for rs in grid:
        jets.append(profile.jet(*rs))
        pv, qv = pq_of_jet(jets[-1], *rs)
        rows.append((*rs, pv, qv,
                     *metrizability_residuals(jets[-1], pq, rs)))
    sweep = tmp_path / "sweep.csv"
    out = tmp_path / "report.json"
    assert cli.main(["sphsym", "--phi", name, "--samples", "10",
                     "--grid-nr", "7", "--grid-ns", "11",
                     "--sweep", str(sweep), "--out", str(out)]) in (0, 1)
    capsys.readouterr()
    lines = sweep.read_text().splitlines()[1:]
    assert lines == [",".join(format(v, ".17g") for v in row) for row in rows]
    report = json.loads(out.read_text())
    checks = {c["name"]: c["max_residual"] for c in report["checks"]}
    assert checks["metrizability_pde_1"] == max(row[4] for row in rows)
    assert checks["metrizability_pde_2"] == max(row[5] for row in rows)
    assert checks["max_abs_Q"] == max(abs(row[3]) for row in rows)
    assert report["verdicts"]["classification"] \
        == classify_profile(jets, grid)


def _first_error(profile, grid):
    """The first error of the per-point grid loop, and its point."""
    pq = pq_from_profile(profile)
    for rs in grid:
        try:
            jet = profile.jet(*rs)
            metrizability_residuals(jet, pq, rs)
            pq_of_jet(jet, *rs)
            float(profile.phi(*rs))
        except FinslerCheckError as exc:
            return exc, rs
    raise AssertionError("the per-point loop raised no error")


# the Q-denominator 2 (r - r5)^2 vanishes at the sixth r of the 7 x 11
# grid, in the first batch; sqrt leaves its domain at the last r, in the
# second
FAILING_PROFILES = ["(r-0.50833333333333330)^2*(2+s)", "sqrt(0.55-r)+0.1*s"]


@pytest.mark.parametrize("phi", FAILING_PROFILES)
def test_grid_failure_is_the_first_failing_points_own(phi, capsys):
    grid = [tuple(rs) for rs in _ragged_grid().tolist()]
    ref, (r, s) = _first_error(_profile(phi), grid)
    where = f"(r, s) = ({r:g}, {s:g})"
    want = str(ref) if where in str(ref) \
        else f"{ref} at the grid point {where}"
    argv = ["sphsym", "--phi", phi, "--grid-nr", "7", "--grid-ns", "11",
            "--samples", "10"]
    cfg = build_config("sphsym", {}, {"phi": phi, "grid_nr": "7",
                                      "grid_ns": "11", "samples": "10"})
    with pytest.raises(type(ref)) as err:
        cli.run_sphsym(cfg)
    assert str(err.value) == want
    assert 0 < grid.index((r, s)) < len(grid) - 1
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"numeric domain error: {want}\n"


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


def test_parallel_q_evaluates_f_once_and_its_jet_once():
    # one float f(r) serves the guard and the formula; f' takes one jet
    calls = []

    def f(r):
        calls.append(r)
        return 1.0 + r * r

    q = parallel_q(RadialFactor(f), lambda r, s: r * s / 10.0, (0.5, 0.2))
    assert len(calls) == 2
    assert q == pytest.approx(0.2 ** 2 * 1.0 / (2 * 0.5 ** 3 * 1.25)
                              - 0.2 * 0.01 / 0.25 + 1 / (2 * 0.25))


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
