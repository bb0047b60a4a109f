"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them live, or ``-rA`` for the captured output)."""

import json
import math
import time

import numpy as np

from finslercheck import analysis, catalogue, cli, forms, geometry, sphsym
from finslercheck.analysis import ScalarCurvatureVerdict
from finslercheck.config import build_config
from finslercheck.forms import OneForm, Verdict
from finslercheck.sampling import rs_grid, tangent_samples
from finslercheck.sphsym import RadialFactor, SphSymProfile


def criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"acceptance {num:02d} {status}: {description}{tail}")
    assert ok, f"criterion {num}: {description} {tail}"


def test_01_closed_form_oracle_agreement():
    t0 = time.monotonic()
    ent = catalogue.entry("general_berwald", n=3, a=(0.1, 0.05, 0.0))
    worst = 0.0
    for at in tangent_samples(3, 100, seed=2024, radius=0.6):
        B = geometry.berwald_curvature(ent.model, at).components
        C = ent.berwald_curvature_cf(at.x, at.y)
        scale = max(1.0, float(np.max(np.abs(C))))
        worst = max(worst, float(np.max(np.abs(B - C))) / scale)
    elapsed = time.monotonic() - t0
    criterion(1, "pipeline Berwald curvature matches the closed form at "
                 "100 samples (rel 1e-6, under 60 s)",
              worst <= 1e-6 and elapsed <= 60.0,
              f"rel={worst:.2e}, {elapsed:.1f}s")


def test_02_parallel_family_positive_case():
    ent = catalogue.entry("funk_parallel", n=3, a=(0.5, 0.1, 0.0))
    omega = ent.parallel_family(c=1.0, c_mu=(0.0, 0.2))
    samples = tangent_samples(3, 100, seed=7, radius=0.6)
    rep = forms.is_parallel(ent.model, omega, samples, tol=1e-7)
    worst_spray = 0.0
    a = ent.params["a"]
    for at in samples[:100]:
        G = geometry.spray_coefficients(ent.model, at).components
        q = -float(np.dot(a, at.y)) / (1.0 + float(np.dot(a, at.x)))
        ref = q * np.asarray(at.y)
        worst_spray = max(worst_spray, float(np.max(np.abs(G - ref))))
    ok = (rep.verdict is Verdict.PARALLEL_WITHIN_TOL
          and max(rep.max_covariant, rep.max_delta, rep.max_curvature) <= 1e-7
          and worst_spray <= 1e-9)
    criterion(2, "the built-in parallel family passes all three residuals "
                 "and the spray matches its closed form to 1e-9",
              ok, f"cov={rep.max_covariant:.1e}, delta={rep.max_delta:.1e}, "
                  f"dR={rep.max_curvature:.1e}, spray={worst_spray:.1e}")


def test_03_general_berwald_obstruction():
    ent = catalogue.entry("general_berwald", n=3, a=(0.1, 0.05, 0.0))
    rep = analysis.parallel_obstruction_scan(ent.model, x_points=5,
                                             y_per_point=20, seed=31)
    kdims = [r["kernel_dim"] for r in rep.per_x]
    criterion(3, "parallel-form obstruction scan finds empty kernels for "
                 "the general Berwald metric (branch reported)",
              rep.obstructed and len(kdims) >= 5,
              f"kernel dims {kdims}, branch={rep.branch}")


def test_04_nonzero_scalar_curvature_blocks_forms():
    ent = catalogue.entry("klein", n=3)
    samples = tangent_samples(3, 100, seed=41, radius=0.6)
    fit = analysis.scalar_curvature_fit(ent.model, samples, tol=1e-6)
    rep = analysis.parallel_obstruction_scan(ent.model, x_points=5,
                                             y_per_point=20,
                                             rows="curvature", seed=43)
    ok = (fit.verdict is ScalarCurvatureVerdict.SCALAR_CURVATURE
          and abs(fit.k_min + 1.0) <= 1e-6 and abs(fit.k_max + 1.0) <= 1e-6
          and fit.max_residual <= 1e-6 * fit.scale
          and rep.max_kernel_dim == 0)
    criterion(4, "Klein metric fits constant curvature K = -1 and its "
                 "curvature rows alone exclude parallel forms",
              ok, f"K in [{fit.k_min:.8f}, {fit.k_max:.8f}], "
                  f"residual={fit.max_residual:.1e}, "
                  f"max kernel={rep.max_kernel_dim}")


def test_05_classic_metric_zero_flag_curvature():
    ent = catalogue.entry("berwald_classic", n=3)
    worst = 0.0
    for at in tangent_samples(3, 100, seed=51, radius=0.6):
        phi = geometry.jacobi_endomorphism(ent.model, at).max_abs()
        f2 = 2.0 * geometry.energy(ent.model, at)
        worst = max(worst, phi / f2)
    criterion(5, "Jacobi endomorphism of the classic projectively flat "
                 "metric vanishes to 1e-6 * F^2 at 100 samples",
              worst <= 1e-6, f"max |Phi|/F^2 = {worst:.2e}")


def test_06_profile_machinery_closure():
    profile = SphSymProfile(catalogue.berwald_classic_phi, r0=1.0,
                            name="berwald_classic")
    pq = sphsym.pq_from_profile(profile)
    grid = rs_grid(nr=20, ns=20)
    worst_q = worst_p = worst_pde = 0.0
    for (r, s) in grid:
        P, Q = pq.PQ(r, s)
        worst_q = max(worst_q, abs(Q))
        oracle = (math.sqrt(1.0 - r * r + s * s) + s) / (1.0 - r * r)
        worst_p = max(worst_p, abs(P - oracle))
        worst_pde = max(worst_pde,
                        *sphsym.metrizability_residuals(profile.jet(r, s), pq,
                                                        (r, s)))
    model = sphsym.profile_metric(profile, 3)
    worst_spray = 0.0
    for at in tangent_samples(3, 100, seed=61, radius=0.6, r_min=0.05):
        G1 = sphsym.spray_from_pq(pq, at).components
        G2 = geometry.spray_coefficients(model, at).components
        scale = 1.0 + float(np.max(np.abs(G2)))
        worst_spray = max(worst_spray, float(np.max(np.abs(G1 - G2))) / scale)
    ok = (worst_q <= 1e-8 and worst_p <= 1e-8 and worst_pde <= 1e-7
          and worst_spray <= 1e-7)
    criterion(6, "profile machinery closes: Q = 0, P matches its closed "
                 "form, both metrizability PDEs hold, spray agrees with AD",
              ok, f"|Q|={worst_q:.1e}, dP={worst_p:.1e}, "
                  f"PDE={worst_pde:.1e}, spray={worst_spray:.1e}")


def test_07_characterised_q_constructive_check():
    factor = RadialFactor(lambda r: 1.0, df=lambda r: 0.0, name="1")
    p_map = lambda r, s: r * s / 10.0
    pq = sphsym.parallel_pq(factor, p_map)
    worst_sss = 0.0
    for rs in rs_grid(r_lo=0.1, r_hi=0.8, nr=10, ns=10):
        r1, r2, _ = sphsym.sss_residuals(factor, pq, rs)
        worst_sss = max(worst_sss, abs(r1), abs(r2))
    samples = tangent_samples(3, 100, seed=71, radius=0.9, r_min=0.1)
    rep = sphsym.parallel_form_check(pq, factor, samples, n=3)
    ok = (worst_sss <= 1e-10 and rep.max_delta <= 1e-7
          and rep.verdict is Verdict.PARALLEL_WITHIN_TOL)
    criterion(7, "the characterised Q makes beta = <x,y> parallel for "
                 "P = rs/10 and satisfies both reduced conditions",
              ok, f"identity={worst_sss:.1e}, delta={rep.max_delta:.1e}")


def test_08_randers_lift_shares_spray():
    ent = catalogue.entry("funk_parallel", n=3, a=(0.5, 0.1, 0.0))
    omega = ent.parallel_family(c=0.15, c_mu=(0.0, 0.03))
    lift = forms.randers_lift(ent.model, omega)
    samples = tangent_samples(3, 100, seed=81, radius=0.6)
    worst_spray = 0.0
    for at in samples:
        G0 = geometry.spray_coefficients(ent.model, at).components
        G1 = geometry.spray_coefficients(lift, at).components
        scale = 1.0 + float(np.max(np.abs(G0)))
        worst_spray = max(worst_spray, float(np.max(np.abs(G1 - G0))) / scale)
    worst_ell = worst_b = 0.0
    for at in samples[:25]:
        B = geometry.berwald_curvature(lift, at).components
        ell = geometry.hilbert_form(lift, at).components
        b = omega.values(at.x)
        worst_ell = max(worst_ell,
                        float(np.max(np.abs(np.einsum("hijk,h->ijk", B, ell)))))
        worst_b = max(worst_b,
                      float(np.max(np.abs(np.einsum("hijk,h->ijk", B, b)))))
    rank = forms.functional_independence(ent.model, omega, "randers",
                                         samples[:20])
    ok = (worst_spray <= 1e-7 and worst_ell <= 1e-7 and worst_b <= 1e-7
          and rank == 2)
    criterion(8, "the Randers lift by a parallel form keeps the spray, "
                 "stays Landsberg-annihilated, and is functionally "
                 "independent of F",
              ok, f"spray={worst_spray:.1e}, lG={worst_ell:.1e}, "
                  f"bG={worst_b:.1e}, rank={rank}")


BATTERY_PARAMS = {
    "funk_parallel": {2: (0.5, 0.1), 3: (0.5, 0.1, 0.0),
                      4: (0.5, 0.1, 0.0, 0.0)},
    "general_berwald": {2: (0.1, 0.05), 3: (0.1, 0.05, 0.0),
                        4: (0.1, 0.05, 0.0, 0.0)},
}


def test_09_invariant_battery_full_catalogue():
    t0 = time.monotonic()
    tol = 1e-8
    worst = {}
    for name in catalogue.names():
        for n in (2, 3, 4):
            a = BATTERY_PARAMS.get(name, {}).get(n)
            ent = catalogue.entry(name, n=n, a=a)
            m = ent.model
            probe = OneForm.constant(tuple([1.0] + [0.25] * (n - 1)))
            bad = 0.0
            for at in tangent_samples(n, 8, seed=90 + n, radius=0.55):
                y = np.asarray(at.y)
                G = geometry.spray_coefficients(m, at).components
                N = geometry.nonlinear_connection(m, at).components
                C = geometry.berwald_connection(m, at).components
                Bt = geometry.berwald_curvature(m, at)
                B = Bt.components
                E = geometry.mean_berwald(Bt).components
                L = geometry.landsberg_tensor(
                    Bt, geometry.hilbert_form(m, at)).components
                phit = geometry.jacobi_endomorphism(m, at)
                phi = phit.components
                scale = 1.0 + max(float(np.max(np.abs(t)))
                                  for t in (G, N, C, B, phi))
                bad = max(
                    bad,
                    float(np.max(np.abs(N @ y - 2 * G))) / scale,
                    float(np.max(np.abs(np.einsum("hij,j->hi", C, y) - N))) / scale,
                    float(np.max(np.abs(np.einsum("hijk,k->hij", B, y)))) / scale,
                    float(np.max(np.abs(E @ y))) / scale,
                    float(np.max(np.abs(np.einsum("ijk,k->ij", L, y)))) / scale,
                    float(np.max(np.abs(phi @ y))) / scale,
                )
                gt = geometry.metric_tensor(m, at)
                ht = geometry.angular_metric(m, at, gt)
                for t in (gt, ht, geometry.berwald_connection(m, at), Bt,
                          geometry.curvature_R(m, at, phit)):
                    bad = max(bad, t.symmetry_violation() / (1.0 + t.max_abs()))
                g, h = gt.components, ht.components
                bad = max(bad, abs(float(np.trace(np.linalg.inv(g) @ h))
                                   - (n - 1)))
                bad = max(bad, forms.homogeneity_residual(probe, at))
                delta = forms.delta_beta(m, probe, at)
                cov = forms.covariant_derivative(
                    probe, at, geometry.berwald_connection(m, at),
                    delta).components
                delta = delta.components
                bad = max(bad, float(np.max(np.abs(y @ cov - delta)))
                          / (1.0 + float(np.max(np.abs(delta)))))
            worst[f"{name}/n={n}"] = bad
    elapsed = time.monotonic() - t0
    peak = max(worst.values())
    argmax = max(worst, key=worst.get)
    criterion(9, "Euler chain, symmetry tags, angular trace, d_C beta and "
                 "covariant/delta agreement hold at 1e-8 across the "
                 "catalogue for n in {2, 3, 4}",
              peak <= tol, f"worst={peak:.2e} at {argmax}, {elapsed:.0f}s")


def test_10_report_determinism(tmp_path):
    def run_once():
        cfg = build_config("check-parallel", overrides={
            "metric": "funk_parallel", "a": "0.5,0.1,0", "c": "1",
            "cmu": "0,0.2", "samples": "20", "seed": "7"})
        payload = json.loads(cli.run_check_parallel(cfg).to_json())
        payload.pop("generated_at")
        return json.dumps(payload, sort_keys=True)

    first, second = run_once(), run_once()
    criterion(10, "identical config and seed reproduce the report "
                  "byte-for-byte (timestamp excluded)",
              first == second)
