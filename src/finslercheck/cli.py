"""Command-line interface.

Commands: ``tensors`` (dump the pipeline tensors at samples),
``check-parallel`` (parallelness report for a 1-form), ``scan`` (kernel
scan of the parallel-form obstructions), ``sphsym`` (spherically symmetric
suite), ``scalar-curvature`` (fit of the Jacobi endomorphism), and
``invariants`` (the full identity battery for one metric).

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration or parse
error, 3 numeric domain error, 4 internal self-check failure (an identity
the pipeline enforces on itself, such as an Euler contraction, a symmetry
or a cross-check between two computations, did not hold).
"""

import argparse
import sys

import numpy as np

from . import analysis, catalogue, expressions, forms, geometry, sphsym
from .calculus import homogeneity_check
from .config import RunConfig, build_config, parse_config_file
from .errors import (
    BadParameter, ConfigError, DegenerateMetric, FinslerCheckError,
    InsufficientSamples, NonFiniteValue, NotPositive, ParseError,
    SingularDenominator,
)
from .reporting import CheckRecord, Report
from .sampling import map_samples, rs_grid, tangent_samples
from .sphsym import RadialFactor, SphSymProfile


def _resolve_metric(cfg):
    """(entry-or-None, model) from the run configuration."""
    if cfg.metric:
        ent = catalogue.entry(cfg.metric, n=cfg.dim, a=cfg.a)
        return ent, ent.model
    if cfg.phi:
        profile = _resolve_profile(cfg)
        return None, sphsym.profile_metric(profile, cfg.dim)
    raise ConfigError("select a metric (--metric NAME or --phi EXPR)")


def _resolve_profile(cfg):
    if not cfg.phi:
        raise ConfigError("this command needs a profile (--phi EXPR or "
                          "--phi berwald_classic)")
    if cfg.phi == "berwald_classic":
        return SphSymProfile(catalogue.berwald_classic_phi, r0=1.0,
                             name="berwald_classic")
    fn = expressions.compile_scalar(cfg.phi, ("r", "s"))
    return SphSymProfile(fn, r0=1.0, name=cfg.phi)


def _sample_radius(cfg, model):
    radius = cfg.radius if cfg.radius is not None \
        else model.domain.default_sample_radius()
    if model.domain.radius is not None and radius >= model.domain.radius:
        raise ConfigError(
            f"sampling radius {radius:g} must stay below the domain "
            f"radius {model.domain.radius:g}")
    return radius


def _samples(cfg, model, r_min=0.0):
    return tangent_samples(cfg.dim, cfg.samples, cfg.seed,
                           _sample_radius(cfg, model), r_min=r_min)


def _resolve_form(cfg, ent):
    if cfg.form in (None, "catalogue"):
        if ent is None or ent.parallel_family is None:
            raise ConfigError(
                "no built-in parallel family for this metric; pass "
                "--form EXPR[,EXPR...]")
        return ent.parallel_family(c=cfg.c, c_mu=cfg.cmu)
    return expressions.compile_form(cfg.form.split(","), cfg.dim)


# ---------------------------------------------------------------------------
# runners


def run_tensors(cfg):
    ent, model = _resolve_metric(cfg)
    report = Report("tensors", cfg.echo())
    samples = _samples(cfg, model)

    def one(at):
        out = {"x": list(at.x), "y": list(at.y)}
        out["F"] = model.F(at.x, at.y) if model.F else None
        if model.F:
            out["energy"] = geometry.energy(model, at)
            out["metric"] = geometry.metric_tensor(model, at, cfg.scheme).components.tolist()
            out["hilbert_form"] = geometry.hilbert_form(model, at, cfg.scheme).components.tolist()
            out["angular_metric"] = geometry.angular_metric(model, at, cfg.scheme).components.tolist()
        out["spray"] = geometry.spray_coefficients(model, at, cfg.scheme).components.tolist()
        out["nonlinear_connection"] = geometry.nonlinear_connection(model, at, cfg.scheme).components.tolist()
        out["berwald_connection"] = geometry.berwald_connection(model, at, cfg.scheme).components.tolist()
        out["berwald_curvature"] = geometry.berwald_curvature(model, at, cfg.scheme).components.tolist()
        out["mean_berwald"] = geometry.mean_berwald(model, at, cfg.scheme).components.tolist()
        if model.F:
            out["landsberg"] = geometry.landsberg_tensor(model, at, cfg.scheme).components.tolist()
        out["jacobi"] = geometry.jacobi_endomorphism(model, at, cfg.scheme).components.tolist()
        R = geometry.curvature_R(model, at, cfg.scheme)
        out["curvature_R"] = R.components.tolist()
        out["curvature_R_orientation"] = R.notes["orientation"]
        return out

    report.data = {"samples": map_samples(one, samples, cfg.threads)}
    worst = _euler_chain_residual(model, samples)
    report.add(CheckRecord("euler_chain", worst, EULER_CHAIN_TOL,
                           worst <= EULER_CHAIN_TOL, len(samples), cfg.seed))
    return report


# the Euler chain is always computed with AD, whatever --scheme says
EULER_CHAIN_TOL = 1e-8


def _euler_chain_residual(model, samples):
    worst = 0.0
    for at in samples:
        y = np.asarray(at.y)
        G = geometry.spray_coefficients(model, at).components
        N = geometry.nonlinear_connection(model, at).components
        C = geometry.berwald_connection(model, at).components
        B = geometry.berwald_curvature(model, at).components
        phi = geometry.jacobi_endomorphism(model, at).components
        scale = 1.0 + max(float(np.max(np.abs(t))) for t in (G, N, C, B, phi))
        worst = max(
            worst,
            float(np.max(np.abs(N @ y - 2 * G))) / scale,
            float(np.max(np.abs(np.einsum("hij,j->hi", C, y) - N))) / scale,
            float(np.max(np.abs(np.einsum("hijk,k->hij", B, y)))) / scale,
            float(np.max(np.abs(phi @ y))) / scale,
        )
    return worst


def run_check_parallel(cfg):
    ent, model = _resolve_metric(cfg)
    omega = _resolve_form(cfg, ent)
    report = Report("check-parallel", cfg.echo())
    samples = _samples(cfg, model)
    rep = forms.is_parallel(model, omega, samples, tol=cfg.tol,
                            scheme=cfg.scheme, threads=cfg.threads)
    for name, key, value in (
            ("covariant_derivative", "covariant", rep.max_covariant),
            ("delta_beta", "delta", rep.max_delta),
            ("curvature_compatibility", "curvature", rep.max_curvature)):
        notes = {"form": omega.name}
        if rep.worst.get(key):
            w = rep.worst[key]
            notes["worst_at"] = {"x": list(w["x"]), "y": list(w["y"])}
        report.add(CheckRecord(f"max_{name}", value, rep.tolerance,
                               value <= rep.tolerance, rep.sample_count,
                               cfg.seed, notes=notes))
    report.verdicts["verdict"] = rep.verdict.value
    report.verdicts["scheme"] = rep.scheme
    return report


def run_scan(cfg):
    ent, model = _resolve_metric(cfg)
    report = Report("scan", cfg.echo())
    from .sampling import base_points
    xs = base_points(cfg.dim, cfg.x_points, cfg.seed,
                     _sample_radius(cfg, model))
    rep = analysis.parallel_obstruction_scan(
        model, x_points=xs, y_per_point=cfg.y_samples,
        rows=cfg.rows, seed=cfg.seed, scheme=cfg.scheme,
        threads=cfg.threads)
    for i, rec in enumerate(rep.per_x):
        report.add(CheckRecord(
            f"kernel_at_x{i}", float(rec["kernel_dim"]), None, True,
            cfg.y_samples, cfg.seed,
            notes={"x": list(rec["x"]), "rank": rec["rank"],
                   "rows": rec["rows"], "kernel_dim": rec["kernel_dim"]}))
    report.verdicts.update({
        "rows": rep.rows_mode,
        "max_kernel_dim": rep.max_kernel_dim,
        "intersection_kernel_dim": rep.intersection_kernel_dim,
        "branch": rep.branch,
        "obstructed": rep.obstructed,
    })
    return report


def run_scalar_curvature(cfg):
    ent, model = _resolve_metric(cfg)
    report = Report("scalar-curvature", cfg.echo())
    samples = _samples(cfg, model)
    tol = cfg.tol if cfg.tol is not None else 1e-6
    fit = analysis.scalar_curvature_fit(model, samples, tol=tol,
                                        scheme=cfg.scheme)
    normalized = fit.max_residual / fit.scale
    report.add(CheckRecord("scalar_curvature_residual", normalized, tol,
                           normalized <= tol, len(samples), cfg.seed,
                           notes={"scale": fit.scale,
                                  "lowering": "metric"}))
    report.add(CheckRecord("k_constancy_spread", fit.k_spread, None, True,
                           len(samples), cfg.seed,
                           notes={"k_min": fit.k_min, "k_max": fit.k_max}))
    report.verdicts["verdict"] = fit.verdict.value
    report.verdicts["k_range"] = [fit.k_min, fit.k_max]
    return report


def run_invariants(cfg):
    ent, model = _resolve_metric(cfg)
    report = Report("invariants", cfg.echo())
    samples = _samples(cfg, model)
    seed, count = cfg.seed, len(samples)
    tol = 1e-8 if cfg.scheme == "ad" else 1e-3

    worst_hom = max(homogeneity_check(model.F, at, 1) for at in samples) \
        if model.F else 0.0
    report.add(CheckRecord("homogeneity_F", worst_hom, 1e-9,
                           worst_hom <= 1e-9, count, seed))

    if model.F:
        min_f = min(float(model.F(at.x, at.y)) for at in samples)
        report.add(CheckRecord("positivity_F", None, None, min_f > 0.0,
                               count, seed, notes={"min_F": min_f}))

    worst_euler = _euler_chain_residual(model, samples)
    report.add(CheckRecord("euler_chain", worst_euler, EULER_CHAIN_TOL,
                           worst_euler <= EULER_CHAIN_TOL, count, seed))

    worst_sym = 0.0
    worst_trace = 0.0
    worst_dc = 0.0
    worst_cov_delta = 0.0
    probe = forms.OneForm.constant(tuple([1.0] + [0.3] * (cfg.dim - 1)))
    for at in samples:
        tensors = [geometry.berwald_connection(model, at, cfg.scheme),
                   geometry.berwald_curvature(model, at, cfg.scheme),
                   geometry.mean_berwald(model, at, cfg.scheme),
                   geometry.curvature_R(model, at, cfg.scheme)]
        if model.F:
            tensors += [geometry.metric_tensor(model, at, cfg.scheme),
                        geometry.angular_metric(model, at, cfg.scheme),
                        geometry.landsberg_tensor(model, at, cfg.scheme)]
        for t in tensors:
            worst_sym = max(worst_sym,
                            t.symmetry_violation() / (1.0 + t.max_abs()))
        if model.F:
            g = geometry.metric_tensor(model, at, cfg.scheme).components
            h = geometry.angular_metric(model, at, cfg.scheme).components
            worst_trace = max(worst_trace,
                              abs(float(np.trace(np.linalg.inv(g) @ h))
                                  - (cfg.dim - 1)))
        worst_dc = max(worst_dc, forms.homogeneity_residual(probe, at))
        cov = forms.covariant_derivative(model, probe, at, cfg.scheme)
        delta = forms.delta_beta(model, probe, at, cfg.scheme).components
        resid = float(np.max(np.abs(np.asarray(at.y) @ cov.components - delta)))
        worst_cov_delta = max(worst_cov_delta,
                              resid / (1.0 + float(np.max(np.abs(delta)))))
    report.add(CheckRecord("symmetry_tags", worst_sym, tol,
                           worst_sym <= tol, count, seed))
    if model.F:
        report.add(CheckRecord("angular_trace_n_minus_1", worst_trace, tol,
                               worst_trace <= tol, count, seed))
    report.add(CheckRecord("d_C_beta_equals_beta", worst_dc, 1e-12,
                           worst_dc <= 1e-12, count, seed))
    report.add(CheckRecord("covariant_matches_delta", worst_cov_delta, tol,
                           worst_cov_delta <= tol, count, seed))

    if ent is not None:
        cf_tol = 1e-6
        if ent.spray_cf is not None:
            worst = 0.0
            for at in samples:
                got = geometry.spray_coefficients(model, at, cfg.scheme).components
                ref = np.array([float(v) for v in ent.spray_cf(at.x, at.y)])
                worst = max(worst, float(np.max(np.abs(got - ref)))
                            / (1.0 + float(np.max(np.abs(ref)))))
            report.add(CheckRecord("closed_form_spray", worst, cf_tol,
                                   worst <= cf_tol, count, seed))
        if ent.berwald_curvature_cf is not None:
            worst = 0.0
            for at in samples:
                got = geometry.berwald_curvature(model, at, cfg.scheme).components
                ref = np.asarray(ent.berwald_curvature_cf(at.x, at.y))
                worst = max(worst, float(np.max(np.abs(got - ref)))
                            / (1.0 + float(np.max(np.abs(ref)))))
            report.add(CheckRecord("closed_form_berwald_curvature", worst,
                                   cf_tol, worst <= cf_tol, count, seed))
    report.verdicts["metric"] = model.name
    return report


def run_sphsym(cfg):
    profile = _resolve_profile(cfg)
    report = Report("sphsym", cfg.echo())
    pq = sphsym.pq_from_profile(profile)
    grid = rs_grid(nr=cfg.grid_nr, ns=cfg.grid_ns)
    tol = cfg.tol if cfg.tol is not None else 1e-7

    worst1 = worst2 = max_q = 0.0
    min_phi = float("inf")
    sweep_rows = []
    for rs in grid:
        r1, r2 = sphsym.metrizability_residuals(profile, pq, rs)
        pv, qv = pq.PQ(*rs)
        worst1, worst2 = max(worst1, r1), max(worst2, r2)
        max_q = max(max_q, abs(qv))
        min_phi = min(min_phi, float(profile.phi(*rs)))
        sweep_rows.append((rs[0], rs[1], pv, qv, r1, r2))
    npts = len(grid)
    report.add(CheckRecord("positivity_phi", None, None, min_phi > 0.0,
                           npts, cfg.seed, notes={"min_phi": min_phi}))
    report.add(CheckRecord("metrizability_pde_1", worst1, tol,
                           worst1 <= tol, npts, cfg.seed))
    report.add(CheckRecord("metrizability_pde_2", worst2, tol,
                           worst2 <= tol, npts, cfg.seed))
    report.add(CheckRecord("max_abs_Q", max_q, None, True, npts, cfg.seed))

    model = sphsym.profile_metric(profile, cfg.dim)
    samples = tangent_samples(cfg.dim, max(10, cfg.samples // 5), cfg.seed,
                              _sample_radius(cfg, model), r_min=0.05)
    worst_closure = 0.0
    for at in samples:
        G_pq = sphsym.spray_from_pq(pq, at).components
        G_ad = geometry.spray_coefficients(model, at).components
        worst_closure = max(worst_closure,
                            float(np.max(np.abs(G_pq - G_ad)))
                            / (1.0 + float(np.max(np.abs(G_ad)))))
    report.add(CheckRecord("pq_spray_closure", worst_closure, tol,
                           worst_closure <= tol, len(samples), cfg.seed))
    report.verdicts["classification"] = sphsym.classify_profile(profile, grid)

    if cfg.f is not None or cfg.P is not None:
        factor = RadialFactor(
            expressions.compile_scalar(cfg.f or "1", ("r",)), name=cfg.f or "1")
        p_map = expressions.compile_scalar(cfg.P or "0", ("r", "s"))
        char_pq = sphsym.parallel_pq(factor, p_map)
        worst_sss = 0.0
        for rs in grid:
            r1, r2, _ = sphsym.sss_residuals(factor, char_pq, rs)
            worst_sss = max(worst_sss, abs(r1), abs(r2))
        report.add(CheckRecord("characterised_q_identity", worst_sss, 1e-10,
                               worst_sss <= 1e-10, npts, cfg.seed))
        psamples = tangent_samples(cfg.dim, cfg.samples, cfg.seed,
                                   0.9, r_min=0.1)
        rep = sphsym.parallel_form_check(char_pq, factor, psamples, n=cfg.dim,
                                         tol=cfg.tol)
        report.add(CheckRecord("parallel_form_delta_beta", rep.max_delta,
                               rep.tolerance, rep.max_delta <= rep.tolerance,
                               rep.sample_count, cfg.seed,
                               notes=rep.notes or {}))
        report.verdicts["parallel_verdict"] = rep.verdict.value

    if cfg.sweep:
        with open(cfg.sweep, "w", encoding="utf-8") as fh:
            fh.write("r,s,P,Q,metrizability_res1,metrizability_res2\n")
            for row in sweep_rows:
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    return report


RUNNERS = {
    "tensors": run_tensors,
    "check-parallel": run_check_parallel,
    "scan": run_scan,
    "sphsym": run_sphsym,
    "scalar-curvature": run_scalar_curvature,
    "invariants": run_invariants,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p):
    p.add_argument("--metric", help="catalogue metric name")
    p.add_argument("--dim", help="dimension n >= 2")
    p.add_argument("--a", help="comma-separated parameter vector a")
    p.add_argument("--phi", help="profile phi(r,s) expression or "
                                 "'berwald_classic'")
    p.add_argument("--form", help="'catalogue' or comma-joined b_i "
                                  "expressions in x1..xn")
    p.add_argument("--c", help="family parameter c")
    p.add_argument("--cmu", help="family parameters c_mu (comma-separated)")
    p.add_argument("--f", help="radial factor f(r) expression")
    p.add_argument("--P", help="free P(r,s) expression")
    p.add_argument("--samples", help="sample count (>= 10)")
    p.add_argument("--seed", help="PRNG seed")
    p.add_argument("--radius", help="sampling radius for |x|")
    p.add_argument("--tol", help="tolerance override")
    p.add_argument("--scheme", help="ad (default) or fd")
    p.add_argument("--out", help="report output path")
    p.add_argument("--format", help="json (default) or csv")
    p.add_argument("--threads", help="worker threads (default 1)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="finslercheck",
        description="numerical verification of sprays, curvatures and "
                    "parallel 1-forms for Finsler metrics")
    parser.add_argument("--config", help="config file with [command] sections")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        _add_common(p)
        if name == "scan":
            p.add_argument("--x-points", dest="x_points",
                           help="number of base points")
            p.add_argument("--y-samples", dest="y_samples",
                           help="fiber samples per base point")
            p.add_argument("--rows", help="both | berwald | curvature")
        if name == "sphsym":
            p.add_argument("--sweep", help="write the (r,s) grid to this CSV")
            p.add_argument("--grid-nr", dest="grid_nr", help="grid points in r")
            p.add_argument("--grid-ns", dest="grid_ns", help="grid points in s")
    return parser


def _print_summary(report, stream):
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        res = "" if c.max_residual is None \
            else f" residual={c.max_residual:.3e}"
        tol = "" if c.tolerance is None else f" tol={c.tolerance:.1e}"
        print(f"[{status}] {c.name}{res}{tol}", file=stream)
    for k, v in report.verdicts.items():
        print(f"{k}: {v}", file=stream)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = {}
        if args.config:
            file_values = parse_config_file(args.config).get(args.command, {})
        skip = {"config", "command"}
        overrides = {k: v for k, v in vars(args).items()
                     if k not in skip and v is not None}
        cfg = build_config(args.command, file_values, overrides)
        cfg.check_output_dirs()
        report = RUNNERS[args.command](cfg)
    except (ConfigError, ParseError, BadParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteValue, DegenerateMetric, SingularDenominator,
            NotPositive, InsufficientSamples) as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return 3
    except FinslerCheckError as exc:
        print(f"internal self-check failure: {exc}", file=sys.stderr)
        return 4
    _print_summary(report, sys.stdout)
    if cfg.out:
        payload = report.to_json() if cfg.format == "json" else report.to_csv()
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
