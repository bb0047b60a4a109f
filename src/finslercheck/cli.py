"""Command-line interface.

Commands: ``tensors`` (dump the pipeline tensors at samples),
``check-parallel`` (parallelness report for a 1-form), ``scan`` (kernel
scan of the parallel-form obstructions), ``sphsym`` (spherically symmetric
suite), ``scalar-curvature`` (fit of the Jacobi endomorphism), and
``invariants`` (the full identity battery for one metric).

``tensors`` serialises and ``invariants`` checks one per-sample pass,
``_pass``, which takes each pipeline tensor once.  Every command runs its
samples in order on one thread.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration or parse
error, 3 numeric domain error, 4 internal self-check failure (an identity
the pipeline enforces on itself, such as an Euler contraction, a symmetry
or a cross-check between two computations, did not hold).
"""

import argparse
import functools
import sys

import numpy as np

from . import analysis, catalogue, expressions, forms, geometry, sphsym
from .calculus import batched, homogeneity_check
from .config import MAX_DIM, MAX_THREADS, build_config, parse_config_file
from .errors import (
    BadParameter, ConfigError, DegenerateMetric, FinslerCheckError,
    InsufficientSamples, NonFiniteValue, NotPositive, ParseError,
    SingularDenominator,
)
from .reporting import CheckRecord, Report
from .sampling import base_points, map_samples, rs_grid, tangent_samples
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


def _pass(model, at, scheme):
    """One sample's pipeline tensors, each taken once at ``scheme``, keyed
    and ordered as ``tensors`` reports them, and the sample's Euler-chain
    term, which is always computed with AD (under fd from one more AD
    chain)."""
    G = geometry.spray_coefficients(model, at)
    N, C, B, phi = chain = _chain(model, at, scheme)
    t = {}
    if model.F:
        g = geometry.metric_tensor(model, at, scheme)
        t = {"metric": g, "hilbert_form": geometry.hilbert_form(model, at, scheme),
             "angular_metric": geometry.angular_metric(model, at, g, scheme)}
    t.update(spray=G, nonlinear_connection=N, berwald_connection=C,
             berwald_curvature=B, mean_berwald=geometry.mean_berwald(B))
    if model.F:
        t["landsberg"] = geometry.landsberg_tensor(B, t["hilbert_form"])
    t.update(jacobi=phi, curvature_R=geometry.curvature_R(model, at, phi, scheme))
    if scheme != "ad":
        chain = _chain(model, at)
    return t, _euler_term(G, *chain)


# the Euler chain is always computed with AD, whatever --scheme says
EULER_CHAIN_TOL = 1e-8
# max |L| up to which the samples count as Landsberg
LANDSBERG_TOL = 1e-9


def _chain(model, at, scheme="ad"):
    """N, C, B and Phi at one sample.  B is taken first, so that under AD,
    in a per-sample loop or outside one, the other three read their (1, 2)
    spray partials from the (1, 3) rows its read left on the sample."""
    B = geometry.berwald_curvature(model, at, scheme)
    return (geometry.nonlinear_connection(model, at, scheme),
            geometry.berwald_connection(model, at, scheme), B,
            geometry.jacobi_endomorphism(model, at, scheme))


def _euler_term(G, N, C, B, phi):
    """One sample's Euler-chain residual: the largest Euler contraction
    residual that N, C, B and Phi recorded (N y = 2G, G^h_ij y^j = N^h_i,
    G^h_ijk y^k = 0, Phi y = 0), over 1 + the largest entry of the five."""
    scale = 1.0 + max(t.max_abs() for t in (G, N, C, B, phi))
    return max(t.notes["euler_residual"] for t in (N, C, B, phi)) / scale


def run_tensors(cfg):
    ent, model = _resolve_metric(cfg)
    report = Report("tensors", cfg.echo())
    samples = _samples(cfg, model)

    def one(at):
        tensors, term = _pass(model, at, cfg.scheme)
        out = {"x": list(at.x), "y": list(at.y),
               "F": model.F(at.x, at.y) if model.F else None}
        if model.F:
            out["energy"] = geometry.energy(model, at)
        out.update((k, t.components.tolist()) for k, t in tensors.items())
        out["curvature_R_orientation"] = tensors["curvature_R"].notes["orientation"]
        return out, term

    outs, terms = zip(*map_samples(one, samples))
    report.data = {"samples": list(outs)}
    worst = max(terms)
    report.add(CheckRecord("euler_chain", worst, EULER_CHAIN_TOL,
                           worst <= EULER_CHAIN_TOL, len(samples), cfg.seed))
    return report


def run_check_parallel(cfg):
    ent, model = _resolve_metric(cfg)
    omega = _resolve_form(cfg, ent)
    report = Report("check-parallel", cfg.echo())
    samples = _samples(cfg, model)
    rep = forms.is_parallel(model, omega, samples, tol=cfg.tol,
                            scheme=cfg.scheme)
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
    xs = base_points(cfg.dim, cfg.x_points, cfg.seed,
                     _sample_radius(cfg, model))
    rep = analysis.parallel_obstruction_scan(
        model, x_points=xs, y_per_point=cfg.y_samples,
        rows=cfg.rows, seed=cfg.seed, scheme=cfg.scheme)
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
    seed, count, scheme = cfg.seed, len(samples), cfg.scheme
    tol = 1e-8 if scheme == "ad" else 1e-3
    probe = forms.OneForm.constant(tuple([1.0] + [0.3] * (cfg.dim - 1)))
    worst = dict.fromkeys(("hom", "euler", "sym", "trace", "dc", "cov_delta",
                           "cf_spray", "cf_berwald", "landsberg", "rank"), 0.0)
    min_f = float("inf")
    spray_cf = ent.spray_cf if ent is not None else None
    berwald_cf = ent.berwald_curvature_cf if ent is not None else None
    # the paper's rank bound needs a parallel form; under fd the rank of E
    # would count the scheme's noise
    rank_bound = (scheme == "ad" and ent is not None
                  and ent.parallel_family is not None)

    def rel_gap(got, ref):
        return float(np.max(np.abs(got - ref))) \
            / (1.0 + float(np.max(np.abs(ref))))

    def check(at):
        t, euler = _pass(model, at, scheme)
        terms = {"euler": euler}
        if model.F:
            terms["hom"] = homogeneity_check(model.F, at, 1)
            terms["F"] = float(model.F(at.x, at.y))
            g, h = t["metric"].components, t["angular_metric"].components
            terms["trace"] = abs(float(np.trace(np.linalg.inv(g) @ h))
                                 - (cfg.dim - 1))
            terms["landsberg"] = t["landsberg"].max_abs()
        if rank_bound:
            terms["rank"] = float(analysis.numerical_rank(
                t["mean_berwald"].components)[0])
        terms["sym"] = max(v.symmetry_violation() / (1.0 + v.max_abs())
                           for v in t.values())
        terms["dc"] = forms.homogeneity_residual(probe, at)
        terms["cov_delta"] = forms.covariant_derivative(
            probe, at, t["berwald_connection"],
            forms.delta_beta(model, probe, at, scheme),
            scheme).notes["delta_residual"]
        if spray_cf is not None:
            terms["cf_spray"] = rel_gap(
                t["spray"].components,
                np.array([float(v) for v in spray_cf(at.x, at.y)]))
        if berwald_cf is not None:
            terms["cf_berwald"] = rel_gap(
                t["berwald_curvature"].components,
                np.asarray(berwald_cf(at.x, at.y)))
        return terms

    for terms in map_samples(check, samples):
        min_f = min(min_f, terms.pop("F", min_f))
        for key, value in terms.items():
            worst[key] = max(worst[key], value)

    def add(name, key, limit, apply=True):
        if apply:
            report.add(CheckRecord(name, worst[key], limit,
                                   worst[key] <= limit, count, seed))

    add("homogeneity_F", "hom", 1e-9)
    if model.F:
        report.add(CheckRecord("positivity_F", None, None, min_f > 0.0,
                               count, seed, notes={"min_F": min_f}))
    add("euler_chain", "euler", EULER_CHAIN_TOL)
    add("symmetry_tags", "sym", tol)
    add("angular_trace_n_minus_1", "trace", tol, model.F is not None)
    add("d_C_beta_equals_beta", "dc", 1e-12)
    add("covariant_matches_delta", "cov_delta", tol)
    add("closed_form_spray", "cf_spray", 1e-6, spray_cf is not None)
    add("closed_form_berwald_curvature", "cf_berwald", 1e-6,
        berwald_cf is not None)
    if model.F:
        report.add(CheckRecord("max_abs_landsberg", worst["landsberg"], None,
                               True, count, seed))
    if rank_bound:  # a Landsberg metric with a parallel form: rank E <= n-2
        limit = float(cfg.dim - 2) \
            if worst["landsberg"] <= LANDSBERG_TOL else None
        report.add(CheckRecord(
            "mean_berwald_rank_at_most_n_minus_2", worst["rank"], limit,
            limit is None or worst["rank"] <= limit, count, seed,
            notes={"note": "not Landsberg at the samples"} if limit is None
            else {}))
    report.verdicts["metric"] = model.name
    return report


def run_sphsym(cfg):
    profile = _resolve_profile(cfg)
    report = Report("sphsym", cfg.echo())
    # sample and compile first: a bad radius or expression fails at once
    model = sphsym.profile_metric(profile, cfg.dim)
    samples = tangent_samples(cfg.dim, max(10, cfg.samples // 5), cfg.seed,
                              _sample_radius(cfg, model), r_min=0.05)
    if cfg.f is not None or cfg.P is not None:
        factor = RadialFactor(
            expressions.compile_scalar(cfg.f or "1", ("r",)), name=cfg.f or "1")
        p_map = expressions.compile_scalar(cfg.P or "0", ("r", "s"))
    pq = sphsym.pq_from_profile(profile)
    grid = np.array(rs_grid(nr=cfg.grid_nr, ns=cfg.grid_ns))
    tol = cfg.tol if cfg.tol is not None else 1e-7

    def metrizability(r, s):
        jet = profile.jet(r, s)
        r1, r2 = sphsym.metrizability_residuals(jet, pq, (r, s))
        pv, qv = sphsym.pq_of_jet(jet, r, s)
        phi = [float(profile.phi(*rs))
               for rs in zip(np.ravel(r).tolist(), np.ravel(s).tolist())]
        return jet, np.column_stack([r, s, pv, qv, r1, r2]), phi

    jets, rows, phis = zip(*_over_grid(metrizability, grid))
    sweep = np.concatenate(rows)
    # Python's max and min over the points in grid order, as they were
    # taken point by point
    worst1 = max([0.0, *sweep[:, 4].tolist()])
    worst2 = max([0.0, *sweep[:, 5].tolist()])
    max_q = max([0.0, *np.abs(sweep[:, 3]).tolist()])
    min_phi = min([float("inf"), *(v for phi in phis for v in phi)])
    npts = len(grid)
    report.add(CheckRecord("positivity_phi", None, None, min_phi > 0.0,
                           npts, cfg.seed, notes={"min_phi": min_phi}))
    report.add(CheckRecord("metrizability_pde_1", worst1, tol,
                           worst1 <= tol, npts, cfg.seed))
    report.add(CheckRecord("metrizability_pde_2", worst2, tol,
                           worst2 <= tol, npts, cfg.seed))
    report.add(CheckRecord("max_abs_Q", max_q, None, True, npts, cfg.seed))

    def closure(at):
        G_pq = sphsym.spray_from_pq(pq, at).components
        G_ad = geometry.spray_coefficients(model, at).components
        return (float(np.max(np.abs(G_pq - G_ad)))
                / (1.0 + float(np.max(np.abs(G_ad)))))

    worst_closure = max([0.0, *map_samples(closure, samples)])
    report.add(CheckRecord("pq_spray_closure", worst_closure, tol,
                           worst_closure <= tol, len(samples), cfg.seed))
    report.verdicts["classification"] = sphsym.classify_profile(
        jets, [(b[:, 0], b[:, 1]) for b in rows])

    if cfg.f is not None or cfg.P is not None:
        char_pq = sphsym.parallel_pq(factor, p_map)

        def sss(r, s):
            r1, r2, _ = sphsym.sss_residuals(factor, char_pq, (r, s))
            return np.column_stack([np.abs(r1), np.abs(r2)]).ravel()

        worst_sss = max([0.0, *np.concatenate(_over_grid(sss, grid)).tolist()])
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
        _write(cfg.sweep, "r,s,P,Q,metrizability_res1,metrizability_res2\n"
               + "".join(",".join(format(v, ".17g") for v in row) + "\n"
                         for row in sweep.tolist()))
    return report


def _over_grid(check, grid):
    """The results of ``check(r, s)`` over the ``(points, 2)`` (r, s) grid,
    one per batch of Taylor rows (arrays r, s).  A batch that fails is
    checked again point by point at float (r, s), so the error is the
    first failing point's own, with the point appended."""
    return batched(
        lambda rs: check(*rs.T), grid, lambda rs: check(*rs),
        lambda rs: "the grid point (r, s) = ({:g}, {:g})".format(*rs))


def _write(path, text):
    """Write text to path; a path that cannot be written is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")


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
    p.add_argument("--dim", help=f"dimension n, 2 to {MAX_DIM}")
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
    p.add_argument("--threads", help=f"no effect; accepted (1 to "
                   f"{MAX_THREADS}) so old command lines keep their exit code")


@functools.cache
def _build_parser():
    # built once per process: it reads only the keys of RUNNERS, which never
    # change (perfbench's tracer replaces only the values)
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
        # the runners check every value they read for finiteness, and those
        # checks decide the outcome; numpy's own warnings would only put
        # source lines on stderr ahead of it
        with np.errstate(all="ignore"):
            report = RUNNERS[args.command](cfg)
        if cfg.out:
            _write(cfg.out, report.to_json() if cfg.format == "json"
                   else report.to_csv())
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
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
