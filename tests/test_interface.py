"""Config ingestion, report serialization, CLI exit codes, determinism."""

import ast
import contextlib
import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import finslercheck
from finslercheck import (calculus, catalogue, cli, expressions, forms,
                          geometry, sampling, scalars, sphsym)
from finslercheck.calculus import TangentSample
from finslercheck.config import (MAX_DIM, MAX_THREADS, build_config,
                                 parse_config_file)
from finslercheck.errors import (ConfigError, FinslerCheckError,
                                 NonFiniteValue, NotPositive, SelfCheckFailure,
                                 SingularDenominator)
from finslercheck.reporting import dumps


def _strip_timestamp(text):
    return "\n".join(l for l in text.splitlines() if "generated_at" not in l)


def test_config_file_round_trip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# finslercheck configuration\n"
        "[check-parallel]\n"
        "metric = funk_parallel\n"
        "a = 0.5, 0.1, 0\n"
        "c = 1\n"
        "cmu = 0, 0.2\n"
        "samples = 30   # inline comment\n"
        "seed = 7\n"
        "\n"
        "[scan]\n"
        "metric = general_berwald\n"
        "a = 0.1,0.05,0\n")
    sections = parse_config_file(str(p))
    assert sections["check-parallel"]["metric"] == "funk_parallel"
    assert sections["check-parallel"]["a"] == (0.5, 0.1, 0.0)
    assert sections["check-parallel"]["samples"] == 30
    assert sections["scan"]["a"] == (0.1, 0.05, 0.0)


@pytest.mark.parametrize("body,fragment", [
    ("[nope]\nmetric = klein\n", "unknown section"),
    ("[scan]\nbogus = 1\n", "unknown configuration key"),
    ("[scan]\nsamples = many\n", "bad value"),
    ("metric = klein\n", "outside of a"),
    ("[scan]\njust a line\n", "expected 'key = value'"),
])
def test_config_file_errors(tmp_path, body, fragment):
    p = tmp_path / "bad.cfg"
    p.write_text(body)
    with pytest.raises(ConfigError) as err:
        parse_config_file(str(p))
    assert fragment in str(err.value)


def test_build_config_validation():
    with pytest.raises(ConfigError):
        build_config("scan", overrides={"samples": 5})
    with pytest.raises(ConfigError):
        build_config("scan", overrides={"scheme": "magic"})
    with pytest.raises(ConfigError):
        build_config("scan", overrides={"dim": 1})
    with pytest.raises(ConfigError, match="dim"):
        build_config("scan", overrides={"dim": MAX_DIM + 1})
    with pytest.raises(ConfigError, match="y_samples"):
        build_config("scan", overrides={"dim": 3, "y_samples": 4})
    cfg = build_config("scan", overrides={"samples": "25", "dim": "4"})
    assert cfg.samples == 25 and cfg.dim == 4
    cfg = build_config("scan", overrides={"dim": MAX_DIM, "y_samples": 10})
    assert cfg.dim == MAX_DIM and cfg.y_samples == MAX_DIM + 2


def test_cli_pass_exit_zero(capsys):
    rc = cli.main(["scalar-curvature", "--metric", "klein",
                   "--samples", "15", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ScalarCurvature" in out


def test_cli_fail_exit_one(capsys):
    rc = cli.main(["check-parallel", "--metric", "euclidean",
                   "--form", "x1,x2,x3", "--samples", "12", "--seed", "1"])
    assert rc == 1
    assert "NotParallel" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["scan", "--metric", "nope"],
    ["scan", "--metric", "klein", "--radius", "1.5"],
    ["check-parallel", "--metric", "klein", "--samples", "12"],  # no family
    ["sphsym", "--phi", "sqrt("],
    ["scan", "--metric", "klein", "--samples", "3"],
    ["scalar-curvature", "--metric", "klein", "--seed", "-1"],
    ["scalar-curvature", "--metric", "klein", "--tol", "nan"],
    ["scalar-curvature", "--metric", "klein", "--tol", "inf"],
    ["scalar-curvature", "--metric", "klein", "--tol", "-1"],
    ["scalar-curvature", "--metric", "klein", "--tol", "0"],
    ["scalar-curvature", "--metric", "klein",
     "--out", "/nonexistent-dir/sub/r.json"],
    ["sphsym", "--phi", "berwald_classic",
     "--sweep", "/nonexistent-dir/sub/sweep.csv"],
    ["scalar-curvature", "--metric", "klein", "--samples", "10",
     "--out", "."],
    ["sphsym", "--phi", "berwald_classic", "--grid-nr", "0"],
    ["sphsym", "--phi", "berwald_classic", "--grid-ns", "0"],
    ["scan", "--metric", "klein", "--x-points", "0"],
    ["scalar-curvature", "--metric", "klein", "--radius", "nan"],
    ["tensors", "--metric", "euclidean", "--radius", "inf"],
    ["scan", "--metric", "klein", "--radius", "0.01"],
    ["tensors", "--metric", "klein", "--dim", "9"],
    ["scan", "--metric", "klein", "--y-samples", "3"],
    ["check-parallel", "--metric", "funk_parallel", "--a", "nan,0.1,0",
     "--samples", "10"],
    ["check-parallel", "--metric", "funk_parallel", "--a", "0.5,0.1,0",
     "--c", "nan", "--samples", "10"],
    ["check-parallel", "--metric", "funk_parallel", "--a", "0.5,0.1,0",
     "--cmu", "inf,0", "--samples", "10"],
])
def test_cli_config_errors_exit_two(argv, capsys):
    assert cli.main(argv) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("a", "nan,0.1,0"), ("c", "nan"),
                                       ("cmu", "inf,0"), ("a", "0.5,-inf,0"),
                                       ("c", "-inf")])
def test_non_finite_parameters_rejected_at_config_time(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        build_config("check-parallel", overrides={
            "metric": "funk_parallel", "a": "0.5,0.1,0", key: value})


def test_cli_domain_error_exit_three(capsys):
    rc = cli.main(["sphsym", "--phi", "log(s-10)", "--samples", "10"])
    assert rc == 3
    assert "domain error" in capsys.readouterr().err


@pytest.mark.parametrize("command, options, rc, prefix", [
    ("check-parallel", {"metric": "euclidean", "form": "log(x1),0,0"},
     3, "numeric domain error: log of non-positive Taylor value "),
    ("invariants", {"metric": "funk_parallel", "a": "0.99999999,0,0"},
     4, "internal self-check failure: spray component 0 is not "
        "2-homogeneous"),
    ("scalar-curvature", {"metric": "funk_parallel", "a": "0.99999999,0,0"},
     4, "internal self-check failure: Jacobi endomorphism failed its Euler "
        "contraction"),
])
def test_cli_error_names_the_failing_sample(command, options, rc, prefix,
                                            capsys):
    options = dict(options, samples="10")
    argv = [command] + [a for k, v in options.items() for a in (f"--{k}", v)]
    assert cli.main(argv) == rc
    err = capsys.readouterr().err.strip()
    assert err.startswith(prefix)
    cfg = build_config(command, overrides=options)
    named = [at for at in cli._samples(cfg, cli._resolve_metric(cfg)[1])
             if err.endswith(f" at the sample {at!r}")]
    assert len(named) == 1
    if rc == 3:  # log(x1) fails at the named sample's own x1
        assert err.startswith(f"{prefix}{named[0].x[0]!r} at the sample")


def _euclidean_broken_at(target, kind):
    """catalogue.entry, with euclidean changed so that at the base point
    ``target`` F leaves sqrt's domain ("sqrt") or g has rank n - 1
    ("degenerate"); elsewhere F stays a Finsler function."""
    entry = catalogue.entry

    def broken(name, **kwargs):
        ent = entry(name, **kwargs)
        if name != "euclidean":
            return ent

        def F(x, y):
            gap = scalars.norm_sq([xi - ti for xi, ti in zip(x, target)])
            if kind == "sqrt":
                return scalars.sqrt(scalars.norm_sq(y)) \
                    * scalars.sqrt(gap - 1e-8)
            return scalars.sqrt(scalars.norm_sq(y) - (1.0 - gap) * y[0] * y[0])

        ent.model.F = F
        return ent

    return broken


@pytest.mark.parametrize("kind, message", [
    ("sqrt", "numeric domain error: sqrt of non-positive Taylor value "),
    ("degenerate", "numeric domain error: metric tensor degenerate ")])
@pytest.mark.parametrize("command", ["scan", "check-parallel"])
def test_a_failing_spray_jet_batch_fails_as_its_first_sample(
        command, kind, message, monkeypatch, capsys):
    # the failing samples lie in the second batch of the spray partials'
    # energy jets; the run must end as it does when every sample takes its
    # own spray jets
    if command == "scan":
        options = {"x-points": "3", "y-samples": "8"}  # 2 x 8 rows, then 8
        target = sampling.base_points(3, 3, 0, 0.6)[2]
    else:
        options = {"form": "1,0,0", "samples": "20"}  # 16 rows, then 4
        target = sampling.tangent_samples(3, 20, 0, 0.6)[17].x
    argv = [command, "--metric", "euclidean"] \
        + [a for k, v in options.items() for a in (f"--{k}", v)]
    monkeypatch.setattr(catalogue, "entry", _euclidean_broken_at(target, kind))
    outcomes = [(cli.main(argv), capsys.readouterr().err)]
    _no_fills(monkeypatch)
    outcomes.append((cli.main(argv), capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    rc, err = outcomes[0]
    assert rc == 3 and err.startswith(message)
    assert f" at the sample {target!r}\n" in err \
        or f" at the sample TangentSample(x={target!r}, " in err


def _no_fills(monkeypatch):
    """Patch calculus.fill_jets to a no-op, so each sample takes its own
    jets in the per-sample loop."""
    monkeypatch.setattr(calculus, "fill_jets", lambda *args: None)


@pytest.mark.parametrize("command,samples,broken", [
    ("tensors", 20, "F"),            # spray values: 16 samples, then 4
    ("invariants", 20, "F"),
    ("scalar-curvature", 70, "F"),   # energy jets: 64 samples, then 6
    ("check-parallel", 70, "form")])  # jets of b and beta: 64, then 6
def test_a_failing_fill_batch_fails_as_its_first_sample(
        command, samples, broken, monkeypatch, capsys):
    # the failing sample lies in the second batch of each fill; the run
    # must end as it does when every sample takes its own jets
    target = sampling.tangent_samples(3, samples, 0, 0.6)[samples - 4].x
    argv = [command, "--metric", "euclidean", "--samples", str(samples)]
    if broken == "F":
        monkeypatch.setattr(catalogue, "entry",
                            _euclidean_broken_at(target, "sqrt"))
    else:
        def b(x):
            gap = scalars.norm_sq([xi - ti for xi, ti in zip(x, target)])
            return (scalars.sqrt(gap - 1e-8), 0.0, 0.0)

        monkeypatch.setattr(cli, "_resolve_form",
                            lambda cfg, ent: forms.OneForm(3, b))
    outcomes = [(cli.main(argv), capsys.readouterr().err)]
    _no_fills(monkeypatch)
    outcomes.append((cli.main(argv), capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    rc, err = outcomes[0]
    assert rc == 3 and err.startswith(
        "numeric domain error: sqrt of non-positive Taylor value ")
    assert f" at the sample TangentSample(x={target!r}, " in err


@pytest.mark.parametrize("broken", ["P", "expansion"])
def test_a_failing_sphsym_fill_batch_fails_as_its_first_sample(
        broken, monkeypatch):
    # the P/Q model's spray jets and the delta beta expansion, each failing
    # at a sample in their second batch of 64
    samples = sampling.tangent_samples(3, 70, 0, 0.9, r_min=0.1)
    target = samples[66]
    rt, st, _ = sphsym._rsu(target.x, target.y)
    factor = sphsym.RadialFactor(lambda r: 1.0)
    sss = sphsym.sss_residuals

    def P(r, s):
        if broken == "expansion":
            return r * s / 10.0
        return r * s / 10.0 + scalars.sqrt((r - rt) ** 2 + (s - st) ** 2
                                           - 1e-12)

    def forced(factor, pq, rs):
        if np.any(np.equal(rs[0], rt)):
            raise SingularDenominator("forced")
        return sss(factor, pq, rs)

    if broken == "expansion":
        monkeypatch.setattr(sphsym, "sss_residuals", forced)
    errors = []
    for fills in (True, False):
        if not fills:
            _no_fills(monkeypatch)
        fresh = [TangentSample(at.x, at.y) for at in samples]
        with pytest.raises(FinslerCheckError) as err:
            sphsym.parallel_form_check(sphsym.parallel_pq(factor, P), factor,
                                       fresh)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].endswith(f" at the sample {target!r}")


@pytest.mark.parametrize("argv", [
    ["tensors", "--phi", "x1", "--samples", "10"],
    ["check-parallel", "--metric", "euclidean", "--form", "x1,y1,0"],
    ["scan", "--phi", "r+q*s"],
    ["sphsym", "--phi", "x1"],
    ["sphsym", "--phi", "berwald_classic", "--f", "x1"],
    ["sphsym", "--phi", "berwald_classic", "--P", "q"],
    ["sphsym", "--phi", "berwald_classic", "--f", "(("]])
def test_bad_expressions_fail_when_compiled(argv, monkeypatch, capsys):
    # a configuration error: one line naming no sample or grid point, and
    # raised before sphsym's grid sweep
    monkeypatch.setattr(cli, "_over_grid",
                        lambda *args: pytest.fail("the grid was swept"))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert " at the " not in err


@pytest.mark.parametrize("phi,message", [
    ("((", "expected a value, got end of input at position 2 "
     "(expected number or name or '(')"),
    ("x1+", "expected a value, got end of input at position 3 "
     "(expected number or name or '(')"),
    ("sin(", "expected a value, got end of input at position 4 "
     "(expected number or name or '(')"),
    ("(x1", "expected ')', got end of input at position 3 (expected ')')")])
def test_a_parse_error_at_the_end_of_the_input_names_it(phi, message,
                                                        capsys):
    assert cli.main(["tensors", "--phi", phi, "--samples", "10"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("form,message", [
    ("log(x1),0,0", "numeric domain error: log of non-positive Taylor value "
     "-0.39455540746900536 at the sample TangentSample(x=(-0.39455540746900536"
     ", -0.23189461907231043, -0.17235607827620683), y=(0.36486176735685877, "
     "0.9240647543268905, -0.11393077078653184))\n"),
    ("1/0,0,0", "numeric domain error: division by zero in expression at the "
     "sample TangentSample(x=(0.028857776140179574, -0.030320892930408898, "
     "0.1469907021627264), y=(-0.36806344459523743, 0.24845534974903277, "
     "0.8959906472356587))\n"),
    # rows of later samples overflow sin's argument to inf, which the
    # first sample, failing on its own, never reaches
    ("sin(1e308*x1*10),0,0", "numeric domain error: expression produced "
     "non-finite derivatives at the sample TangentSample(x=("
     "0.028857776140179574, -0.030320892930408898, 0.1469907021627264), y=("
     "-0.36806344459523743, 0.24845534974903277, 0.8959906472356587))\n")])
def test_check_parallel_form_errors_keep_their_stderr(form, message, capsys):
    # the bytes the per-sample loop printed before the form's jets were
    # filled as rows
    argv = ["check-parallel", "--metric", "euclidean", "--form", form,
            "--samples", "10"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == message


def test_numpy_warnings_stay_off_the_stderr_of_a_run():
    # a fresh interpreter that shows every warning: the overflow in the
    # form's series and the NaNs it multiplies would each print a
    # RuntimeWarning with its source line ahead of the one error line
    src = str(Path(finslercheck.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from finslercheck import cli; sys.exit(cli.main(sys.argv[2:]))")
    argv = ["check-parallel", "--metric", "euclidean", "--form",
            "sin(1e308*x1*10),0,0", "--samples", "10"]
    run = subprocess.run([sys.executable, "-W", "default", "-c", code, src]
                         + argv, capture_output=True, text=True)
    assert run.returncode == 3
    assert run.stderr == (
        "numeric domain error: expression produced non-finite derivatives "
        "at the sample TangentSample(x=(0.028857776140179574, "
        "-0.030320892930408898, 0.1469907021627264), y=("
        "-0.36806344459523743, 0.24845534974903277, 0.8959906472356587))\n")


@pytest.mark.parametrize("grid", [[], ["--grid-nr", "1", "--grid-ns", "1"]])
def test_an_overflowing_radial_factor_is_a_numeric_domain_error(grid,
                                                                capsys):
    # exp(1000 r) overflows the powers of 1/f's derivatives: on the grid's
    # rows and at a float alike, rc 3 with the failing point named
    argv = ["sphsym", "--phi", "1", "--samples", "10", "--f", "exp(1000*r)"]
    assert cli.main(argv + grid) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric domain error: reciprocal has a non-finite "
                          "derivative at ")
    assert (" at the sample " if grid else " at the grid point (r, s) = ") \
        in err


def test_sphsym_closure_error_names_the_failing_sample(capsys):
    # the profile passes the grid and leaves sqrt's domain at a closure
    # sample, drawn by sphsym's own sampler
    options = {"phi": "sqrt(0.96*r-s)", "dim": "2", "samples": "100",
               "seed": "0"}
    argv = ["sphsym"] + [a for k, v in options.items() for a in (f"--{k}", v)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("numeric domain error: sqrt of non-positive Taylor "
                          "value ")
    cfg = build_config("sphsym", overrides=options)
    model = sphsym.profile_metric(cli._resolve_profile(cfg), cfg.dim)
    samples = sampling.tangent_samples(
        cfg.dim, max(10, cfg.samples // 5), cfg.seed,
        cli._sample_radius(cfg, model), r_min=0.05)
    named = [at for at in samples if err.endswith(f" at the sample {at!r}")]
    assert len(named) == 1


def test_sphsym_checks_the_radius_before_the_grid(monkeypatch, capsys):
    calls = []
    residuals = sphsym.metrizability_residuals

    def counted(*args):
        calls.append(args)
        return residuals(*args)

    monkeypatch.setattr(sphsym, "metrizability_residuals", counted)
    rc = cli.main(["sphsym", "--phi", "berwald_classic", "--radius", "0.01"])
    assert rc == 2
    assert "radius" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("argv,flag", [
    (["tensors", "--metric", "klein", "--samples", "10"], "--out"),
    (["sphsym", "--phi", "berwald_classic", "--samples", "10",
      "--grid-nr", "4", "--grid-ns", "4"], "--sweep"),
])
def test_unwritable_output_path_exits_two(argv, flag, tmp_path, capsys):
    path = tmp_path / ("a" * 300 + ".json")
    assert cli.main(argv + [flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_cli_writes_report_and_determinism(tmp_path):
    # identical config (including the output path) and seed, run twice
    out = tmp_path / "r.json"
    argv = ["check-parallel", "--metric", "funk_parallel",
            "--a", "0.5,0.1,0", "--c", "1", "--cmu", "0,0.2",
            "--samples", "20", "--seed", "7", "--out", str(out)]
    assert cli.main(argv) == 0
    t1 = out.read_text()
    assert cli.main(argv) == 0
    t2 = out.read_text()
    assert _strip_timestamp(t1) == _strip_timestamp(t2)
    payload = json.loads(t1)
    assert payload["schema"] == 1
    assert payload["pass"] is True
    assert payload["config"]["seed"] == 7
    assert payload["checks"][0]["name"] == "max_covariant_derivative"


def test_csv_and_json_same_records(tmp_path):
    outj = tmp_path / "r.json"
    outc = tmp_path / "r.csv"
    base = ["scalar-curvature", "--metric", "klein", "--samples", "12",
            "--seed", "2"]
    assert cli.main(base + ["--out", str(outj), "--format", "json"]) == 0
    assert cli.main(base + ["--out", str(outc), "--format", "csv"]) == 0
    jchecks = json.loads(outj.read_text())["checks"]
    rows = list(csv.DictReader(io.StringIO(outc.read_text())))
    assert len(rows) == len(jchecks)
    for row, chk in zip(rows, jchecks):
        assert row["name"] == chk["name"]
        assert row["pass"] == str(chk["pass"]).lower()
        assert int(row["sample_count"]) == chk["sample_count"]
        if chk["max_residual"] is None:
            assert row["max_residual"] == ""
        else:
            assert float(row["max_residual"]) == pytest.approx(
                chk["max_residual"], rel=1e-15)
        assert json.loads(row["notes"]) == chk["notes"]


def test_json_17_digit_floats():
    text = dumps({"v": 0.1234567890123456789, "n": None, "t": True})
    assert '"v": 0.12345678901234568' in text
    assert json.loads(text)["t"] is True


def test_config_file_through_cli(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("[scan]\nmetric = general_berwald\na = 0.1,0.05,0\n"
                 "x_points = 2\ny_samples = 8\nseed = 11\n")
    rc = cli.main(["--config", str(p), "scan"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "branch: pointwise" in out
    # CLI flag overrides the file value
    rc = cli.main(["--config", str(p), "scan", "--y-samples", "9"])
    assert rc == 0


def test_tensors_command(tmp_path):
    out = tmp_path / "t.json"
    rc = cli.main(["tensors", "--metric", "klein", "--samples", "10",
                   "--seed", "4", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["data"]["samples"]) == 10
    rec = payload["data"]["samples"][0]
    assert set(rec) >= {"x", "y", "energy", "metric", "spray",
                        "nonlinear_connection", "berwald_curvature",
                        "jacobi", "curvature_R"}


def test_invariants_command(capsys):
    rc = cli.main(["invariants", "--metric", "funk_parallel",
                   "--a", "0.5,0.1,0", "--samples", "10", "--seed", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "euler_chain" in out and "closed_form_spray" in out


def test_invariants_reports_the_landsberg_rank_bound(tmp_path, monkeypatch):
    def checks(*argv):
        out = tmp_path / "inv.json"
        rc = cli.main(["invariants", *argv, "--samples", "10",
                       "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        return rc, {c["name"]: c for c in report["checks"]}

    rank = "mean_berwald_rank_at_most_n_minus_2"
    funk = {2: ("--a", "0.5,0.1"), 3: ("--a", "0.5,0.1,0")}
    for n, a in funk.items():
        rc, got = checks("--metric", "funk_parallel", "--dim", str(n), *a)
        assert rc == 0
        assert got["max_abs_landsberg"]["max_residual"] <= 1e-9
        assert got["max_abs_landsberg"]["tolerance"] is None
        assert got[rank]["tolerance"] == n - 2 and got[rank]["pass"]
        assert got[rank]["max_residual"] <= n - 2
    rc, got = checks("--metric", "general_berwald")
    assert got["max_abs_landsberg"]["max_residual"] > 1e-3
    assert got["max_abs_landsberg"]["pass"] and rank not in got
    rc, got = checks("--metric", "funk_parallel", "--dim", "2", *funk[2],
                     "--scheme", "fd")
    assert "max_abs_landsberg" in got and rank not in got
    # a premise that does not hold leaves the bound unchecked
    monkeypatch.setattr(cli, "LANDSBERG_TOL", 0.0)
    rc, got = checks("--metric", "funk_parallel", "--dim", "2", *funk[2])
    assert got[rank]["tolerance"] is None and got[rank]["pass"]
    assert "not Landsberg" in got[rank]["notes"]["note"]
    monkeypatch.undo()
    # a rank above n - 2 fails the record and the run
    monkeypatch.setattr(cli.analysis, "numerical_rank",
                        lambda mat: (len(mat) - 1, None))
    for n, a in funk.items():
        rc, got = checks("--metric", "funk_parallel", "--dim", str(n), *a)
        assert got[rank]["max_residual"] == n - 1
        assert not got[rank]["pass"] and rc == 1


def test_sphsym_sweep_csv(tmp_path):
    sweep = tmp_path / "sweep.csv"
    rc = cli.main(["sphsym", "--phi", "berwald_classic", "--samples", "10",
                   "--grid-nr", "5", "--grid-ns", "5",
                   "--sweep", str(sweep)])
    assert rc == 0
    lines = sweep.read_text().splitlines()
    assert lines[0] == "r,s,P,Q,metrizability_res1,metrizability_res2"
    assert len(lines) == 26


def _report_without_threads(path, threads):
    """The report at path, less its timestamp and output path, with the
    echoed ``threads`` checked and removed."""
    report = json.loads(path.read_text())
    del report["generated_at"]
    config = report["config"]
    del config["out"]
    assert config.pop("threads") == threads
    return report


@pytest.mark.parametrize("argv", [
    ["check-parallel", "--metric", "funk_parallel", "--a", "0.5,0.1,0",
     "--c", "1", "--cmu", "0,0.2", "--samples", "10"],
    ["scan", "--metric", "klein", "--x-points", "2", "--y-samples", "5"],
], ids=["check-parallel", "scan"])
def test_threads_key_is_inert(argv, tmp_path):
    # --threads is accepted and echoed, but every run is the same
    # sequential loop: only the echoed value differs
    command = argv[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{command}]\nthreads = 4\n")
    ref, flag, conf = (tmp_path / f"{n}.json" for n in ("ref", "flag", "conf"))
    assert cli.main(argv + ["--threads", "1", "--out", str(ref)]) == 0
    assert cli.main(argv + ["--threads", "4", "--out", str(flag)]) == 0
    assert cli.main(["--config", str(cfg)] + argv
                    + ["--out", str(conf)]) == 0
    expected = _report_without_threads(ref, 1)
    assert _report_without_threads(flag, 4) == expected
    assert _report_without_threads(conf, 4) == expected


@pytest.mark.parametrize("command", ["tensors", "invariants"])
def test_euler_chain_keeps_ad_tolerance_under_fd(command, tmp_path):
    # the Euler chain is computed with AD under every scheme, so its
    # tolerance must not widen to the FD one
    out = tmp_path / "r.json"
    rc = cli.main([command, "--metric", "general_berwald", "--dim", "2",
                   "--a", "0.1,0.05", "--samples", "10", "--scheme", "fd",
                   "--out", str(out)])
    assert rc == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["euler_chain"]["tolerance"] == 1e-8
    assert checks["euler_chain"]["pass"]


def test_cli_imports_no_thread_pool():
    # a fresh interpreter: importing the CLI loads no concurrent.futures
    # (numpy alone does not either), which costs every run import time
    src = str(Path(finslercheck.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import finslercheck.cli; "
            "print(sorted(m for m in sys.modules if m == 'concurrent' "
            "or m.startswith('concurrent.')))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_threads_capped_at_config_time(capsys):
    assert build_config("scan", overrides={"threads": MAX_THREADS}).threads \
        == MAX_THREADS
    with pytest.raises(ConfigError, match="threads"):
        build_config("scan", overrides={"threads": MAX_THREADS + 1})
    rc = cli.main(["tensors", "--metric", "klein", "--samples", "10",
                   "--threads", str(MAX_THREADS + 1)])
    assert rc == 2
    assert "threads" in capsys.readouterr().err


def test_self_check_failure_exit_four(capsys):
    # huge family parameters break the y^i b_i|j contraction check
    rc = cli.main(["check-parallel", "--metric", "funk_parallel",
                   "--cmu", "1e300,0", "--samples", "10"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "internal self-check failure" in err
    assert "Traceback" not in err


def _forced_expansion_gap(monkeypatch):
    """The SelfCheckFailure of ``parallel_form_check`` when the closed
    expansion of delta beta is off by 1e-3 at every sample, and the
    samples it walked."""
    expansion = sphsym._delta_beta_expansion
    monkeypatch.setattr(sphsym, "_delta_beta_expansion",
                        lambda *args: expansion(*args) + 1e-3)
    factor = sphsym.RadialFactor(lambda r: 1.0, df=lambda r: 0.0)
    pq = sphsym.parallel_pq(factor, lambda r, s: r * s / 10.0)
    samples = sampling.tangent_samples(3, 10, seed=5, radius=0.9, r_min=0.1)
    with pytest.raises(SelfCheckFailure, match="expansion") as gap:
        sphsym.parallel_form_check(pq, factor, samples)
    return gap.value, samples


def test_sphsym_expansion_gap_is_a_self_check_failure(monkeypatch, capsys):
    gap, samples = _forced_expansion_gap(monkeypatch)
    assert str(gap).endswith(f" at the sample {samples[0]!r}")
    rc = cli.main(["sphsym", "--phi", "berwald_classic", "--samples", "10",
                   "--grid-nr", "4", "--grid-ns", "4", "--f", "1",
                   "--P", "r*s/10"])
    assert rc == 4
    assert "internal self-check failure" in capsys.readouterr().err


def test_failure_messages_print_plain_floats(monkeypatch):
    # sample coordinates are Python floats, so messages naming a point
    # read x=(0.1, ...), not x=(np.float64(0.1), ...)
    gap, _ = _forced_expansion_gap(monkeypatch)
    assert "TangentSample(x=(" in str(gap)
    euclid = catalogue.entry("euclidean", n=3).model
    with pytest.raises(NotPositive, match=r"at x=\(") as lift:
        forms.randers_lift(euclid, forms.OneForm.constant((2.0, 0.0, 0.0)))
    for err in (gap, lift.value):
        assert "np.float64(" not in str(err)


# any text that names a location: the suffix of a loop that walks its
# items, or a point named inside the computation at that point
LOCATION = re.compile(
    r" at (the sample|the grid point|the FD stencil point|x=|\(r, s\))")


def _fd_stencil_failure(monkeypatch):
    # the klein stencil around |x| = 0.995 leaves the unit ball
    m = catalogue.entry("klein", n=2).model
    with pytest.raises(NonFiniteValue) as err:
        geometry.spray_jets(m, TangentSample((0.995, 0.0), (0.0, 1.0)), 1, 2,
                            "fd")
    message = str(err.value)
    point = ast.literal_eval(message.partition(" at the FD stencil point ")[2])
    with pytest.raises(NonFiniteValue):
        geometry._spray_scalars(m, *point)
    return message, f" at the FD stencil point {point}"


def _grid_failure(phi):
    # phi is one of test_sphsym's FAILING_PROFILES
    def failure(monkeypatch):
        # the first point of the 7 x 11 grid at which the command's grid
        # check fails on its own, at float (r, s)
        profile = sphsym.SphSymProfile(expressions.compile_scalar(phi,
                                                                  ("r", "s")))
        pq = sphsym.pq_from_profile(profile)
        for r, s in sampling.rs_grid(nr=7, ns=11):
            try:
                jet = profile.jet(r, s)
                sphsym.metrizability_residuals(jet, pq, (r, s))
                sphsym.pq_of_jet(jet, r, s)
                profile.phi(r, s)
            except FinslerCheckError as exc:
                ref = exc
                break
        cfg = build_config("sphsym", overrides={
            "phi": phi, "grid_nr": "7", "grid_ns": "11", "samples": "10"})
        with pytest.raises(type(ref)) as err:
            cli.run_sphsym(cfg)
        return (str(err.value),
                f"{ref} at the grid point (r, s) = ({r:g}, {s:g})")
    return failure


def _sample_failure(monkeypatch):
    # the Baseline run of log(x1): the first sample with x1 <= 0 fails
    cfg = build_config("check-parallel", overrides={
        "metric": "euclidean", "form": "log(x1),0,0", "samples": "10"})
    at = next(at for at in cli._samples(cfg, cli._resolve_metric(cfg)[1])
              if at.x[0] <= 0.0)
    with pytest.raises(NonFiniteValue) as err:
        cli.run_check_parallel(cfg)
    return str(err.value), f"{at.x[0]!r} at the sample {at!r}"


def _expansion_gap_failure(monkeypatch):
    gap, samples = _forced_expansion_gap(monkeypatch)
    return str(gap), f" at the sample {samples[0]!r}"


def _scan_failure(monkeypatch):
    # F leaves sqrt's domain at the third base point; its first fiber
    # sample fails first (the scan seeds its fibers at seed + 104729)
    target = sampling.base_points(3, 3, 0, 0.6)[2]
    monkeypatch.setattr(catalogue, "entry",
                        _euclidean_broken_at(target, "sqrt"))
    cfg = build_config("scan", overrides={
        "metric": "euclidean", "x_points": "3", "y_samples": "8"})
    with pytest.raises(NonFiniteValue) as err:
        cli.run_scan(cfg)
    y = sampling.fiber_samples(3, 8, 104729)[0]
    return str(err.value), f" at the sample {TangentSample(target, y)!r}"


@pytest.mark.parametrize("failure", [
    _fd_stencil_failure,
    _grid_failure("(r-0.50833333333333330)^2*(2+s)"),
    _grid_failure("sqrt(0.55-r)+0.1*s"),
    _sample_failure, _expansion_gap_failure, _scan_failure],
    ids=["fd_stencil", "grid_q_denominator", "grid_sqrt", "sample",
         "expansion_gap", "scan"])
def test_every_failure_names_its_item_once(failure, monkeypatch):
    # only the loop that walks an item names it, once, at the end
    message, named = failure(monkeypatch)
    assert message.endswith(named)
    assert len(LOCATION.findall(message)) == 1


@pytest.mark.parametrize("argv", [
    ["sphsym", "--phi", "(" * 3000 + "1" + ")" * 3000],
    ["sphsym", "--phi", "1" + "+s" * 1199],
    ["check-parallel", "--metric", "euclidean",
     "--form", "(" * 3000 + "1" + ")" * 3000 + ",0,0"]],
    ids=["deep_phi", "long_phi", "deep_form"])
def test_too_deep_expressions_exit_two(argv, monkeypatch, capsys):
    # a parse error, before any sampling or grid work starts
    monkeypatch.setattr(cli, "tangent_samples", None)
    monkeypatch.setattr(cli, "rs_grid", None)
    assert cli.main(argv + ["--samples", "10"]) == 2
    err = capsys.readouterr().err
    assert "deeper than 100 levels" in err
    assert "Traceback" not in err




_JUNK = ("", "x", "1,,2")
_FLOAT = (st.floats(allow_nan=True, allow_infinity=True).map(repr)
          | st.sampled_from(_JUNK))


def _choice(*values):
    return st.sampled_from(values + _JUNK)


def _int(lo, hi):
    return st.integers(lo, hi).map(str)


# Flags every run of the command sets, with mostly valid values (scan
# stays small; FD scans take seconds each and have their own tests).
_COMMAND = {
    "scan": {"--metric": st.just("klein"), "--x-points": _int(0, 3),
             "--y-samples": _int(5, 8),
             "--rows": st.sampled_from(("both", "berwald", "curvature"))},
    "sphsym": {"--phi": st.just("berwald_classic"), "--grid-nr": _int(1, 4),
               "--grid-ns": _int(1, 4),
               "--scheme": st.sampled_from(("ad", "fd"))},
}
# Flags a run may add, overriding the values above; a flag of the other
# command is an argparse usage error.
_OPTIONAL = {
    "--metric": _choice("euclidean", "klein", "funk_parallel", "nope"),
    "--dim": _choice("2", "3", "1", "-1", "1000"),
    "--a": _choice("0.5,0.1,0", "0.1,0.05", "nan,0,0", "2,2,2"),
    "--phi": _choice("1+r*r/2", "sqrt(1+s*s)", "s", "sqrt(", "log(s-10)"),
    "--form": _choice("catalogue", "x1,x2,x3", "x1/x1"),
    "--c": _FLOAT,
    "--cmu": _choice("0,0.2", "nan,1"),
    "--f": _choice("1", "1+r*r", "exp(r)", "0", "log(r-5)"),
    "--P": _choice("0", "r*s/10", "s*s", "1/(r-r)"),
    "--seed": _int(-2, 2 ** 64) | _FLOAT,
    "--radius": _FLOAT,
    "--tol": _FLOAT,
    # output paths the run rejects before computing: nothing is written
    "--out": st.sampled_from(("/nonexistent-dir/r.json", ".")),
    "--format": _choice("json", "csv", "xml"),
    # accepted in 1..MAX_THREADS with no effect, rc 2 outside it
    "--threads": _choice("1", "2", str(MAX_THREADS), "0", "-4",
                         str(MAX_THREADS + 1), "10000"),
    "--x-points": _int(-2, 4) | _FLOAT,
    "--y-samples": _int(-1, 6),
    "--grid-nr": _int(-2, 4) | _FLOAT,
    "--sweep": st.sampled_from(("/nonexistent-dir/s.csv", ".")),
    "--rows": _choice("all"),
    "--scheme": _choice("exact"),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMAND)))
    flags = list(_COMMAND[command].items()) + [
        (f, _OPTIONAL[f]) for f in draw(st.lists(
            st.sampled_from(sorted(_OPTIONAL)), max_size=2, unique=True))]
    argv = [command, "--samples", "10"]
    for flag, values in flags:
        argv += [flag, draw(values)]
    return argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_argvs())
def test_cli_fuzz_ends_in_a_documented_exit_code(argv):
    # every input ends in an exit code of the CLI, never a traceback
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    assert rc in (0, 1, 2, 3, 4), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
