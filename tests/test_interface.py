"""Config ingestion, report serialization, CLI exit codes, determinism."""

import contextlib
import csv
import io
import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from finslercheck import cli, sampling, sphsym
from finslercheck.config import MAX_THREADS, build_config, parse_config_file
from finslercheck.errors import ConfigError, SelfCheckFailure
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
    cfg = build_config("scan", overrides={"samples": "25", "dim": "4"})
    assert cfg.samples == 25 and cfg.dim == 4


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
])
def test_cli_config_errors_exit_two(argv, capsys):
    assert cli.main(argv) == 2
    assert "error" in capsys.readouterr().err


def test_cli_domain_error_exit_three(capsys):
    rc = cli.main(["sphsym", "--phi", "log(s-10)", "--samples", "10"])
    assert rc == 3
    assert "domain error" in capsys.readouterr().err


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


def test_sphsym_sweep_csv(tmp_path):
    sweep = tmp_path / "sweep.csv"
    rc = cli.main(["sphsym", "--phi", "berwald_classic", "--samples", "10",
                   "--grid-nr", "5", "--grid-ns", "5",
                   "--sweep", str(sweep)])
    assert rc == 0
    lines = sweep.read_text().splitlines()
    assert lines[0] == "r,s,P,Q,metrizability_res1,metrizability_res2"
    assert len(lines) == 26


def test_threads_match_sequential(tmp_path):
    argv = ["tensors", "--metric", "klein", "--samples", "10", "--seed", "4"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--threads", "4", "--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["data"] == b["data"]


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


def test_threads_capped_at_config_time(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    monkeypatch.setattr(sampling, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(threading.Thread, "start", no_pool)
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


def test_sphsym_expansion_gap_is_a_self_check_failure(monkeypatch, capsys):
    expansion = sphsym._delta_beta_expansion
    monkeypatch.setattr(sphsym, "_delta_beta_expansion",
                        lambda *args: expansion(*args) + 1e-3)
    factor = sphsym.RadialFactor(lambda r: 1.0, df=lambda r: 0.0)
    pq = sphsym.parallel_pq(factor, lambda r, s: r * s / 10.0)
    samples = sampling.tangent_samples(3, 10, seed=5, radius=0.9, r_min=0.1)
    with pytest.raises(SelfCheckFailure, match="expansion"):
        sphsym.parallel_form_check(pq, factor, samples)
    rc = cli.main(["sphsym", "--phi", "berwald_classic", "--samples", "10",
                   "--grid-nr", "4", "--grid-ns", "4", "--f", "1",
                   "--P", "r*s/10"])
    assert rc == 4
    assert "internal self-check failure" in capsys.readouterr().err




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
    "--dim": _choice("2", "3", "1", "-1"),
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
    # 1 or outside 1..MAX_THREADS: no thread pool is ever started
    "--threads": _choice("1", "0", "-4", str(MAX_THREADS + 1), "10000"),
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
