"""Regenerate the report corpus that ``tests/test_corpus.py`` compares with.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 tests/corpus/regenerate.py

Each case in ``CASES`` runs ``finslercheck`` in-process at seed 0.  The
corpus keeps, per case, the normalised JSON report (``<name>.json``, with
``generated_at``, ``out`` and ``sweep`` removed), the ``--sweep`` CSV where
the case writes one (``<name>.csv``), and in ``index.json`` the argv, the
exit code and the printed summary, with the Python minor version and the
numpy version the corpus was made with.

A change that alters a corpus file lists each changed file and the reason
for it; regenerating to make a comparison pass hides what changed.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from finslercheck import cli

CORPUS = Path(__file__).resolve().parent

# name -> argv without --seed/--out; "{sweep}" marks the --sweep path
CASES = {
    # the benchmark argv
    "scan": ["scan", "--metric", "general_berwald", "--a", "0.1,0.05,0",
             "--x-points", "6", "--y-samples", "20", "--threads", "2"],
    "tensors": ["tensors", "--metric", "general_berwald", "--a", "0.1,0.05,0",
                "--samples", "10"],
    "invariants": ["invariants", "--metric", "general_berwald",
                   "--a", "0.1,0.05,0", "--samples", "20"],
    "check-parallel": ["check-parallel", "--metric", "funk_parallel",
                       "--a", "0.5,0.1,0", "--c", "1", "--cmu", "0,0.2",
                       "--samples", "100"],
    "scalar-curvature": ["scalar-curvature", "--metric", "klein",
                         "--samples", "100"],
    "sphsym": ["sphsym", "--phi", "berwald_classic", "--samples", "100",
               "--f", "1", "--P", "r*s/10"],
    "tensors-fd": ["tensors", "--metric", "general_berwald", "--dim", "2",
                   "--samples", "10", "--scheme", "fd"],
    # further schemes, profiles and scan rows
    "check-parallel-fd": ["check-parallel", "--metric", "funk_parallel",
                          "--dim", "2", "--a", "0.5,0.1", "--c", "1",
                          "--cmu", "0.2", "--samples", "10",
                          "--scheme", "fd"],
    "sphsym-sweep": ["sphsym", "--phi", "1+0.1*s+0.2*r*r", "--f", "exp(r)",
                     "--P", "s*s", "--samples", "20", "--sweep", "{sweep}"],
    "sphsym-riemannian": ["sphsym", "--phi", "1+r*r/2", "--samples", "10"],
    "scan-curvature": ["scan", "--metric", "klein", "--rows", "curvature",
                       "--x-points", "3", "--y-samples", "8"],
    # the identity battery per catalogue metric, and the FD oracle at n = 2
    "invariants-klein": ["invariants", "--metric", "klein",
                         "--samples", "20"],
    "invariants-funk_parallel": ["invariants", "--metric", "funk_parallel",
                                 "--a", "0.5,0.1,0", "--samples", "20"],
    "invariants-funk_parallel-2d": ["invariants", "--metric",
                                    "funk_parallel", "--dim", "2",
                                    "--a", "0.5,0.1", "--samples", "20"],
    "invariants-berwald_classic": ["invariants", "--metric",
                                   "berwald_classic", "--samples", "20"],
    "invariants-euclidean": ["invariants", "--metric", "euclidean",
                             "--samples", "20"],
    "invariants-2d": ["invariants", "--metric", "general_berwald",
                      "--dim", "2", "--samples", "20"],
    "invariants-fd": ["invariants", "--metric", "klein", "--dim", "2",
                      "--samples", "10", "--scheme", "fd"],
    "tensors-klein-fd": ["tensors", "--metric", "klein", "--dim", "2",
                         "--samples", "10", "--scheme", "fd"],
    "sphsym-berwald_classic-sweep": ["sphsym", "--phi", "berwald_classic",
                                     "--samples", "20",
                                     "--sweep", "{sweep}"],
    # the FD oracle at n = 3 (3x3 spray solves) and on analytic profiles
    "tensors-fd-3d": ["tensors", "--metric", "general_berwald",
                      "--a", "0.1,0.05,0", "--samples", "10",
                      "--scheme", "fd"],
    "check-parallel-fd-3d": ["check-parallel", "--metric", "funk_parallel",
                             "--a", "0.5,0.1,0", "--c", "1",
                             "--cmu", "0,0.2", "--samples", "10",
                             "--scheme", "fd"],
    "tensors-phi-exp-fd": ["tensors", "--phi", "exp(0.1*s)+r*r",
                           "--dim", "2", "--samples", "10",
                           "--scheme", "fd"],
    "invariants-phi-sin-fd": ["invariants", "--phi", "sin(s)+2",
                              "--dim", "2", "--samples", "10",
                              "--scheme", "fd"],
    # an (r, s) grid of two Taylor-row batches, the last one partial
    "sphsym-ragged": ["sphsym", "--phi", "sqrt(1+s*s)+r", "--f", "1+r*r",
                      "--P", "r-s", "--grid-nr", "7", "--grid-ns", "11",
                      "--samples", "20", "--sweep", "{sweep}"],
}
SEED = 0

_VOLATILE = re.compile(r'^\s*"(generated_at|out|sweep)": .*\n', re.MULTILINE)


def normalised(text):
    """Report text without the fields outside the determinism contract."""
    return _VOLATILE.sub("", text)


def provenance():
    return {"python": "%d.%d" % sys.version_info[:2],
            "numpy": np.__version__}


def run(name, workdir):
    """(exit code, printed summary, normalised report, sweep CSV or None)
    of one case, with its files written under ``workdir``."""
    workdir = Path(workdir)
    sweep = workdir / f"{name}.csv"
    out = workdir / f"{name}.json"
    argv = [str(sweep) if a == "{sweep}" else a for a in CASES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv + ["--seed", str(SEED), "--out", str(out)])
    report = normalised(out.read_text(encoding="utf-8")) \
        if out.exists() else None
    csv = sweep.read_text(encoding="utf-8") if sweep.exists() else None
    return rc, stdout.getvalue(), report, csv


def main():
    index = {"provenance": provenance(), "seed": SEED, "cases": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            rc, summary, report, csv = run(name, tmp)
            index["cases"][name] = {"argv": argv, "rc": rc,
                                    "summary": summary}
            (CORPUS / f"{name}.json").write_text(report, encoding="utf-8")
            if csv is not None:
                (CORPUS / f"{name}.csv").write_text(csv, encoding="utf-8")
            print(f"{name}: rc {rc}")
    (CORPUS / "index.json").write_text(
        json.dumps(index, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
