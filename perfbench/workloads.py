"""Workload definitions and the known answer each command must give.

A workload is a fixed list of CLI invocations; the benchmark seed is passed
to every one of them as ``--seed``, so the same seed gives the same inputs.
"""

import re

import numpy as np

# Relative tolerance of the FD oracle against the closed forms; the same
# value the test suite uses for ``--scheme fd`` agreement.
FD_TOL = 1e-4
KLEIN_K = -1.0
KLEIN_K_TOL = 1e-6

WORKLOADS = {
    # Kernel on large algebras: one 3200-coefficient nested algebra takes
    # most of the time; no spray homogeneity checks, no Euler chain, a low
    # spray-jet cache hit ratio, and 2 threads over base points.
    "scan": {
        "threads": 2,
        "commands": [
            ["scan", "--metric", "general_berwald", "--a", "0.1,0.05,0",
             "--x-points", "6", "--y-samples", "20", "--threads", "2"],
        ],
    },
    # The everyday AD pipeline, single-threaded: redundant spray
    # evaluations, heavy spray-jet cache reuse, forms, analysis, sphsym and
    # report serialisation.
    "suite": {
        "threads": 1,
        "commands": [
            ["tensors", "--metric", "general_berwald", "--a", "0.1,0.05,0",
             "--samples", "10"],
            ["invariants", "--metric", "general_berwald", "--a", "0.1,0.05,0",
             "--samples", "20"],
            ["check-parallel", "--metric", "funk_parallel", "--a", "0.5,0.1,0",
             "--c", "1", "--cmu", "0,0.2", "--samples", "100"],
            ["scalar-curvature", "--metric", "klein", "--samples", "100"],
            ["sphsym", "--phi", "berwald_classic", "--samples", "100",
             "--f", "1", "--P", "r*s/10"],
        ],
    },
    # The independent FD oracle: many small-algebra multiplies and nested
    # energy jets, no large-algebra multiply, Python call overhead dominant.
    "fd": {
        "threads": 1,
        "commands": [
            ["tensors", "--metric", "general_berwald", "--dim", "2",
             "--samples", "10", "--scheme", "fd"],
        ],
    },
}


def invocations(workload, seed, out_dir):
    """(argv, out_path) per command; the out path is fixed per command so
    every pass writes the same report bytes."""
    runs = []
    for i, argv in enumerate(WORKLOADS[workload]["commands"]):
        out = out_dir / f"{workload}-{i}-{argv[0]}.json"
        runs.append((argv + ["--seed", str(seed), "--out", str(out)], out))
    return runs


def overrides(argv):
    """Config overrides of an argv, as the CLI's flags would set them."""
    command, rest = argv[0], argv[1:]
    values = {rest[k][2:].replace("-", "_"): rest[k + 1]
              for k in range(0, len(rest), 2)}
    return command, values


_VOLATILE = re.compile(r'^\s*"(generated_at|out)": .*\n', re.MULTILINE)


def normalised(text):
    """Report text without the fields outside the determinism contract."""
    return _VOLATILE.sub("", text)


def _all_pass(report):
    return report["pass"] and all(c["pass"] for c in report["checks"])


def _rel_gap(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref))) / (1.0 + float(np.max(np.abs(ref))))


def _fd_matches_closed_form(report):
    from finslercheck import catalogue

    cfg = report["config"]
    ent = catalogue.entry(cfg["metric"], n=cfg["dim"],
                          a=tuple(cfg["a"]) if cfg["a"] else None)
    worst = 0.0
    for s in report["data"]["samples"]:
        x, y = tuple(s["x"]), tuple(s["y"])
        worst = max(worst,
                    _rel_gap(s["spray"], [float(v) for v in ent.spray_cf(x, y)]),
                    _rel_gap(s["berwald_curvature"],
                             ent.berwald_curvature_cf(x, y)))
    return worst <= FD_TOL, worst


def check(workload, report):
    """None when the report gives the known answer, else the reason."""
    command = report["command"]
    verdicts = report["verdicts"]
    if workload == "scan":
        if verdicts.get("branch") != "pointwise" \
                or verdicts.get("max_kernel_dim") != 0:
            return f"scan verdicts {verdicts}"
        return None
    if not _all_pass(report):
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        return f"{command}: failed checks {failed}"
    if workload == "fd":
        ok, gap = _fd_matches_closed_form(report)
        return None if ok else f"fd gap {gap:.3e} to the closed forms"
    if command == "check-parallel" \
            and verdicts.get("verdict") != "ParallelWithinTol":
        return f"check-parallel verdict {verdicts.get('verdict')}"
    if command == "scalar-curvature":
        k = verdicts.get("k_range") or [float("nan")]
        if verdicts.get("verdict") != "ScalarCurvature" or not all(
                abs(v - KLEIN_K) <= KLEIN_K_TOL for v in k):
            return f"scalar-curvature verdicts {verdicts}"
    if command == "sphsym" and (
            verdicts.get("classification") != "generic"
            or verdicts.get("parallel_verdict") != "ParallelWithinTol"):
        return f"sphsym verdicts {verdicts}"
    return None
