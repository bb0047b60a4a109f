"""One fresh benchmark process for one workload.

``--setup-only`` times importing finslercheck and building the workload's
configs and models, then exits.  Otherwise the process also runs the
workload in-process through ``cli.main``: one cold pass, then warm passes
until ``--seconds`` is used, checking every report against its known
answer.  With ``--trace 1`` the warm passes run under the layer tracer.
The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, check, invocations, normalised, overrides

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"

MIN_PASSES = 3
# Stop starting passes after this long, whatever MIN_PASSES says, so a run
# ends well within its limit even if the program becomes much slower.
HARD_STOP_S = 110.0


def setup(workload, seed):
    """Seconds to import finslercheck and build the configs and models."""
    start = perf_counter()
    from finslercheck import catalogue, cli, config, sphsym  # noqa: F401

    for argv, _ in invocations(workload, seed, STATE / "out"):
        command, values = overrides(argv)
        cfg = config.build_config(command, {}, values)
        if cfg.metric:
            catalogue.entry(cfg.metric, n=cfg.dim, a=cfg.a)
        else:
            profile = sphsym.SphSymProfile(catalogue.berwald_classic_phi,
                                           r0=1.0, name=cfg.phi)
            sphsym.profile_metric(profile, cfg.dim)
    elapsed = perf_counter() - start
    src = Path(cli.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"finslercheck was imported from {src}, "
                         f"not from {ROOT / 'src'}")
    return elapsed


class Passes:
    """Runs passes of a workload and checks each report."""

    def __init__(self, workload, seed):
        from finslercheck import cli

        self.cli = cli
        self.workload = workload
        self.runs = invocations(workload, seed, STATE / "out")
        self.first = {}
        self.attempted = 0
        self.failed = 0

    def run(self):
        """Wall seconds spent in cli.main for one pass."""
        spent = 0.0
        for argv, out in self.runs:
            self.attempted += 1
            problem = None
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(argv)
            except (Exception, SystemExit):
                code = None
                problem = traceback.format_exc()
            spent += perf_counter() - start
            if problem is None:
                problem = self._verify(out, code)
            if problem is not None:
                self.failed += 1
                print(f"FAILED {' '.join(argv)}: {problem}", file=sys.stderr)
        return spent

    def _verify(self, out, code):
        if code != 0:
            return f"exit code {code}"
        text = out.read_text(encoding="utf-8")
        problem = check(self.workload, json.loads(text))
        if problem is not None:
            return problem
        text = normalised(text)
        if self.first.setdefault(out, text) != text:
            return "report differs from the first pass's"
        return None


def measure(passes, seconds, start, between=None):
    """Warm pass times until ``seconds`` after ``start`` are used (at least
    MIN_PASSES)."""
    times = []
    while True:
        times.append(passes.run())
        if between is not None:
            between()
        elapsed = perf_counter() - start
        if elapsed > HARD_STOP_S or (
                len(times) >= MIN_PASSES
                and elapsed + statistics.median(times) > seconds):
            return times


def provenance(workload, seed, trace):
    import numpy
    from finslercheck import taylor

    return {
        "backend": taylor.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": WORKLOADS[workload]["threads"],
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def write_trace(workload, seed, prov, tracer, per_pass, combined, unsteady):
    base = STATE / "trace" / f"{workload}-seed{seed}"
    base.parent.mkdir(parents=True, exist_ok=True)
    summary = {
        "provenance": prov,
        "missing_functions": tracer.missing,
        "unsteady_counts": unsteady,
        "metrics": combined,
        "per_pass": per_pass,
        "kernel_table": tracer.kernel_rows(),
        "span_count": len(tracer.spans),
    }
    with open(f"{base}.summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    with open(f"{base}.spans.jsonl", "w", encoding="utf-8") as fh:
        for sid, parent, thread, name, start, end, own in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent,
                                 "thread": thread, "name": name,
                                 "start": start, "end": end,
                                 "self": own}) + "\n")
    return summary


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    (STATE / "out").mkdir(parents=True, exist_ok=True)
    passes = Passes(args.workload, args.seed)
    start = perf_counter()
    passes.run()  # cold pass: lazy tables and imports, excluded from times
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(args.workload, args.seed, args.trace),
    }
    if args.trace:
        from tracer import Tracer, combine

        tracer = Tracer()
        tracer.install()
        per_pass = []
        times = measure(passes, args.seconds, start,
                        between=lambda: per_pass.append(tracer.take()))
        combined, unsteady = combine(per_pass)
        summary = write_trace(args.workload, args.seed, result["provenance"],
                              tracer, per_pass, combined, unsteady)
        for row in summary["kernel_table"]:
            print(f"kernel {row}", file=sys.stderr)
        if tracer.missing:
            print(f"not traced (missing): {tracer.missing}", file=sys.stderr)
        if unsteady:
            print(f"counts differ between traced passes: {unsteady}",
                  file=sys.stderr)
        result.update(layers=combined, unsteady=unsteady)
    else:
        times = measure(passes, args.seconds, start)
    result.update(pass_s=times, attempted=passes.attempted,
                  failed=passes.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
