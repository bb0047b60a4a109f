"""finslercheck benchmark: time to verdict of fixed CLI workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scan|suite|fd --seed N \
        --seconds S --trace 0|1

Each run starts fresh worker processes (``perfbench/worker.py``) that
import finslercheck from ``src/`` of this checkout, pinned to the pure
Python kernel so every series is comparable.  With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json: the median warm pass
time (``verdict_s``), the median fresh-process set-up time over several
processes (``setup_s``) and the peak RSS after the cold pass
(``peak_rss_mb``).  With ``--trace 1`` it reports the per-layer metrics of
a separate traced run.  Every report is checked against its known answer;
the last line of standard output is the result object.  Provenance goes on
the line before it.  Generated files go to ``.perfbench/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "suite", "fd")
SETUP_PROBES = 10
DEADLINE_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker(args, extra, deadline):
    """Run one worker process; its last stdout line, parsed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               FINSLERCHECK_BACKEND="pure")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {extra} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "finslercheck" / "__init__.py").is_file():
        return fail(f"no finslercheck sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    deadline = monotonic() + DEADLINE_S

    def setup_probes(count):
        return [worker(args, ["--setup-only"], deadline)["setup_s"]
                for _ in range(count)]

    # Half of the set-up probes run before the measured worker and half
    # after it, so that they sample the machine at two moments.
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setups = setup_probes(probes // 2)
        res = worker(args, [], deadline)
        setups += setup_probes(probes - probes // 2)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        values = dict(res["layers"],
                      error_rate=failed / attempted,
                      traced_verdict_s=statistics.median(res["pass_s"]))
    else:
        values = {"verdict_s": statistics.median(res["pass_s"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
    if set(values) != set(units):
        return fail("metrics do not match BENCHMARK.json: "
                    f"{sorted(set(values) ^ set(units))}")
    correct = failed == 0 and not res.get("unsteady")
    print(json.dumps({"provenance": res["provenance"],
                      "pass_s": res["pass_s"], "setup_probes_s": setups}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
