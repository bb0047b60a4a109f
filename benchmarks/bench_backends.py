#!/usr/bin/env python3
"""Compare the compiled Taylor-multiply kernel against the numpy fallback.

The truncated-Taylor multiply is the hot inner loop of every jet in the
package; this script times it in isolation and through two realistic
workloads (an energy jet and the full Berwald-curvature pipeline), swapping
the kernel in place so both backends see identical work.  The flat
((3,2),(3,5)) algebra is the one the curvature-tier spray jet multiplies
in (one energy jet of order (2,5), differentiated by derivative shifts).
No code path builds an algebra with more blocks than its jet has groups.

Usage: python benchmarks/bench_backends.py [--repeats N]
"""

import argparse
import time

import numpy as np

from finslercheck import catalogue, geometry
from finslercheck.calculus import JetOrder, TangentSample, eval_jet
from finslercheck.sampling import tangent_samples
from finslercheck.taylor import TNum, algebra
from finslercheck.taylor import _backend


def _kernels():
    out = {"pure": _backend._mul_pure}
    try:
        from finslercheck.taylor import _speedups
        out["compiled"] = _speedups.mul_accumulate
    except ImportError:
        pass
    return out


def timed(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_raw_multiply(rng):
    cases = {}
    for label, blocks in (
        ("multiply (n=3 jet (1,2))", ((3, 1), (3, 2))),
        ("multiply (n=3 flat energy jet (2,5))", ((3, 2), (3, 5))),
    ):
        alg = algebra(blocks)
        alg.tables()
        a = TNum(alg, rng.standard_normal(alg.size))
        b = TNum(alg, rng.standard_normal(alg.size))

        def work(a=a, b=b):
            for _ in range(200):
                a * b

        cases[label] = work
    return cases


def bench_pipeline():
    cases = {}
    ent = catalogue.entry("general_berwald", n=3, a=(0.1, 0.05, 0.0))
    samples = tangent_samples(3, 10, seed=1)

    def energy_jets():
        for at in samples:
            eval_jet(ent.model.energy, at, JetOrder(1, 2))

    def curvature_pipeline():
        # fresh model per call so the per-sample jet cache cannot hide work
        e = catalogue.entry("general_berwald", n=3, a=(0.1, 0.05, 0.0))
        for at in samples[:4]:
            geometry.berwald_curvature(e.model, at)

    cases["energy jet (1,2), 10 samples"] = energy_jets
    cases["Berwald curvature pipeline, 4 samples"] = curvature_pipeline
    return cases


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    kernels = _kernels()
    if "compiled" not in kernels:
        print("compiled kernel not built (python setup.py build_ext "
              "--inplace); timing the pure backend only")
    rng = np.random.default_rng(0)
    cases = {}
    cases.update(bench_raw_multiply(rng))
    cases.update(bench_pipeline())

    results = {}
    for backend, kernel in kernels.items():
        _backend.mul_accumulate = kernel
        for label, work in cases.items():
            work()  # warm up tables and caches
            results[(label, backend)] = timed(work, args.repeats)
    _backend.mul_accumulate = kernels.get("compiled", kernels["pure"])

    width = max(len(label) for label in cases)
    header = f"{'workload':<{width}}  " + "".join(
        f"{b:>12}" for b in kernels) + ("     speedup" if len(kernels) == 2 else "")
    print(header)
    print("-" * len(header))
    for label in cases:
        row = f"{label:<{width}}  "
        times = [results[(label, b)] for b in kernels]
        row += "".join(f"{t * 1e3:>10.2f}ms" for t in times)
        if len(times) == 2:
            row += f"{times[0] / times[1]:>11.2f}x"
        print(row)


if __name__ == "__main__":
    main()
