"""Seeded, reproducible sampling of tangent vectors and (r, s) grids.

Base points are uniform in a ball (default radius 0.6 to keep unit-ball
metrics away from their boundary); fiber vectors are uniform on the unit
sphere, which suffices by homogeneity.  Identical seeds give identical
samples on every platform numpy supports.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .calculus import TangentSample
from .errors import BadParameter

DEFAULT_RADIUS = 0.6


def rng_for(seed):
    return np.random.default_rng(seed)


def _check_annulus(radius, r_min):
    # base points are drawn in the ball and rejected below r_min, which
    # would never end when no point of the ball lies at or past r_min
    if not radius > r_min:
        raise BadParameter(f"sampling radius {radius:g} must exceed the "
                           f"excluded inner radius {r_min:g}")


def ball_point(rng, n, radius):
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return tuple(v * radius * rng.random() ** (1.0 / n))


def sphere_point(rng, n):
    v = rng.standard_normal(n)
    return tuple(v / np.linalg.norm(v))


def tangent_samples(n, count, seed, radius=DEFAULT_RADIUS, r_min=0.0):
    """``count`` samples with |x| in [r_min, radius), |y| = 1."""
    _check_annulus(radius, r_min)
    rng = rng_for(seed)
    out = []
    while len(out) < count:
        x = ball_point(rng, n, radius)
        if np.linalg.norm(x) < r_min:
            continue
        out.append(TangentSample(x, sphere_point(rng, n)))
    return out


def base_points(n, count, seed, radius=DEFAULT_RADIUS, r_min=0.05):
    """Base points only (for per-x scans); excludes a small ball around 0
    so radial quantities stay regular."""
    _check_annulus(radius, r_min)
    rng = rng_for(seed)
    out = []
    while len(out) < count:
        x = ball_point(rng, n, radius)
        if np.linalg.norm(x) >= r_min:
            out.append(x)
    return out


def fiber_samples(n, count, seed):
    rng = rng_for(seed)
    return [sphere_point(rng, n) for _ in range(count)]


def rs_grid(r_lo=0.05, r_hi=0.6, nr=20, ns=20, s_frac=0.95):
    """(r, s) grid with |s| <= s_frac * r, avoiding r = 0 and s = +-r."""
    pts = []
    for r in np.linspace(r_lo, r_hi, nr):
        for s in np.linspace(-s_frac * r, s_frac * r, ns):
            pts.append((float(r), float(s)))
    return pts


def map_samples(fn, samples, threads=1):
    """Apply fn over samples, optionally with a thread pool; order is
    preserved so results are independent of the worker count."""
    if threads <= 1:
        return [fn(s) for s in samples]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, samples))
