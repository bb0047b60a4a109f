"""The truncated-Taylor multiply kernel: out[oo[t]] += a[ii[t]] * b[jj[t]]
over an algebra's precomputed sparse index triples, as one numpy
``bincount``."""

import numpy as np


# Kept in its own module: perfbench's tracer rebinds it here, where
# TNum.__mul__ looks it up on every call.
def mul_accumulate(ii, jj, oo, a, b, size):
    return np.bincount(oo, weights=a[ii] * b[jj], minlength=size)
