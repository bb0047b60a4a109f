"""The truncated-Taylor multiply kernel: out[oo[t]] += a[ii[t]] * b[jj[t]]
over an algebra's precomputed sparse index triples, as one numpy
``bincount``.  For a batch of series (2-D ``a`` of shape ``(size, rows)``,
the row axis last) ``a[ii]`` gathers whole coefficient rows, and ``oo``
holds the flattened bins ``oo * rows + r`` of every row r (cached on the
algebra, ``Algebra.row_bins``), so each row sums its triples in the same
order as a single series does."""

import numpy as np


# Kept in its own module: perfbench's tracer rebinds it here, where
# TNum.__mul__ looks it up on every call.
def mul_accumulate(ii, jj, oo, a, b, size):
    w = a[ii]
    w *= b[jj]  # in place: one gathered (triples, rows) array fewer
    if a.ndim == 1:
        return np.bincount(oo, weights=w, minlength=size)
    return np.bincount(oo, weights=w.ravel(),
                       minlength=a.size).reshape(a.shape)
