"""The truncated-Taylor multiply kernel: out[oo[t]] += a[ii[t]] * b[jj[t]]
over an algebra's precomputed sparse index triples, as one numpy
``bincount``.  For a batch of series (2-D ``a`` of shape ``(size, rows)``,
the row axis last) the gathers take whole coefficient rows, and ``oo``
holds the flattened bins ``oo * rows + r`` of every row r (cached on the
algebra, ``Algebra.row_bins``), so each row sums its triples in the same
order as a single series does.

A batch gathers its two ``(triples, rows)`` operands into a work area
that the kernel keeps, grown to the largest pair of gathers seen.  Fresh
gathers of the (1, 3) energy jet's size lie above glibc's mmap threshold,
so each call would fault its pages in again (``mallopt(3)``,
``M_MMAP_THRESHOLD``) and spend more time on that than on the multiply.
The area is held per thread, so callers on two threads never share it,
and ``bincount`` returns a fresh array, so no result aliases it.  A single
series keeps plain fancy indexing: its gathers are small."""

import threading

import numpy as np

_area = threading.local()


def _grow(shape):
    """This thread's two gather arrays of ``shape`` (triples, rows) and the
    first one flattened, as views of its work area: built once per shape,
    and the area is replaced by a larger one when they do not fit."""
    half = shape[0] * shape[1]
    buf = getattr(_area, "buf", None)
    if buf is None or buf.size < 2 * half:
        _area.buf = buf = np.empty(2 * half)
        _area.views = {}  # views of the old area would keep it alive
    flat = buf[:half]
    views = _area.views[shape] = (flat.reshape(shape),
                                  buf[half:2 * half].reshape(shape), flat)
    return views


# Kept in its own module: perfbench's tracer rebinds it here, where
# TNum.__mul__ looks it up on every call.
def mul_accumulate(ii, jj, oo, a, b, size):
    if a.ndim == 1:
        w = a[ii]
        w *= b[jj]  # in place: one gathered array fewer
        return np.bincount(oo, weights=w, minlength=size)
    shape = (len(ii), a.shape[1])
    try:
        wa, wb, flat = _area.views[shape]
    except (AttributeError, KeyError):
        wa, wb, flat = _grow(shape)
    # the tables are built in range, and "clip" writes to out directly
    # where the default "raise" buffers it; the method skips np.take's
    # dispatch, about 0.7 us a call on the small algebras
    a.take(ii, 0, wa, "clip")
    b.take(jj, 0, wb, "clip")
    wa *= wb
    return np.bincount(oo, weights=flat,
                       minlength=a.size).reshape(a.shape)
