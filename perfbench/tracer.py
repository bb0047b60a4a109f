"""Layer tracing of finslercheck from outside the package.

``Tracer.install()`` replaces the public functions of each layer with
timing wrappers at every place they are bound: the defining module and
every ``finslercheck`` module that imported them by name.  The kernel
boundary is ``taylor._backend.mul_accumulate``, which ``TNum.__mul__``
looks up on every call.  The package itself is not modified.

Spans (name, start, end, parent, self time) are kept in memory on a
per-thread stack and written out at the end.  A span's self time is its
duration minus the time its child spans on the same thread cover.  Kernel
calls are leaves and very numerous, so they are aggregated per algebra
signature instead of being stored one by one; their time is still
subtracted from the enclosing span.
"""

import functools
import inspect
import itertools
import statistics
import sys
import threading
from collections import Counter
from time import perf_counter, thread_time

# Coefficient-count bands of the multiply kernel, largest first.
KERNEL_BANDS = (("large", 1000), ("medium", 100), ("small", 0))

# The twelve pipeline ops of ``geometry.__all__``, metric_tensor to
# delta_derivative.
GEOMETRY_OPS = (
    "metric_tensor", "hilbert_form", "angular_metric", "spray_coefficients",
    "nonlinear_connection", "berwald_connection", "berwald_curvature",
    "mean_berwald", "landsberg_tensor", "jacobi_endomorphism", "curvature_R",
    "delta_derivative",
)
FORMS_FNS = ("is_parallel", "covariant_derivative", "delta_beta", "d_R_beta",
             "homogeneity_residual")
ANALYSIS_FNS = ("scalar_curvature_fit", "parallel_obstruction_scan")
SPHSYM_FNS = ("pq_from_profile", "metrizability_residuals", "spray_from_pq",
              "profile_metric", "classify_profile", "parallel_pq",
              "sss_residuals", "parallel_form_check")
CLI_COMMANDS = ("scan", "tensors", "invariants", "check-parallel",
                "scalar-curvature", "sphsym")
ERROR_MODULES = ("taylor", "calculus", "geometry", "forms", "analysis",
                 "sphsym", "sampling", "cli", "reporting")

AD_JET = "calculus.ad_jet"
FD_JET = "calculus.fd_jet"
SPRAY_JETS = "geometry.spray_jets"

# Counts that must repeat exactly between two traced passes of one program.
COUNT_SUFFIXES = (".calls", ".triples", ".bytes", ".errors")
EXACT_COUNTS = ("calculus.fd.field_evals", "geometry.spray_jets.misses")


def metric_names():
    """Every per-layer metric the traced run reports, in a fixed order."""
    return list(_pass_metrics([], {}, Counter(), [], 0))


def is_exact_count(name):
    return name.endswith(COUNT_SUFFIXES) or name in EXACT_COUNTS


def band_of(size):
    for band, floor in KERNEL_BANDS:
        if size >= floor:
            return band
    raise ValueError(size)


class _ThreadState:
    def __init__(self, ident):
        self.ident = ident
        self.stack = []      # open frames: [id, parent, name, start, child_s]
        self.reset()

    def reset(self):
        self.spans = []      # (id, parent, thread, name, start, end, self_s)
        self.kernel = {}     # id(index array) -> [ii, size, calls, s, bytes]
        self.errors = Counter()
        self.field_evals = 0
        self.busy = []       # (summed worker CPU time, wall time) per map


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._states = []
        self.spans = []          # every span of every traced pass
        self.kernel_table = {}   # (size, triples) -> [calls, s, bytes/call]
        self.missing = []        # functions not found (renamed or removed)

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _run(self, name, module, fn, args, kwargs, parent=None):
        st = self._state()
        stack = st.stack
        if parent is None and stack:
            parent = stack[-1][0]
        frame = [next(self._ids), parent, name, 0.0, 0.0]
        stack.append(frame)
        frame[3] = start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            st.errors[module] += 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            if stack:
                stack[-1][4] += end - start
            st.spans.append((frame[0], frame[1], st.ident, name, start, end,
                             end - start - frame[4]))

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, module, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._run(name, module, fn, args, kwargs)
        return wrapper

    def _jet(self, fn):
        # jet_of / jet_of_many(fn, groups, caps, scheme="ad")
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            scheme = kwargs.get("scheme", args[3] if len(args) > 3 else "ad")
            name = FD_JET if scheme == "fd" else AD_JET
            return self._run(name, "calculus", fn, args, kwargs)
        return wrapper

    def _field_eval(self, fn):
        # eval_jet: counted when issued inside an FD jet; its AD work is
        # already a calculus.ad_jet span through jet_of
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            if any(f[2] == FD_JET for f in st.stack):
                st.field_evals += 1
            return fn(*args, **kwargs)
        return wrapper

    def _map_samples(self, fn):
        @functools.wraps(fn)
        def busy(work, samples, *args, **kwargs):
            map_id = self._state().stack[-1][0]
            cpu = []

            def task(sample):
                c0 = thread_time()
                try:
                    return self._run("sampling.task", "sampling", work,
                                     (sample,), {}, parent=map_id)
                finally:
                    cpu.append(thread_time() - c0)

            w0 = perf_counter()
            out = fn(task, samples, *args, **kwargs)
            self._state().busy.append((sum(cpu), perf_counter() - w0))
            return out
        return self._span("sampling.map_samples", "sampling", busy)

    def _kernel(self, fn):
        def mul_accumulate(ii, jj, oo, a, b, size):
            st = self._state()
            start = perf_counter()
            try:
                out = fn(ii, jj, oo, a, b, size)
            except BaseException:
                st.errors["taylor"] += 1
                raise
            dt = perf_counter() - start
            if st.stack:
                st.stack[-1][4] += dt
            rec = st.kernel.get(id(ii))
            if rec is None:
                nbytes = (ii.nbytes + jj.nbytes + oo.nbytes + a.nbytes
                          + b.nbytes + a.itemsize * size)
                rec = st.kernel[id(ii)] = [ii, size, 0, 0.0, nbytes]
            rec[2] += 1
            rec[3] += dt
            return out
        return mul_accumulate

    # -- installation -------------------------------------------------------

    def _rebind(self, module, name, make):
        """Replace module.name with make(original) wherever a finslercheck
        module binds the same object."""
        orig = getattr(module, name, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        wrapper = make(orig)
        for mod in [m for k, m in list(sys.modules.items())
                    if k.startswith("finslercheck") and m is not None]:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)

    def install(self):
        from finslercheck import (analysis, calculus, cli, forms, geometry,
                                  reporting, sampling, sphsym)
        from finslercheck.taylor import _backend

        self._rebind(_backend, "mul_accumulate", self._kernel)
        self._rebind(calculus, "jet_of", self._jet)
        self._rebind(calculus, "jet_of_many", self._jet)
        self._rebind(calculus, "eval_jet", self._field_eval)
        self._rebind(calculus, "homogeneity_check", lambda f: self._span(
            "calculus.homogeneity_check", "calculus", f))
        self._rebind(sampling, "map_samples", self._map_samples)
        for module, names in ((geometry, GEOMETRY_OPS + ("spray_jets",)),
                              (forms, _public_functions(forms)),
                              (analysis, _public_functions(analysis)),
                              (sphsym, _public_functions(sphsym))):
            short = module.__name__.rsplit(".", 1)[1]
            for name in names:
                self._rebind(module, name, lambda f, n=f"{short}.{name}",
                             s=short: self._span(n, s, f))
        for command, runner in list(cli.RUNNERS.items()):
            cli.RUNNERS[command] = self._span(f"cli.{command}", "cli", runner)
        reporting.Report.to_json = self._span(
            "reporting.serialize", "reporting", reporting.Report.to_json)

    # -- per-pass aggregation -----------------------------------------------

    def take(self):
        """Per-layer metrics of everything traced since the last call.
        Call only while no traced worker thread is running."""
        spans, kernel, errors, busy, field_evals = [], {}, Counter(), [], 0
        with self._lock:
            states = list(self._states)
        for st in states:
            spans += st.spans
            for ii, size, calls, secs, nbytes in st.kernel.values():
                rec = kernel.setdefault((size, len(ii)), [0, 0.0, nbytes])
                rec[0] += calls
                rec[1] += secs
            errors.update(st.errors)
            busy += st.busy
            field_evals += st.field_evals
            st.reset()
        self.spans += spans
        for key, (calls, secs, nbytes) in kernel.items():
            rec = self.kernel_table.setdefault(key, [0, 0.0, nbytes])
            rec[0] += calls
            rec[1] += secs
        return _pass_metrics(spans, kernel, errors, busy, field_evals)

    def kernel_rows(self):
        """Per-signature kernel table over all traced passes."""
        blocks = _algebra_blocks()
        rows = []
        for (size, triples), (calls, secs, nbytes) in sorted(
                self.kernel_table.items(), key=lambda kv: -kv[1][1]):
            rows.append({
                "blocks": blocks.get((size, triples)),
                "coefficients": size,
                "triples": triples,
                "calls": calls,
                "us_per_call": 1e6 * secs / calls,
                "computed_bytes_per_call": nbytes,
            })
        return rows


def _public_functions(module):
    return tuple(name for name, val in vars(module).items()
                 if inspect.isfunction(val) and not name.startswith("_")
                 and val.__module__ == module.__name__)


def _algebra_blocks():
    """(size, triples) -> block signature of every algebra whose tables
    were built."""
    from finslercheck import taylor

    out = {}
    for alg in list(getattr(taylor, "_ALGEBRAS", {}).values()):
        tables = getattr(alg, "_tables", None)
        if tables is not None:
            out[(alg.size, len(tables[0]))] = [list(b) for b in alg.blocks]
    return out


def _pass_metrics(spans, kernel, errors, busy, field_evals):
    calls, self_s, total_s = Counter(), Counter(), Counter()
    jet_parents = set()
    for sid, parent, _, name, start, end, own in spans:
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
        if name in (AD_JET, FD_JET):
            jet_parents.add(parent)
    out = {}
    for band, _ in KERNEL_BANDS:
        for key in ("calls", "self_s", "triples", "bytes"):
            out[f"taylor.mul.{band}.{key}"] = 0
    for (size, triples), (n, secs, nbytes) in kernel.items():
        band = band_of(size)
        out[f"taylor.mul.{band}.calls"] += n
        out[f"taylor.mul.{band}.self_s"] += secs
        out[f"taylor.mul.{band}.triples"] += n * triples
        out[f"taylor.mul.{band}.bytes"] += n * nbytes
    for name in (AD_JET, FD_JET, "calculus.homogeneity_check"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["calculus.fd.field_evals"] = field_evals
    for op in GEOMETRY_OPS:
        out[f"geometry.{op}.calls"] = calls[f"geometry.{op}"]
        out[f"geometry.{op}.self_s"] = self_s[f"geometry.{op}"]
    misses = sum(1 for sid, _, _, name, *_ in spans
                 if name == SPRAY_JETS and sid in jet_parents)
    out[f"{SPRAY_JETS}.calls"] = calls[SPRAY_JETS]
    out[f"{SPRAY_JETS}.misses"] = misses
    out[f"{SPRAY_JETS}.hit_ratio"] = (
        (calls[SPRAY_JETS] - misses) / calls[SPRAY_JETS]
        if calls[SPRAY_JETS] else 0.0)
    wall = sum(w for _, w in busy)
    out["sampling.map_samples.busy_ratio"] = (
        sum(c for c, _ in busy) / wall if wall else 0.0)
    for fn in FORMS_FNS:
        out[f"forms.{fn}.calls"] = calls[f"forms.{fn}"]
        out[f"forms.{fn}.self_s"] = self_s[f"forms.{fn}"]
    for fn in ANALYSIS_FNS:
        out[f"analysis.{fn}.self_s"] = self_s[f"analysis.{fn}"]
    for fn in SPHSYM_FNS:
        out[f"sphsym.{fn}.calls"] = calls[f"sphsym.{fn}"]
        out[f"sphsym.{fn}.self_s"] = self_s[f"sphsym.{fn}"]
    for c in CLI_COMMANDS:
        out[f"cli.{c}.s"] = total_s[f"cli.{c}"]
    out["reporting.serialize_s"] = total_s["reporting.serialize"]
    for m in ERROR_MODULES:
        out[f"{m}.errors"] = errors[m]
    return out


def combine(passes):
    """One value per metric over several traced passes: exact counts are
    taken from the first pass (``unsteady`` lists those that differ between
    passes), times and ratios are medians."""
    first = passes[0]
    unsteady = sorted(k for k in first if is_exact_count(k)
                      and any(p[k] != first[k] for p in passes[1:]))
    out = {k: (first[k] if is_exact_count(k)
               else statistics.median(p[k] for p in passes))
           for k in first}
    return out, unsteady
