"""Spans and counts recorded at ddkit's layer boundaries, from outside the
library.

Calls inside the package resolve through module globals and class
attributes, so ``Tracer.install`` replaces every binding of each boundary
function in the ``ddkit`` modules (and the boundary methods on their
classes) with a recording wrapper, and ``Tracer.uninstall`` puts the
originals back.  An untraced pass runs with nothing installed.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root).  A span's self time is its duration minus
the durations of its direct children, which never overlap because the
library runs on one thread.  Counts marked "computed" are derived from the
arguments at the boundary (schedule length and matrix dimension), not
counted inside the library.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from ddkit import acceptance, linalg, model, operators, pulseshape, sequences, simulate

BYTES_PER_ENTRY = 16  # complex128

# ---------------------------------------------------------------------------
# hooks: count work from the arguments and result of one boundary call


@functools.cache
def _signature(fn):
    return inspect.signature(fn)


def _bound(fn, args, kwargs):
    return _signature(fn).bind(*args, **kwargs).arguments


def _matmuls(counts, n, dim):
    """n dense dim x dim products: two operands read, one result written."""
    counts["simulate.matmuls"] += n
    counts["simulate.bytes_moved"] += n * 3 * dim * dim * BYTES_PER_ENTRY


def _on_propagate(counts, fn, args, kwargs, result, parent):
    a = _bound(fn, args, kwargs)
    sched, dim = a["schedule"], a["model"].dim
    per_block = 4 if a.get("interval_conj") is not None else 2
    _matmuls(counts, per_block * (len(sched.events) + 1) + len(sched.op_labels), dim)


def _on_propagate_wrapped(counts, fn, args, kwargs, result, parent):
    # W U W U around the half-time propagator, which counts its own products.
    _matmuls(counts, 3, _bound(fn, args, kwargs)["model"].dim)


def _on_error(counts, fn, args, kwargs, result, parent):
    # Two krons lift Omega and the net pulse, four products form the
    # difference, one SVD takes its norm.
    dim = args[0].shape[0]
    _matmuls(counts, 4, dim)
    counts["simulate.bytes_moved"] += 2 * dim * dim * BYTES_PER_ENTRY


def _on_fit(counts, fn, args, kwargs, result, parent):
    counts["simulate.fit_points_offered"] += len(_bound(fn, args, kwargs)["points"])
    if result is not None:
        counts["simulate.fit_points_kept"] += result[3]


def _on_compile(counts, fn, args, kwargs, result, parent):
    if parent != "sequences.compile":  # nested compiles are part of the outer one
        counts["sequences.events"] += len(result.events)


def _count_eigh(eig, counts):
    """HamiltonianModel.eig that counts the eigendecompositions its cache
    does not answer; the cache can only be read before the call."""

    @functools.wraps(eig)
    def wrapper(self):
        if self._eig is None:
            counts["model.eigh_calls"] += 1
        return eig(self)

    return wrapper


def _on_eta(counts, fn, args, kwargs, result, parent):
    counts["pulseshape.eta_evals"] += 1


# (owner, attribute, span name or None for count only, hook run after the
# call or None)
BOUNDARIES = (
    (operators.Moos, "__post_init__", "operators.validate", None),
    (operators, "lie_closure", "operators.closure", None),
    *((sequences, f, "sequences.compile", _on_compile) for f in (
        "udd_schedule", "first_order_schedule", "sdd_schedule",
        "cdd_uniform", "cdd_nested", "nudd")),
    (sequences, "schedule_to_json", "sequences.json", None),
    (sequences, "schedule_from_json", "sequences.json", None),
    (model, "random_model", "model.realize", None),
    (model.HamiltonianModel, "eig", "model.eig", None),
    (model.HamiltonianModel, "propagator", "model.propagator", None),
    (model.HamiltonianModel, "lift", "model.lift", None),
    (simulate, "order_scan", "simulate.scan", None),
    (simulate, "propagate", "simulate.propagate", _on_propagate),
    (simulate, "propagate_wrapped", "simulate.propagate", _on_propagate_wrapped),
    (simulate, "preservation_error", "simulate.error", _on_error),
    (simulate, "fit_loglog", "simulate.fit", _on_fit),
    (linalg, "spectral_norm", "linalg.svd", None),
    (linalg, "kron", "linalg.kron", None),
    (linalg, "expm_i", "linalg.expm", None),
    (pulseshape, "design_pulse", "pulseshape.design", None),
    (pulseshape, "eta_integrals", None, _on_eta),
    (pulseshape, "propagate_pulse", "pulseshape.propagate_pulse", None),
    (pulseshape, "pulse_error_scan", "pulseshape.scan", None),
)

# Per-layer metric -> span whose self time it sums.
SELF_TIME = {
    "operators.validate_s": "operators.validate",
    "operators.closure_s": "operators.closure",
    "sequences.compile_s": "sequences.compile",
    "sequences.json_s": "sequences.json",
    "model.realize_s": "model.realize",
    "model.eig_s": "model.eig",
    "model.propagator_s": "model.propagator",
    "model.lift_s": "model.lift",
    "simulate.scan_self_s": "simulate.scan",
    "simulate.propagate_s": "simulate.propagate",
    "simulate.error_s": "simulate.error",
    "simulate.fit_s": "simulate.fit",
    "linalg.svd_s": "linalg.svd",
    "linalg.kron_s": "linalg.kron",
    "linalg.expm_s": "linalg.expm",
    "pulseshape.design_s": "pulseshape.design",
    "pulseshape.propagate_pulse_s": "pulseshape.propagate_pulse",
    "pulseshape.scan_self_s": "pulseshape.scan",
}
# Per-layer metric -> span whose whole duration it sums: the acceptance
# criteria only orchestrate, so their self time says nothing.
DURATION = {f"acceptance.c{n:02d}_s": f"acceptance.c{n:02d}"
            for n in range(1, len(acceptance.CRITERIA) + 1)}
# Per-layer metric -> span whose calls it counts; a span directly inside one
# of the same name is part of that call and is not counted again.
CALLS = {
    "model.realize_calls": "model.realize",
    "model.exponentials": "model.propagator",
    "simulate.propagate_calls": "simulate.propagate",
    "simulate.error_calls": "simulate.error",
    "linalg.svd_calls": "linalg.svd",
    "linalg.kron_calls": "linalg.kron",
    "linalg.expm_calls": "linalg.expm",
    "pulseshape.propagate_pulse_calls": "pulseshape.propagate_pulse",
}
# Counted by the hooks.
HOOK_COUNTS = (
    "sequences.events",
    "model.eigh_calls",
    "simulate.matmuls",
    "simulate.bytes_moved",
    "simulate.fit_points_kept",
    "simulate.fit_points_offered",
    "pulseshape.eta_evals",
)
ROOT_SELF = "workload.self_s"          # time in no layer span
VALIDATE_SVDS = "operators.svd_calls"  # SVDs made directly by MOOS validation


class Tracer:
    """Records spans and counts while installed; holds them in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx, (self.spans[parent][0] if parent >= 0 else None)

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def region(self, name):
        idx, _ = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, hook):
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                hook(counts, fn, args, kwargs, result, None)
                return result
            idx, parent = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(idx)
                if hook is not None:
                    hook(counts, fn, args, kwargs, result, parent)

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ddkit" or n.startswith("ddkit."))]
        for owner, attr, name, hook in BOUNDARIES:
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, name, hook)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
        criteria = [self._wrap(fn, f"acceptance.c{n:02d}", None)
                    for n, fn in enumerate(acceptance.CRITERIA, start=1)]
        self._patch(acceptance, "CRITERIA", criteria)
        self._patch(model.HamiltonianModel, "eig",
                    _count_eigh(model.HamiltonianModel.eig, self.counts))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def metrics(self):
        """Per-layer metrics of everything recorded, as plain numbers."""
        self_time = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_time[s[3]] -= s[2] - s[1]
        out = {m: 0.0 for m in (*SELF_TIME, *DURATION)}
        out.update({m: 0 for m in CALLS})
        out.update({m: self.counts.get(m, 0) for m in HOOK_COUNTS})
        out[ROOT_SELF] = 0.0
        out[VALIDATE_SVDS] = 0
        by_span = {span: m for m, span in SELF_TIME.items()}
        duration_by_span = {span: m for m, span in DURATION.items()}
        calls_by_span = {span: m for m, span in CALLS.items()}
        for (name, start, end, parent), st in zip(self.spans, self_time):
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if parent < 0:
                out[ROOT_SELF] += st
            elif name in by_span:
                out[by_span[name]] += st
            elif name in duration_by_span:
                out[duration_by_span[name]] += end - start
            if name in calls_by_span and parent_name != name:
                out[calls_by_span[name]] += 1
            if name == "linalg.svd" and parent_name == "operators.validate":
                out[VALIDATE_SVDS] += 1
        return out

    def span_table(self):
        """Spans in a compact form for the trace file: names are indexed."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1), p]
                for n, a, b, p in self.spans]
        return {"names": names, "columns": ["name", "start_us", "end_us", "parent"],
                "spans": rows}


def merged(*metric_sets):
    """Sum per-layer metrics of several tracers (set-up plus one pass)."""
    return {k: sum(ms[k] for ms in metric_sets) for k in metric_sets[0]}


def count_signature(metrics):
    """The deterministic part of a metric set: every count, no time."""
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}

