"""Span tracer that times gmblasso's public functions from outside the package.

Each traced function is replaced, for the duration of a traced pass, in every
gmblasso namespace that holds it: the modules use ``from .kernel import ...``,
so ``gmblasso.solver.data_witness`` is a different binding from
``gmblasso.kernel.data_witness`` and both must be wrapped.  Nothing under
``src/`` is edited; ``uninstall`` restores every original binding.

Spans are kept in memory as ``(span_id, parent_id, name, start, end, thread,
run_id)`` tuples, with one parent stack per thread because the rate sweep runs
replications on a thread pool.  A span's self time is its duration minus the
time its direct child spans cover.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# (layer name, module that defines it, attribute).  Layer names are
# "<module>.<function>" with the defining module, whatever module calls it.
FUNCTIONS = (
    ("kernel.data_witness", "gmblasso.kernel", "data_witness"),
    ("kernel.lambda_pair", "gmblasso.kernel", "lambda_pair"),
    ("kernel.kernel_values", "gmblasso.kernel", "kernel_values"),
    ("kernel.grad1_batch", "gmblasso.kernel", "grad1_batch"),
    ("kernel.semi_distance_pairs", "gmblasso.kernel", "semi_distance_pairs"),
    ("solver.cpgd_solve", "gmblasso.solver", "cpgd_solve"),
    ("solver.objective_gradient", "gmblasso.solver", "objective_gradient"),
    ("solver.prune_merge", "gmblasso.solver", "prune_merge"),
    ("solver.initial_measure", "gmblasso.solver", "initial_measure"),
    ("solver.acceptance_check", "gmblasso.solver", "acceptance_check"),
    ("measures.weight_function", "gmblasso.measures", "weight_function"),
    ("geometry.region_index_batch", "gmblasso.geometry", "region_index_batch"),
    ("geometry.fr_distance_pairs", "gmblasso.geometry", "fr_distance_pairs"),
    ("geometry.geodesic_spec", "gmblasso.geometry", "geodesic_spec"),
    ("geometry.metric_diag_batch", "gmblasso.geometry", "metric_diag_batch"),
    ("certificates.build_upsilon", "gmblasso.certificates", "build_upsilon"),
    ("certificates.solve_certificates", "gmblasso.certificates", "solve_certificates"),
    ("certificates.verify_nondegeneracy", "gmblasso.certificates", "verify_nondegeneracy"),
    ("experiments.rate_sweep", "gmblasso.experiments", "rate_sweep"),
    ("experiments.sample", "gmblasso.experiments", "sample"),
    ("experiments.region_mass_errors", "gmblasso.experiments", "region_mass_errors"),
    ("experiments.sparsity_check", "gmblasso.experiments", "sparsity_check"),
    ("experiments.prediction_error", "gmblasso.experiments", "prediction_error"),
    ("cli.main", "gmblasso.cli", "main"),
)

# (layer name, module, class, attribute): a static method, method or property.
CLASS_MEMBERS = (
    ("measures.from_arrays", "gmblasso.measures", "DiscreteMeasure", "from_arrays"),
    ("measures.locations_array", "gmblasso.measures", "DiscreteMeasure",
     "locations_array"),
    ("solver.fidelity_constant", "gmblasso.solver", "ObjectiveContext",
     "fidelity_constant"),
)

SPAN_NAMES = tuple(name for name, *_ in FUNCTIONS + CLASS_MEMBERS)


def _witness_counts(tracer, args, kwargs, out):
    x, samples = args[0], args[1]
    m = len(x) if getattr(x, "ndim", 1) == 2 else 1
    n, d = len(samples), (samples.shape[1] if samples.ndim == 2 else 1)
    tracer.add("kernel.data_witness.pair_evals", m * n)
    tracer.maximum("kernel.data_witness.max_temp_mb", m * n * d * 8 / 1e6)


def _lambda_counts(tracer, args, kwargs, out):
    z = args[0]
    shape = getattr(z, "shape", ())
    pairs = 1
    for extent in shape[:-1]:
        pairs *= extent
    tracer.add("kernel.lambda_pair.pair_evals", pairs)


def _solve_counts(tracer, args, kwargs, out):
    tracer.add("solver.iterations", out.iterations_run)
    tracer.add("solver.converged", int(out.converged))


def _verify_counts(tracer, args, kwargs, out):
    tracer.add("certificates.points_evaluated", out.points_evaluated)


def _sweep_counts(tracer, args, kwargs, out):
    tracer.add("experiments.replications_ok", sum(1 for row in out.rows if row.ok))


OBSERVERS = {
    "kernel.data_witness": _witness_counts,
    "kernel.lambda_pair": _lambda_counts,
    "solver.cpgd_solve": _solve_counts,
    "certificates.verify_nondegeneracy": _verify_counts,
    "experiments.rate_sweep": _sweep_counts,
}


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list = []

    # ---------------------------------------------------------------- counters
    def add(self, key: str, amount) -> None:
        with self._lock:
            self.counters[key] += amount

    def maximum(self, key: str, value) -> None:
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    # ------------------------------------------------------------------- spans
    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end,
                              threading.get_ident(), tracer.run_id))
            if observe is not None:
                observe(tracer, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function at every gmblasso binding of it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "gmblasso" or key.startswith("gmblasso."))]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, attr in CLASS_MEMBERS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, staticmethod):
                patched = staticmethod(self.wrap(name, original.__func__))
            elif isinstance(original, property):
                patched = property(self.wrap(name, original.fget))
            else:
                patched = self.wrap(name, original)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, patched)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def drain(self) -> list:
        """Return the spans recorded so far and empty the tracer's list.

        Call only between operations, when no traced call is in flight.
        """
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans, into: dict | None = None) -> dict:
    """Per span name {"calls", "s", "self_s"}, for every traced name.

    Spans must be complete: every child's parent is in the same list.  Pass
    `into` to add to totals from earlier batches.
    """
    child_time: dict = defaultdict(float)
    for _span_id, parent, _name, start, end, _thread, _run in spans:
        if parent:
            child_time[parent] += end - start
    out = into if into is not None else {
        name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    for span_id, _parent, name, start, end, _thread, _run in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time.get(span_id, 0.0)
    return out


def write_spans(spans, path: str) -> None:
    """One tab-separated line per span, times relative to the first span."""
    origin = min((span[3] for span in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span_id\tparent_id\tname\tstart_s\tend_s\tthread\trun_id\n")
        for span_id, parent, name, start, end, thread, run in spans:
            fh.write(f"{span_id}\t{parent}\t{name}\t{start - origin:.9f}\t"
                     f"{end - origin:.9f}\t{thread}\t{run}\n")
