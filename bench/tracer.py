"""Spans around the public functions of each hfnoise module, from outside.

:class:`Tracer` replaces a function by a timing wrapper in every hfnoise
module that holds it, so that calls made through another module's import
(``stationarity.noise_moments``, ``mc._wtsrv``, ``estimators.csum``, ...)
are seen too.  Functions are found by module and name; a name that is not
there is listed in ``absent`` and the run goes on.

Module-level dicts that hold the function (``stationarity._TESTS``, which
``run_test`` dispatches through) get the wrapper too.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the operation id current
when the span opened.  Spans stay in memory until :meth:`write`.  The
benchmark is single-threaded, so one stack suffices.
"""

import importlib
import json
import sys
import time
from collections import Counter

PACKAGE = "hfnoise"

# (layer, function, where): "all" wraps the function in every module that
# holds it; "importers" only where another module imported it, so that the
# public estimator keeps its own span and the private helper is seen where
# the Monte Carlo and regression layers call it.
FUNCTIONS = [
    ("ticks", "load_csv", "all"),
    ("ticks", "write_csv", "all"),
    ("simulate", "simulate_observed", "all"),
    ("simulate", "simulate_latent", "all"),
    ("simulate", "sample_times", "all"),
    ("simulate", "make_noise", "all"),
    ("simulate", "observe", "all"),
    ("estimators", "noise_moments", "all"),
    ("estimators", "wtsrv", "all"),
    ("estimators", "_tsrv", "importers"),
    ("estimators", "_wtsrv", "importers"),
    ("_accum", "csum", "all"),
    ("_accum", "block_sums", "all"),
    ("stationarity", "run_test", "all"),
    ("stationarity", "edge_test", "all"),
    ("stationarity", "window_test", "all"),
    ("stationarity", "window_test_nonoverlap", "all"),
    ("stationarity", "block_test", "all"),
    ("stationarity", "overlap_mean_sq", "all"),
    ("stationarity", "nonoverlap_mean_sq", "all"),
    ("stationarity", "block_diff_mean_sq", "all"),
    ("stationarity", "p_value", "all"),
    ("liquidity", "liquidity_report", "all"),
    ("liquidity", "noise_qv", "all"),
    ("liquidity", "noise_qv_stderr", "all"),
    ("regress", "block_estimates", "all"),
    ("regress", "ols", "all"),
    ("regress", "fit_blocks", "all"),
    ("mc", "run_paired_roc", "all"),
    ("mc", "run_study", "all"),
    ("mc", "_run_rep", "all"),
    ("mc", "roc_points", "all"),
]

# One Monte Carlo rep is one operation: each call opens a new operation id.
OPERATION_BOUNDARIES = {"mc._run_rep"}


def _sized(values):
    return len(values) if hasattr(values, "__len__") else 0


def _local_terms(report):
    if getattr(report, "kind", None) != "V":
        return 0
    return int(getattr(report, "intermediates", {}).get("local_terms", 0))


# Counts read at a layer boundary: metric -> (span name, f(args, result)).
COUNTERS = {
    "accum.csum.elems": ("_accum.csum", lambda a, out: _sized(a[0])),
    "accum.block_sums.elems": ("_accum.block_sums",
                               lambda a, out: _sized(a[0])),
    "ticks.load_csv.rows": ("ticks.load_csv", lambda a, out: len(out)),
    "stationarity.local_terms": ("stationarity.window_test",
                                 lambda a, out: _local_terms(out)),
    "regress.blocks": ("regress.block_estimates", lambda a, out: len(out)),
}


def metric_prefix(span_name):
    """Metric names start with a letter, so ``_accum`` reports as ``accum``."""
    return span_name.lstrip("_")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self.op = 0
        self._stack = []
        self._patched = []  # (namespace dict, key, original)

    def names(self):
        return [f"{layer}.{fn}" for layer, fn, _ in FUNCTIONS]

    def new_operation(self):
        self.op += 1

    def install(self):
        """Wrap every listed function that exists; record the others."""
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for layer, fn, where in FUNCTIONS:
            name = f"{layer}.{fn}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(home, fn, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                if where == "importers" and module is home:
                    continue
                space = vars(module)
                tables = [v for v in space.values() if type(v) is dict]
                for table in [space] + tables:
                    for key, value in list(table.items()):
                        if value is original:
                            table[key] = wrapper
                            self._patched.append((table, key, original))

    def uninstall(self):
        for table, key, original in reversed(self._patched):
            table[key] = original
        self._patched = []

    def _wrap(self, name, fn):
        counters = [(metric, count) for metric, (span, count)
                    in COUNTERS.items() if span == name]
        opens_op = name in OPERATION_BOUNDARIES
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if opens_op:
                self.op += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for metric, count in counters:
                counts[metric] += count(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def self_times(self):
        """Per span name: (self seconds, calls).  Self time is a span's
        duration minus the durations of its direct children; in one thread
        children never overlap, so that is the part they cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s, c = out.get(name, (0.0, 0))
            out[name] = (s + (end - start) - child[i], c + 1)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
