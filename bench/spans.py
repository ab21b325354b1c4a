"""Spans around the calls that cross into a funkreg layer, and the per-layer
metrics derived from them.

While a traced op runs, every public function of a layer module is replaced
by a recording wrapper wherever another module looks it up by name: in the
package namespace the benchmark calls through, and in the namespaces of the
layers that import it. So both the benchmark's own calls and the calls one
layer makes into another open a span. A call inside one module stays
untraced and belongs to the span of the public function that made it. The
`kernels` module is not wrapped: its cost stays in the self time of the
estimator or bootstrap code that evaluates kernels. Spans are kept in memory
and written out when the run ends.
"""

import importlib
import json
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Layers whose public functions are wrapped; each is a `funkreg.<layer>`.
LAYERS = ("io", "curves", "estimator", "bootstrap", "simulation", "cli")
#: The per-curve transform (presmooth, differentiate); only its calls are
#: counted, in every namespace, including the `curves` module's own.
TRANSFORM = "_transform_values"
#: The benchmark calls the cli layer through this function of its own module.
ENTRY = ("funkreg.cli", "main")


@dataclass
class Span:
    name: str
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and per-op counts of one run, held in memory."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counts: dict[int | None, Counter] = defaultdict(Counter)
        self.op: int | None = None
        self._open: list[int] = []
        self._clock = clock

    def _enter(self, name: str) -> Span:
        span = Span(name, self._open[-1] if self._open else None, self.op,
                    self._clock())
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = self._clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def count(self, metric: str, value) -> None:
        self.counts[self.op][metric] += value

    def wrap(self, name: str, fn, counter=None):
        """`fn` recording a span named `name`; `counter(args, result)`
        returns counts to add to the current op."""
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counter is not None:
                for metric, value in counter(args, result).items():
                    self.count(metric, value)
            return result
        return traced

    def counted(self, metric: str, fn):
        """`fn` adding one to `metric` per call, without a span."""
        def counting(*args, **kwargs):
            self.count(metric, 1)
            return fn(*args, **kwargs)
        return counting

    @contextmanager
    def patched(self, targets):
        """Install wrappers for `(namespace, attr, wrapper_factory)` targets
        and restore the originals on exit."""
        saved = []
        try:
            for namespace, attr, make in targets:
                original = getattr(namespace, attr)
                saved.append((namespace, attr, original))
                setattr(namespace, attr, make(original))
            yield
        finally:
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        child = np.zeros(len(self.spans))
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return np.array([s.duration for s in self.spans]) - child

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end,
                                     span.parent, span.op]) + "\n")


def _cells(args, sample):
    # header row plus one row per curve, each with p abscissae + a response
    return {"io.cells_parsed": (len(sample) + 1) * (len(sample.grid) + 1)}


def _temp_bytes(args, result):
    rows, cols = args[0], args[1]
    return {"curves.distance_matrix.temp_bytes":
            rows.shape[0] * cols.shape[0] * rows.shape[1] * 8}


def _smoother_evals(args, result):
    return {"estimator.kernel_evals": len(args[0])}


def _sigma2_evals(args, result):
    return {"estimator.kernel_evals": 2 * len(args[0])}


def _bootstrap_evals(args, result):
    # the in-sample refit (n^2) and query scoring (n) per (query, k); the
    # pilot fits go through nadaraya_watson and count under the estimator
    sample, queries, config = args[0], args[1], args[4]
    n = len(sample)
    n_queries = 1 if config.evaluation == "pointwise" else len(queries)
    n_k = config.k_max - config.k_min + 1
    return {"bootstrap.kernel_evals": n_queries * n_k * (n * n + n)}


def _reps(args, result):
    return {"simulation.reps": args[0].reps}


COUNTERS = {
    "io.load_sample": _cells,
    "curves.distance_matrix": _temp_bytes,
    "estimator.nadaraya_watson": _smoother_evals,
    "estimator.estimate_sigma2": _sigma2_evals,
    "bootstrap.bootstrap_error_curve": _bootstrap_evals,
    "simulation.mc_bias_variance": _reps,
    "simulation.mc_normality": _reps,
}


def funkreg_targets(tracer: Tracer) -> list:
    """Patch targets covering every cross-module call into a layer, and
    the benchmark's calls of `funkreg.cli.main`."""
    package = importlib.import_module("funkreg")
    modules = [importlib.import_module(f"funkreg.{m}")
               for m in LAYERS + ("kernels",)]
    targets = []
    for namespace in [package] + modules:
        for attr, obj in vars(namespace).items():
            if not isinstance(obj, types.FunctionType):
                continue
            module = obj.__module__
            layer = module.rpartition(".")[2]
            if attr == TRANSFORM and layer == "curves":
                targets.append((namespace, attr,
                                lambda fn: tracer.counted(
                                    "curves.transforms_per_op", fn)))
            elif layer in LAYERS and not attr.startswith("_") and (
                    module != namespace.__name__ or (module, attr) == ENTRY):
                name = f"{layer}.{obj.__name__}"
                targets.append((namespace, attr,
                                lambda fn, name=name: tracer.wrap(
                                    name, fn, COUNTERS.get(name))))
    return targets


#: Per-layer self-time metrics: metric -> span names summed, per traced op.
SELF_TIMES = {
    "io.load_sample.s": ("io.load_sample",),
    "curves.transformed_matrix.s": ("curves.transformed_matrix",),
    "curves.distance_matrix.s": ("curves.distance_matrix",),
    "curves.pairwise_distances.s": ("curves.pairwise_distances",),
    "estimator.knn_bandwidths.s": ("estimator.knn_bandwidths",),
    "estimator.nadaraya_watson.s": ("estimator.nadaraya_watson",),
    "estimator.interval.s": ("estimator.estimate_sigma2",
                             "estimator.confidence_interval"),
    "bootstrap.error_curve.s": ("bootstrap.bootstrap_error_curve",),
    "simulation.mc.s": ("simulation.mc_bias_variance",
                        "simulation.mc_normality"),
    "cli.self.s": ("cli.main",),
}
#: Per-op counts, each summed by the wrappers under its own name.
COUNTS = ("io.cells_parsed", "curves.distance_matrix.temp_bytes",
          "curves.transforms_per_op", "estimator.kernel_evals",
          "bootstrap.kernel_evals", "simulation.reps")


def layer_metrics(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Self times (s) and counts per traced op, averaged over `ops`."""
    own = tracer.self_times()
    traced = set(ops)
    by_name = defaultdict(float)
    calls = Counter()
    for span, t in zip(tracer.spans, own):
        if span.op in traced:
            by_name[span.name] += t
            calls[span.name] += 1
    n = len(ops)
    out = {metric: sum(by_name[name] for name in names) / n
           for metric, names in SELF_TIMES.items()}
    out["estimator.nadaraya_watson.calls"] = (
        calls["estimator.nadaraya_watson"] / n)
    for metric in COUNTS:
        out[metric] = sum(tracer.counts[op][metric] for op in ops) / n
    return out
