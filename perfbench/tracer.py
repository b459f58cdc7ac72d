"""Spans around calls into each layer of disentlab, installed from outside.

The package imports its functions by name (cli.py holds its own reference to
dhsic, factorvae_metric, ...), so wrapping a function replaces that name in
every disentlab module namespace that holds it; methods are wrapped on their
class. Spans record name, start, end, parent span and invocation id, are kept
in memory, and are written out when the run ends. Traced runs are
single-threaded, so one span stack suffices.
"""
from __future__ import annotations

import csv
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

MIB = 1024.0 * 1024.0


def _rows(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    return getattr(x, "shape", (0,))[0]


def _history_steps(args, kwargs, result):
    return len(result[1].history) - 1


def _dir_bytes(args, kwargs, result):
    directory = Path(args[1] if len(args) > 1 else kwargs["directory"])
    return sum((directory / name).stat().st_size for name in ("samples.csv", "factors.csv"))


def _path_bytes(args, kwargs, result):
    return Path(args[0]).stat().st_size


# (module, attribute, {counter: fn(args, kwargs, result)}); "Class.method"
# attributes are wrapped on the class.
TARGETS = (
    ("contrastive", "train_discriminator", {}),
    ("lingauss", "optimize_generator", {"iterations": _history_steps}),
    ("lingauss", "bias_decomposition", {}),
    ("linalg", "project_contraction", {}),
    ("metrics", "factorvae_metric", {}),
    ("metrics", "GeneratorSampler.sample_group", {}),
    ("metrics", "GeneratorSampler.sample_reference", {}),
    ("metrics", "LinearEncoder.encode", {"rows": lambda a, k, r: _rows(a, k)}),
    ("metrics", "lasso_fit", {}),
    ("metrics", "spearman_rho", {}),
    ("metrics", "dci_disentanglement", {}),
    ("metrics", "dhsic", {"rows": lambda a, k, r: a[0].shape[0]}),
    ("metrics", "FactorDataset.save", {"bytes": _dir_bytes}),
    ("metrics", "FactorDataset.load", {}),
    ("selection", "model_centrality", {}),
    ("selection", "subsampled_centrality", {}),
    ("selection", "udr_pair_scores", {}),
    ("selection", "udr_relevance", {}),
    ("selection", "udr_select", {}),
    ("datasets", "gen_linear_gaussian_dataset", {"rows": lambda a, k, r: r.n}),
    ("datasets", "gen_circular_dsprites", {}),
    ("datasets", "write_circular_dataset", {}),
    ("plots", "heatmap_svg", {}),
    ("plots", "line_chart_svg", {}),
    ("plots", "write_svg", {"bytes": _path_bytes}),
)

# Functions whose tracemalloc peak inside the call is recorded as
# <name>.peak_alloc_mib.
PEAK_ALLOC = ("metrics.dhsic",)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.invocation = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children follow the parent
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self.invocation)

    def _wrapper(self, name: str, fn, counters: dict):
        tracer = self
        peak = name in PEAK_ALLOC

        def traced(*args, **kwargs):
            if peak:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                result = tracer.call(name, fn, *args, **kwargs)
            finally:
                if peak:
                    used = tracemalloc.get_traced_memory()[1] - base
                    if started:
                        tracemalloc.stop()
                    own = tracer.counters[tracer.invocation]
                    key = f"{name}.peak_alloc_mib"
                    own[key] = max(own[key], used / MIB)
            own = tracer.counters[tracer.invocation]
            for counter, measure in counters.items():
                own[f"{name}.{counter}"] += measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package = {
            mod_name: mod
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "disentlab" or mod_name.startswith("disentlab.")
        }
        for module, attribute, counters in TARGETS:
            mod = importlib.import_module(f"disentlab.{module}")
            name = f"{module}.{attribute}"
            if "." in attribute:
                cls_name, meth = attribute.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrapper(name, raw.__func__, counters))
                else:
                    wrapped = self._wrapper(name, raw, counters)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(mod, attribute)
            wrapped = self._wrapper(name, original, counters)
            for holder in package.values():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def summary(self, invocation: int) -> dict[str, float]:
        """Per-name calls, total and self seconds, and counters of one invocation."""
        spans = [s for s in self.spans if s[5] == invocation]
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[span_id]
        out.update(self.counters[invocation])
        return out

    def count_children(self, invocation: int, child: str, parent: str) -> int:
        """Spans of one invocation named child whose direct parent is named parent."""
        spans = [s for s in self.spans if s[5] == invocation]
        names = {s[0]: s[1] for s in spans}
        return sum(1 for s in spans if s[1] == child and names.get(s[4]) == parent)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "start", "end", "parent", "invocation"])
            for span_id, name, start, end, parent, invocation in self.spans:
                writer.writerow([span_id, name, f"{start:.9f}", f"{end:.9f}", parent, invocation])
