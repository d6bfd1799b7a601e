"""In-memory spans around evidkit's public functions, recorded from outside.

Each wrapper is installed on the attribute through which callers look the
function up: `model.py` reaches the layers as `enn.*`, `rbf.*` and `mlp.*`,
while `training.py`, `cli.py`, `enn.py` and `rbf.py` bind `mlp_*`, `kmeans`,
`train` and the loaders by name, so those names are wrapped in the importing
module too.  Nothing under `src/` changes.  Spans stay in memory; a layer's
self time is its span minus the spans nested directly inside it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

MB = 1e6
CLI_COMMANDS = ("gen-data", "train", "eval", "contours")


def _input_rows(args, result):
    return {"rows": np.shape(args[1])[0]}


def _upstream_rows(args, result):
    return {"rows": np.shape(args[2])[0]}


def _forward_counts(args, result):
    cache = result[1]
    nbytes = sum(v.nbytes for v in cache.values() if isinstance(v, np.ndarray))
    return {"rows": np.shape(args[1])[0], "cache_mb": nbytes / MB}


def _kmeans_iters(args, result):
    return {"iters": result.n_iter}


def _sites(ek):
    """(span name, [(owner, attribute)], counter, extra count keys) per traced function."""
    enn, rbf, mlp, training, cli = ek.enn, ek.rbf, ek.mlp, ek.training, ek.cli
    ds = ek.datasets
    return [
        ("enn.enn_forward_batch", [(enn, "enn_forward_batch")], _forward_counts, ("rows", "cache_mb")),
        ("rbf.rbf_forward_batch", [(rbf, "rbf_forward_batch")], _forward_counts, ("rows", "cache_mb")),
        ("enn.enn_backward_batch", [(enn, "enn_backward_batch")], _upstream_rows, ("rows",)),
        ("rbf.rbf_backward_batch", [(rbf, "rbf_backward_batch")], _upstream_rows, ("rows",)),
        ("mlp.mlp_forward_batch", [(mlp, "mlp_forward_batch"), (training, "mlp_forward_batch")],
         _input_rows, ("rows",)),
        ("mlp.mlp_backward_batch", [(mlp, "mlp_backward_batch"), (training, "mlp_backward_batch")],
         _upstream_rows, ("rows",)),
        ("training.train", [(training, "train"), (cli, "train")], None, ()),
        ("training.model_loss_and_grads", [(training, "model_loss_and_grads")], None, ()),
        ("training.Adam.step", [(training.Adam, "step")], None, ()),
        ("kmeans.kmeans", [(ek.kmeans, "kmeans"), (enn, "kmeans"), (rbf, "kmeans"), (training, "kmeans")],
         _kmeans_iters, ("iters",)),
        ("datasets.save_labeled", [(ds, "save_labeled"), (cli, "save_labeled")], None, ()),
        ("datasets.load_labeled", [(ds, "load_labeled"), (cli, "load_labeled")], None, ()),
        ("datasets.save_seg_task", [(ds, "save_seg_task"), (cli, "save_seg_task")], None, ()),
        ("datasets.load_seg_task", [(ds, "load_seg_task"), (cli, "load_seg_task")], None, ()),
        ("model.EvidentialModel.save", [(ek.model.EvidentialModel, "save")], None, ()),
        ("model.EvidentialModel.load", [(ek.model.EvidentialModel, "load")], None, ()),
        ("metrics.contour_grid", [(ek.metrics, "contour_grid"), (cli, "contour_grid")], None, ()),
        ("metrics.ContourGrid.csv_rows", [(ek.metrics.ContourGrid, "csv_rows")], None, ()),
    ]


def layer_metric_names(ek) -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit)."""
    names = []
    for span, _, _, keys in _sites(ek):
        names.append((f"{span}.calls", "count"))
        names.append((f"{span}.self_s", "s"))
        for key in keys:
            names.append((f"{span}.{key}", "MB" if key == "cache_mb" else "count"))
    names += [(f"cli.{cmd}.wall_s", "s") for cmd in CLI_COMMANDS]
    names += [("trace.overhead_frac", "ratio"), ("check.far_rel_err", "ratio")]
    return names


class Tracer:
    """Spans as [name, start, end, parent index], plus counts per span name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.counts[f"{name}.calls"] += 1
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, counter):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(idx)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result
        return wrapper

    def times(self) -> dict[str, float]:
        """Per span name: summed self time (`<name>.self_s`) and wall time (`<name>.wall_s`)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[f"{name}.self_s"] += end - start - inner
            out[f"{name}.wall_s"] += end - start
        return out

    @contextmanager
    def installed(self, ek):
        """Wrap every traced function for the duration of the block."""
        saved, wrappers = [], {}
        for name, bindings, counter, _ in _sites(ek):
            for owner, attr in bindings:
                raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if raw is None:
                    continue
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                # one wrapper per function, however many names it is bound to
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(name, fn, counter)
                wrapper = wrappers[id(fn)]
                setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
                saved.append((owner, attr, raw))
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def span(tracer: Tracer | None, name: str):
    """A span on `tracer`, or nothing when the pass is untraced."""
    return tracer.span(name) if tracer is not None else nullcontext()
