"""Spans around softstep's layer boundaries, recorded from outside the package.

The tracer replaces module attributes (for example
``softstep.training.forward``) with wrappers that time each call and pass
its arguments and return value through unchanged.  Every loaded softstep
module that holds a reference to a target function gets the wrapper, so
callers are traced wherever they look the function up.  A target that no
longer exists is reported as absent instead of failing, which keeps the
benchmark usable across refactors of the package.

Spans stay in memory as (name, start, end, parent, rows) tuples and are
summarized or written out after the measured work has finished.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from typing import Callable, NamedTuple

PROBE_SPAN = "experiments.probe"

# Span names reported as per-layer metrics, with whether the span takes a
# batch (and so reports rows).  Order is the order of the report.
LAYER_SPANS = (
    ("data.load_csv", True),
    ("data.standardize_and_split", True),
    ("data.batches", True),
    ("heaviside.piecewise", True),
    ("heaviside.sigmoid_fit", True),
    ("heaviside.fit", False),
    ("confusion.aggregate_soft", True),
    ("confusion.aggregate_soft_grad", True),
    ("confusion.aggregate_hard", True),
    ("metrics.loss.accuracy", True),
    ("metrics.loss.f_beta", True),
    ("metrics.loss.auroc", True),
    ("metrics.evaluate_over_grid", True),
    ("metrics.auroc_hard", True),
    ("network.forward_train", True),
    ("network.forward_eval", True),
    ("network.backward", True),
    ("network.adam_step", False),
    ("network.save_checkpoint", False),
    ("network.load_checkpoint", False),
    ("training.train", True),
    ("training.validation", True),
    (PROBE_SPAN, False),
    ("cli.train", False),
    ("cli.evaluate", False),
)

RATIOS = (
    "training.step_useful_ratio",
    "heaviside.evals_per_loss_call",
    "confusion.soft_calls_per_loss_call",
    "network.forward_eval.rows_per_step",
)

_SURROGATE_SPANS = ("heaviside.piecewise", "heaviside.sigmoid_fit")
_SOFT_COUNT_SPANS = ("confusion.aggregate_soft",
                     "confusion.aggregate_soft_grad")
_LOSS_PREFIX = "metrics.loss."


class Target(NamedTuple):
    """One function to wrap: where it lives and how to name and size a call.

    ``span`` is a fixed name or a function of (args, kwargs) returning one
    of ``emits``; ``rows`` maps (args, kwargs, result) to the number of
    rows the call processed.
    """

    module: str
    attr: str
    span: str | Callable
    rows: Callable | None = None
    emits: tuple[str, ...] = ()

    def span_names(self) -> tuple[str, ...]:
        return self.emits or (self.span,)


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index]


def _batch_rows(args, kwargs, result):
    return args[0].n


def _array_rows(index):
    return lambda args, kwargs, result: len(args[index])


def _surrogate_rows(args, kwargs, result):
    return math.prod(getattr(args[0], "shape", ()))


def _forward_span(args, kwargs):
    train_mode = kwargs.get("train_mode",
                            args[2] if len(args) > 2 else False)
    return "network.forward_train" if train_mode else "network.forward_eval"


def _loss_span(args, kwargs):
    return _LOSS_PREFIX + _arg(args, kwargs, 1, "config").objective


def _train_rows(args, kwargs, result):
    return result.epochs_run * _arg(args, kwargs, 1, "split").train.n


_SPLIT_TARGET = Target("softstep.experiments", "prepared_split",
                       "experiments.prepared_split")

# setup_s and train_rows_per_s need only these two, so untraced runs wrap
# nothing else.
E2E_TARGETS = (
    _SPLIT_TARGET,
    Target("softstep.training", "train", "training.train", _train_rows),
)

# Wrapping train with PROBE_SPAN among its spans also times the step
# callback that batch-sweep passes to it.
LAYER_TARGETS = (
    _SPLIT_TARGET,
    Target("softstep.training", "train", "training.train", _train_rows,
           emits=("training.train", PROBE_SPAN)),
    Target("softstep.data", "load_csv", "data.load_csv",
           lambda args, kwargs, result: result[0].n),
    Target("softstep.data", "standardize_and_split",
           "data.standardize_and_split", _batch_rows),
    Target("softstep.data", "batches", "data.batches", _batch_rows),
    Target("softstep.heaviside", "heaviside_approx", "heaviside.piecewise",
           _surrogate_rows),
    Target("softstep.heaviside", "heaviside_approx_grad",
           "heaviside.piecewise",
           _surrogate_rows),
    Target("softstep.heaviside", "sigmoid_approx", "heaviside.sigmoid_fit",
           _surrogate_rows),
    Target("softstep.heaviside", "sigmoid_approx_grad",
           "heaviside.sigmoid_fit",
           _surrogate_rows),
    Target("softstep.heaviside", "fit_sigmoid", "heaviside.fit"),
    Target("softstep.confusion", "aggregate_soft",
           "confusion.aggregate_soft", _batch_rows),
    Target("softstep.confusion", "aggregate_soft_grad",
           "confusion.aggregate_soft_grad", _batch_rows),
    Target("softstep.confusion", "aggregate_hard",
           "confusion.aggregate_hard", _batch_rows),
    Target("softstep.metrics", "objective_loss", _loss_span, _batch_rows,
           emits=tuple(_LOSS_PREFIX + objective
                       for objective in ("accuracy", "f_beta", "auroc"))),
    Target("softstep.metrics", "evaluate_over_grid",
           "metrics.evaluate_over_grid", _batch_rows),
    Target("softstep.metrics", "auroc_hard", "metrics.auroc_hard",
           _batch_rows),
    Target("softstep.network", "forward", _forward_span, _array_rows(1),
           emits=("network.forward_train", "network.forward_eval")),
    Target("softstep.network", "backward", "network.backward",
           _array_rows(1)),
    Target("softstep.network", "adam_step", "network.adam_step"),
    Target("softstep.network", "save_checkpoint", "network.save_checkpoint"),
    Target("softstep.network", "load_checkpoint", "network.load_checkpoint"),
    Target("softstep.training", "_epoch_validation_loss",
           "training.validation",
           lambda args, kwargs, result: args[1].validation.n),
    Target("softstep.cli", "_train_single", "cli.train"),
    Target("softstep.cli", "_evaluate_checkpoint", "cli.evaluate"),
)

# Span slots a traced run allocates up front.  Growing the span list while
# the package runs would move the top of the C heap and change how often
# numpy's large temporaries fault in fresh pages, which is a large share of
# sweep-probe's time; a list this size is mapped apart from the heap.
TRACE_SLOTS = 1 << 20

# What a sizing or naming function may raise when the package changed the
# shape of a call; the call itself is never affected.
_SHAPE_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


class Tracer:
    """Records spans for wrapped calls and counts training work."""

    def __init__(self, slots: int = 64):
        self._slots: list = [None] * slots
        self._count = 0
        self._stack: list[int] = []
        self.counters = {"optimizer_steps": 0, "skipped_batches": 0,
                         "rows_trained": 0, "trainings": 0}
        # Spans no installed wrapper can record; reported as absent.
        self.missing_spans: set[str] = set()

    def install(self, targets) -> list[str]:
        """Wrap every target; return the targets that were not found."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "softstep" or name.startswith("softstep.")]
        absent = []
        recorded = set()
        for target in targets:
            owner = sys.modules.get(target.module)
            original = getattr(owner, target.attr, None)
            if not callable(original):
                absent.append(f"{target.module}.{target.attr}")
                self.missing_spans.update(target.span_names())
                continue
            recorded.update(target.span_names())
            wrapper = self._wrap(original, target)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        self.missing_spans -= recorded
        return absent

    def _open(self) -> tuple[int, int, float]:
        index = self._count
        self._count += 1
        if index == len(self._slots):
            self._slots.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent, time.perf_counter()

    def _close(self, index, parent, start, name, rows):
        end = time.perf_counter()
        self._stack.pop()
        self._slots[index] = (name, start, end, parent, rows)

    def _wrap(self, original, target):
        tracer = self
        is_train = target.span == "training.train"
        times_probe = PROBE_SPAN in target.emits

        def wrapper(*args, **kwargs):
            name = target.span
            if callable(name):
                try:
                    name = name(args, kwargs)
                except _SHAPE_ERRORS:
                    name = f"{target.module}.{target.attr}"
            if times_probe:
                args, kwargs = tracer._wrap_step_callback(args, kwargs)
            result = None
            index, parent, start = tracer._open()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                rows = None
                if target.rows is not None and result is not None:
                    try:
                        rows = int(target.rows(args, kwargs, result))
                    except _SHAPE_ERRORS:
                        pass
                tracer._close(index, parent, start, name, rows)
                if is_train and result is not None:
                    tracer._count_training(args, kwargs, result)

        return functools.wraps(original)(wrapper)

    def _wrap_step_callback(self, args, kwargs):
        """Time batch-sweep's per-step probe, passed to train as a callback."""
        positional = len(args) > 3
        callback = args[3] if positional else kwargs.get("step_callback")
        if callback is None:
            return args, kwargs
        tracer = self

        def traced_callback(*cb_args, **cb_kwargs):
            index, parent, start = tracer._open()
            try:
                return callback(*cb_args, **cb_kwargs)
            finally:
                tracer._close(index, parent, start, PROBE_SPAN, None)

        if positional:
            return args[:3] + (traced_callback,) + args[4:], kwargs
        return args, dict(kwargs, step_callback=traced_callback)

    def _count_training(self, args, kwargs, report):
        """Work done by one train() call, from its report and settings."""
        try:
            n_train = _arg(args, kwargs, 1, "split").train.n
            batch_size = _arg(args, kwargs, 2, "config").batch_size
            epochs = report.epochs_run
            skipped = report.skipped_batches
        except _SHAPE_ERRORS:
            return
        attempted = epochs * math.ceil(n_train / batch_size)
        self.counters["optimizer_steps"] += attempted - skipped
        self.counters["skipped_batches"] += skipped
        self.counters["rows_trained"] += epochs * n_train
        self.counters["trainings"] += 1

    @property
    def spans(self) -> list:
        """Recorded spans, in the order they were opened."""
        return self._slots[:self._count]

    def durations(self, name) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s and s[0] == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                name, start, end, parent, rows = span
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "rows": rows}) + "\n")


def summarize(spans, missing=frozenset()) -> dict[str, float]:
    """Per-layer metrics and ratios from a finished list of spans.

    ``<span>.s`` is inclusive time counted once per outermost call of that
    name; ``<span>.self_s`` subtracts the time covered by direct children.
    Spans of a layer that ran no call report zero calls and zero time;
    spans named in ``missing`` (no target to wrap) are left out.
    """
    n = len(spans)
    child_time = [0.0] * n
    # True where the nearest enclosing loss-or-fit span is a loss, so the
    # surrogate evaluations a sigmoid fit makes are not counted per loss.
    in_loss = [False] * n
    for index, (name, start, end, parent, _rows) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            parent_name = spans[parent][0]
            if parent_name.startswith(_LOSS_PREFIX):
                in_loss[index] = True
            elif parent_name != "heaviside.fit":
                in_loss[index] = in_loss[parent]
    totals: dict[str, list] = {}
    under_loss: dict[str, int] = {}
    for index, (name, start, end, parent, rows) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += rows or 0
        if not _has_ancestor_named(spans, parent, name):
            entry[2] += end - start
        entry[3] += (end - start) - child_time[index]
        if in_loss[index]:
            under_loss[name] = under_loss.get(name, 0) + 1

    metrics: dict[str, float] = {}
    for name, has_rows in LAYER_SPANS:
        if name in missing:
            continue
        calls, rows, inclusive, own = totals.get(name, (0, 0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls
        if has_rows:
            metrics[f"{name}.rows"] = rows
        metrics[f"{name}.s"] = inclusive
        metrics[f"{name}.self_s"] = own

    def calls(name):
        return totals.get(name, (0,))[0]

    loss_calls = sum(entry[0] for name, entry in totals.items()
                     if name.startswith(_LOSS_PREFIX))
    steps = calls("network.adam_step")
    ratios = {
        "training.step_useful_ratio": (steps, calls("network.forward_train")),
        "heaviside.evals_per_loss_call": (
            sum(under_loss.get(s, 0) for s in _SURROGATE_SPANS), loss_calls),
        "confusion.soft_calls_per_loss_call": (
            sum(under_loss.get(s, 0) for s in _SOFT_COUNT_SPANS), loss_calls),
        "network.forward_eval.rows_per_step": (
            totals.get("network.forward_eval", (0, 0))[1], steps),
    }
    for name, (num, den) in ratios.items():
        if den:
            metrics[name] = num / den
    return metrics


def _has_ancestor_named(spans, parent, name) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
