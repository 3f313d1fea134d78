"""Host-time span tracing around the public entry point of every layer.

The program itself is not instrumented: :func:`instrument` temporarily
replaces layer methods *on their classes* with wrappers that open and close a
span, and restores the originals on exit.  Patching classes rather than
instances keeps studies picklable, which checkpointing needs.

Spans are ``(name, layer, start_ns, end_ns, parent, study)`` rows kept in
memory; :meth:`Tracer.write_chrome` writes them out as Chrome trace-event
JSON (loadable in Perfetto) when the benchmark ends.  A layer's *self time*
is its spans' durations minus the parts their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The root span every study's host time is measured against.
STUDY = "study"


class Tracer:
    """In-memory span recorder for one process (single-threaded)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.studies: List[int] = []
        #: Per-study counters and high-water marks, indexed by study id.
        self.study_counts: List[Dict[str, float]] = []
        self.study_maxima: List[Dict[str, float]] = []
        self._stack: List[int] = []
        self.study_id = -1

    def start_study(self) -> int:
        """Begin a new study: its spans and counters get a fresh id."""
        self.study_id += 1
        self.study_counts.append(defaultdict(float))
        self.study_maxima.append(defaultdict(float))
        return self.study_id

    def open(self, name: str, layer: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.studies.append(self.study_id)
        self.ends.append(-1)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        index = self.open(name, layer)
        try:
            yield
        finally:
            self.close(index)

    # -- analysis -----------------------------------------------------------
    def spans_of(self, study: int) -> range:
        """Indices of ``study``'s spans (each study's spans are contiguous)."""
        indices = [i for i, s in enumerate(self.studies) if s == study]
        return range(indices[0], indices[-1] + 1) if indices else range(0)

    def self_seconds(self, study: int) -> Dict[str, float]:
        """Per-layer self time of one study, in seconds."""
        span_range = self.spans_of(study)
        child_ns: Dict[int, int] = defaultdict(int)
        for i in span_range:
            parent = self.parents[i]
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        out: Dict[str, float] = defaultdict(float)
        for i in span_range:
            own = self.ends[i] - self.starts[i] - child_ns[i]
            out[self.layers[i]] += own / 1e9
        return dict(out)

    def calls(self, study: int, name: str, parent_name: Optional[str] = None) -> int:
        """Spans called ``name`` in ``study`` (optionally under ``parent_name``)."""
        n = 0
        for i in self.spans_of(study):
            if self.names[i] != name:
                continue
            if parent_name is None or self._has_ancestor(i, parent_name):
                n += 1
        return n

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def inclusive_seconds(self, study: int, name: str) -> float:
        """Summed duration of ``study``'s spans called ``name``."""
        return sum(
            self.ends[i] - self.starts[i] for i in self.spans_of(study) if self.names[i] == name
        ) / 1e9

    def asks_with_predict(self, study: int) -> int:
        """Optimizer asks that consulted the surrogate (past the initial design)."""
        asks = set()
        for i in self.spans_of(study):
            if self.names[i] != "ml.predict":
                continue
            parent = self.parents[i]
            while parent >= 0 and self.names[parent] != "optimizers.ask":
                parent = self.parents[parent]
            if parent >= 0:
                asks.add(parent)
        return len(asks)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.study_counts[self.study_id][key] += amount

    def high_water(self, key: str, value: float) -> None:
        maxima = self.study_maxima[self.study_id]
        maxima[key] = max(maxima[key], value)

    def write_chrome(self, path: str, study: int) -> None:
        """Write one study's spans as Chrome trace-event JSON."""
        span_range = self.spans_of(study)
        base = self.starts[span_range.start] if span_range else 0
        events = [
            {
                "name": self.names[i],
                "cat": self.layers[i],
                "ph": "X",
                "ts": (self.starts[i] - base) / 1e3,
                "dur": (self.ends[i] - self.starts[i]) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"span": i, "parent": self.parents[i], "study": study},
            }
            for i in span_range
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


#: ``observe(tracer, args, result)`` updates counters after a call.
Observer = Callable[[Tracer, tuple, object], None]
Target = Tuple[type, str, str, str, Optional[Observer]]


def _wrap(tracer: Tracer, fn: Callable, name: str, layer: str, observe: Optional[Observer]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, targets: List[Target]) -> Iterator[Tracer]:
    """Wrap ``(cls, attr, span_name, layer, observe)`` methods while active."""
    saved = []
    try:
        for cls, attr, name, layer, observe in targets:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, original, name, layer, observe))
        yield tracer
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)


def _rows(key: str, arg: int = 1) -> Observer:
    """Count the rows of positional argument ``arg`` under ``key``."""

    def observe(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.count(key, len(args[arg]))

    return observe


def _built(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("configspace.configs_built", len(result) if isinstance(result, list) else 1)


def _unstable(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("outlier.unstable", 1.0 if result else 0.0)


def _checkpoint_bytes(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.high_water("checkpoint.bytes_max", float(os.path.getsize(result)))


def layer_targets() -> List[Target]:
    """Every layer's public entry points, as the benchmark wraps them."""
    from repro.configspace import ConfigurationSpace
    from repro.core import (
        AsyncExecutionEngine,
        EventLog,
        MultiFidelityTaskScheduler,
        NoiseAdjuster,
        OutlierDetector,
        TraditionalSampler,
        TunaSampler,
        TuningLoop,
    )
    from repro.core.samplers import Sampler
    from repro.ml import RandomForestRegressor
    from repro.optimizers import RandomSearchOptimizer, SMACOptimizer
    from repro.optimizers.base import Optimizer
    from repro.systems.base import SystemUnderTest

    targets: List[Target] = [
        (TunaSampler, "propose_work", "samplers.propose", "samplers", None),
        (TunaSampler, "complete_work", "samplers.ingest", "samplers", None),
        (TunaSampler, "complete_work_batch", "samplers.ingest", "samplers", None),
        (TraditionalSampler, "propose_work", "samplers.propose", "samplers", None),
        (TraditionalSampler, "complete_work", "samplers.ingest", "samplers", None),
        (Sampler, "complete_work_batch", "samplers.ingest", "samplers", None),
        (SMACOptimizer, "ask", "optimizers.ask", "optimizers", None),
        (RandomSearchOptimizer, "ask", "optimizers.ask", "optimizers", None),
        (Optimizer, "tell", "optimizers.tell", "optimizers", None),
        (Optimizer, "tell_batch", "optimizers.tell", "optimizers", None),
        (RandomForestRegressor, "fit", "ml.fit", "ml", _rows("ml.fit.rows")),
        (RandomForestRegressor, "predict_mean_std", "ml.predict", "ml", _rows("ml.predict.rows")),
        (RandomForestRegressor, "predict", "ml.predict", "ml", _rows("ml.predict.rows")),
        (ConfigurationSpace, "sample", "configspace.sample", "configspace", _built),
        (ConfigurationSpace, "sample_batch", "configspace.sample", "configspace", _built),
        (ConfigurationSpace, "neighbours", "configspace.neighbours", "configspace", _built),
        (
            ConfigurationSpace,
            "encode_batch",
            "configspace.encode",
            "configspace",
            _rows("configspace.encode.rows"),
        ),
        (NoiseAdjuster, "train", "noise_adjuster.train", "noise_adjuster", None),
        (NoiseAdjuster, "adjust", "noise_adjuster.adjust", "noise_adjuster", None),
        (OutlierDetector, "is_unstable", "outlier.is_unstable", "outlier", _unstable),
        (MultiFidelityTaskScheduler, "assign", "scheduler.assign", "scheduler", None),
        (AsyncExecutionEngine, "submit", "engine.submit", "engine", None),
        (AsyncExecutionEngine, "next_completed_requests", "engine.drain", "engine", None),
        (EventLog, "append", "eventlog.append", "eventlog", None),
        (TuningLoop, "checkpoint", "checkpoint", "checkpoint", _checkpoint_bytes),
    ]
    pending = list(SystemUnderTest.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run" in cls.__dict__:
            targets.append((cls, "run", "systems.run", "systems", None))
    return targets


#: Layers in report order (``setup`` is measured in fresh interpreters).
LAYERS = (
    "samplers",
    "optimizers",
    "ml",
    "configspace",
    "noise_adjuster",
    "outlier",
    "scheduler",
    "engine",
    "systems",
    "eventlog",
    "checkpoint",
)
