"""Layer spans recorded from outside the program.

:class:`SpanTracer` patches the public entry points of each layer (the
list in :func:`_entry_points`) with wrappers that record a span — name,
start, end, parent span and the operation (job, batch or cell) it
belongs to — and count calls.  Events the simulator fires are wrapped
when they are scheduled, so each fired callback becomes a span of the
layer whose module defined it, and inherits the operation that was
current when it was scheduled.  A layer's self time is its spans'
durations minus the time their child spans cover.

Spans live in flat arrays while the run lasts and are written out by
:meth:`SpanTracer.write` when it ends.  Installing the tracer changes
no result of the program, only its speed; run.py reports that cost
as the traced/untraced wall-time ratio of the same pass.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "engine", "resources", "jobtracker", "storage", "deployment", "fastpath",
    "workload", "admission", "checkpoint", "runner", "store", "other",
)

#: Module prefix -> layer, for simulator callbacks (first match wins).
CALLBACK_LAYERS = (
    ("repro.simulator.resources", "resources"),
    ("repro.simulator", "engine"),
    ("repro.mapreduce", "jobtracker"),
    ("repro.storage", "storage"),
    ("repro.core.deployment", "deployment"),
    ("repro.core.scheduler", "deployment"),
    ("repro.core.fastpath", "fastpath"),
    ("repro.service", "admission"),
    ("repro.runner", "runner"),
)


def _entry_points() -> List[Tuple[Any, str, str, Optional[str]]]:
    """(owner, attribute, layer, counter) for every wrapped entry point."""
    import repro.runner.pool as pool
    import repro.service.api as service_api
    from repro.core.deployment import Deployment
    from repro.core.fastpath import FastPathEngine
    from repro.core.scheduler import SizeAwareScheduler
    from repro.mapreduce.jobtracker import JobTracker
    from repro.runner.pool import PoolRunner
    from repro.runner.spec import CellSpec
    from repro.runner.store import SqliteResultCache
    from repro.service.api import ReproService
    from repro.service.checkpoint import CheckpointStore
    from repro.simulator.engine import Simulation
    from repro.simulator.resources import FairShareResource
    from repro.storage.base import StorageSystem
    from repro.storage.disk import DiskDevice
    from repro.storage.hdfs import HDFS
    from repro.storage.ofs import OrangeFS
    from repro.workload.fb2009 import FB2009Generator
    from repro.workload.trace import Trace

    points: List[Tuple[Any, str, str, Optional[str]]] = [
        (Simulation, "run", "engine", None),
        (Simulation, "step", "engine", None),
        (FairShareResource, "start_flow", "resources", "resources.flows_started"),
        (FairShareResource, "cancel_flow", "resources", "resources.flows_cancelled"),
        (FairShareResource, "set_capacity", "resources", None),
        (JobTracker, "submit", "jobtracker", "jobtracker.jobs_submitted"),
        (JobTracker, "submit_analytic", "jobtracker", None),
        (DiskDevice, "transfer", "storage", "storage.calls"),
        (Deployment, "submit", "deployment", "deployment.submits"),
        (Deployment, "submit_at", "deployment", None),
        (SizeAwareScheduler, "decide_job", "deployment", None),
        (FastPathEngine, "try_submit", "fastpath", None),
        (FB2009Generator, "generate", "workload", None),
        (Trace, "shrink", "workload", None),
        (Trace, "to_jobspecs", "workload", None),
        (service_api, "validate_ndjson", "admission", None),
        (ReproService, "submit_ndjson", "admission", "admission.batches"),
        (CheckpointStore, "save", "checkpoint", "checkpoint.saves"),
        (CheckpointStore, "load", "checkpoint", None),
        (PoolRunner, "run_cells", "runner", None),
        (CellSpec, "content_key", "runner", None),
        (pool, "execute_cell", "runner", "runner.cells_simulated"),
        (SqliteResultCache, "get_many", "store", None),
        (SqliteResultCache, "put_many", "store", None),
    ]
    for cls in (StorageSystem, HDFS, OrangeFS):
        for attr in ("read", "write", "register_dataset", "release_dataset"):
            if attr in vars(cls):
                points.append((cls, attr, "storage", "storage.calls"))
    return points


def _op_of(name: str, args: tuple, tracer: "SpanTracer") -> Optional[str]:
    """The operation a call starts, if it starts one."""
    if name == "Deployment.submit":
        return args[1].job_id
    if name == "ReproService.submit_ndjson":
        return f"batch-{tracer.counts['admission.batches']}"
    if name == "execute_cell":
        return f"cell-{tracer.counts['runner.cells_simulated']}"
    return None


class SpanTracer:
    """Span recorder for one run; install, run passes, uninstall."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self._name_ids: Dict[Any, int] = {}
        self.ops: List[str] = ["-"]
        self.current_op = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.reset()

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        """Start fresh aggregates (spans already recorded are kept)."""
        self.counts: Counter = Counter()
        self.depth = [0] * len(LAYERS)
        self.name_depth: Counter = Counter()
        self.by_layer = [[0, 0.0, 0.0] for _ in LAYERS]   # calls, incl, self
        self.by_name: Dict[int, List[float]] = {}

    def _name(self, key: Any, label: str, layer: str) -> int:
        ident = self._name_ids.get(key)
        if ident is None:
            ident = len(self.names)
            self.names.append(label)
            self.name_layer.append(LAYERS.index(layer))
            self._name_ids[key] = ident
        return ident

    def _enter(self, name_id: int) -> None:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(int(self._stack[-1][0]) if self._stack else -1)
        self.span_op.append(self.current_op)
        self.span_end.append(0.0)
        self.depth[self.name_layer[name_id]] += 1
        self.name_depth[name_id] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([index, start, 0.0, name_id])

    def _exit(self) -> None:
        end = time.perf_counter()
        index, start, child, name_id = self._stack.pop()
        self.span_end[int(index)] = end
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        name_id = int(name_id)
        layer = self.name_layer[name_id]
        self.depth[layer] -= 1
        self.name_depth[name_id] -= 1
        agg = self.by_layer[layer]
        agg[0] += 1
        agg[2] += duration - child
        per_name = self.by_name.setdefault(name_id, [0, 0.0, 0.0])
        per_name[0] += 1
        per_name[2] += duration - child
        if self.depth[layer] == 0:
            agg[1] += duration
        if self.name_depth[name_id] == 0:
            per_name[1] += duration

    def _set_op(self, label: str) -> int:
        saved = self.current_op
        self.current_op = len(self.ops)
        self.ops.append(label)
        return saved

    # -- patching -------------------------------------------------------------

    def _wrap(self, owner: Any, attr: str, layer: str, counter: Optional[str]) -> None:
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        func: Callable = raw.__func__ if is_classmethod else raw
        label = attr if isinstance(owner, type(json)) else f"{owner.__name__}.{attr}"
        name_id = self._name((owner, attr), label, layer)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if counter is not None:
                tracer.counts[counter] += 1
            op = _op_of(label, args, tracer)
            saved = tracer._set_op(op) if op is not None else None
            tracer._enter(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit()
                if saved is not None:
                    tracer.current_op = saved
            tracer._observe(label, args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def _observe(self, label: str, args: tuple, result: Any) -> None:
        if label == "FastPathEngine.try_submit" and result:
            self.counts["fastpath.jobs_taken"] += 1
        elif label == "CheckpointStore.save":
            self.counts["checkpoint.bytes"] += Path(result).stat().st_size
        elif label == "SqliteResultCache.get_many":
            self.counts["runner.cache_hits"] += len(result)
        elif label == "PoolRunner.run_cells":
            self.counts["runner.cells_requested"] += len(args[1])

    def _callback_name(self, fn: Callable) -> int:
        target = getattr(fn, "func", fn)
        module = getattr(target, "__module__", None) or "?"
        qualname = getattr(target, "__qualname__", type(target).__name__)
        key = (module, qualname)
        ident = self._name_ids.get(key)
        if ident is not None:
            return ident
        layer = next(
            (layer for prefix, layer in CALLBACK_LAYERS if module.startswith(prefix)),
            "other",
        )
        return self._name(key, f"event:{module}.{qualname}", layer)

    def _wrap_engine(self) -> None:
        from repro.simulator.engine import Simulation, _Event

        schedule_at = vars(Simulation)["schedule_at"]
        cancel = vars(_Event)["cancel"]
        push_id = self._name((Simulation, "schedule_at"), "Simulation.schedule_at", "engine")
        tracer = self

        def traced_schedule_at(sim: Any, when: float, fn: Callable) -> Any:
            tracer.counts["engine.events_scheduled"] += 1
            op = tracer.current_op
            name_id = tracer._callback_name(fn)

            def fire() -> Any:
                tracer.counts["engine.events_processed"] += 1
                saved = tracer.current_op
                tracer.current_op = op
                tracer._enter(name_id)
                try:
                    return fn()
                finally:
                    tracer._exit()
                    tracer.current_op = saved

            tracer._enter(push_id)
            try:
                return schedule_at(sim, when, fire)
            finally:
                tracer._exit()

        def traced_cancel(event: Any) -> None:
            tracer.counts["engine.events_cancelled"] += 1
            cancel(event)

        Simulation.schedule_at = traced_schedule_at
        _Event.cancel = traced_cancel
        self._patches.append((Simulation, "schedule_at", schedule_at))
        self._patches.append((_Event, "cancel", cancel))

    def install(self) -> None:
        from repro.service.api import ReproService

        self._wrap_engine()
        for owner, attr, layer, counter in _entry_points():
            self._wrap(owner, attr, layer, counter)
        self._wrap(ReproService, "restore", "checkpoint", None)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reporting ------------------------------------------------------------

    def layer(self, name: str) -> Tuple[int, float, float]:
        calls, incl, self_s = self.by_layer[LAYERS.index(name)]
        return int(calls), incl, self_s

    def named(self, label: str) -> Tuple[int, float, float]:
        for ident, agg in self.by_name.items():
            if self.names[ident] == label:
                return int(agg[0]), agg[1], agg[2]
        return 0, 0.0, 0.0

    def write(self, directory: Path) -> Tuple[Path, int]:
        """Write every recorded span: a JSON index plus flat arrays."""
        directory.mkdir(parents=True, exist_ok=True)
        index = {
            "names": self.names,
            "layers": [LAYERS[i] for i in self.name_layer],
            "ops": self.ops,
            "spans": len(self.span_name),
            "arrays": ["name:i", "parent:i", "op:i", "start:d", "end:d"],
        }
        (directory / "spans.json").write_text(json.dumps(index))
        path = directory / "spans.bin"
        with open(path, "wb") as handle:
            for arr in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                arr.tofile(handle)
        return path, path.stat().st_size
