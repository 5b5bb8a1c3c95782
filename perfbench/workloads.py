"""The four benchmark workloads: inputs, timed passes and output checks.

Each workload builds its inputs from the seed alone, then runs whole
*passes* — a fixed round of operations.  A pass times its work in
slices through a :class:`reference.Meter`, which normalises each slice
by the host-speed reference timed around it (construction of fresh
deployments, services, runners and stores happens in
:meth:`Workload.prepare`, outside the timed slices), and then checks
what the program returned.
A failed check raises :class:`CheckFailed` naming the check.

Checks are computed apart from the program wherever the method allows:
Algorithm 1 is re-derived here from the paper's thresholds, cross
points are re-interpolated here from the raw execution times, and the
service is compared against an independent batch replay.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import Deployment, FastPathPolicy
from repro.core.api import JobSubmission
from repro.core.architectures import hybrid, out_ofs, up_ofs
from repro.apps import get_app
from repro.runner.pool import PoolRunner
from repro.runner.spec import canonical_json, isolated_cell
from repro.runner.store import SqliteResultCache
from repro.runner.work import decode_result
from repro.service.api import ReproService
from repro.workload.fb2009 import DAY, FB2009_SEGMENTS, generate_fb2009
from repro.workload.trace import Trace, TraceJob

#: The program's size unit (binary gigabyte), used for the paper's
#: Algorithm-1 thresholds and the cross-point tolerances.
GB = float(1 << 30)

#: The paper's FB-2009 arrival rate and the Section V shrink factor.
JOBS_PER_DAY = 6000.0
SHRINK = 5.0


class CheckFailed(Exception):
    """A correctness check on the program's output failed."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass
class PassResult:
    """What one pass did; times are (raw, normalised) seconds."""

    ops: int                       # primary operations completed
    attempted: int                 # operations attempted, workload's unit
    failed: int                    # operations that failed
    timed: Tuple[float, float]     # the primary section
    extra_s: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    latencies: List[Tuple[float, float]] = field(default_factory=list)
    info: Dict[str, float] = field(default_factory=dict)


def timed_sum(meter, calls) -> Tuple[List[Any], Tuple[float, float]]:
    """Time each ``(fn, *args)`` as one slice; results and summed times."""
    results, raw, norm = [], 0.0, 0.0
    for fn, *args in calls:
        result, r, n = meter.time(fn, *args)
        results.append(result)
        raw += r
        norm += n
    return results, (raw, norm)


def sliced_replay(meter, deployment, jobs, slices: int = 24) -> Tuple[float, float]:
    """Replay ``jobs`` as :meth:`Deployment.run_trace` does (submit every
    job at its arrival time, then run the clock out), in slices: the
    submissions in ``slices`` chunks, then the clock in steps of
    1/``slices`` of the arrival window until no event is left."""
    chunk = max(1, len(jobs) // slices)

    def submit(part) -> None:
        for job in part:
            deployment.submit_at(job, register_dataset=False)

    _, (raw, norm) = timed_sum(
        meter, [(submit, jobs[i:i + chunk]) for i in range(0, len(jobs), chunk)]
    )
    step = max(job.arrival_time for job in jobs) / slices
    until = 0.0
    while deployment.sim.pending_events:
        until += step
        _, r, n = meter.time(deployment.advance_until, until)
        raw += r
        norm += n
    return raw, norm


# -- inputs ------------------------------------------------------------------


def _mixture_quantiles(u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the FB-2009 input-size mixture (log-uniform
    segments weighted as in :data:`FB2009_SEGMENTS`)."""
    weights = np.array([s.weight for s in FB2009_SEGMENTS], dtype=float)
    weights /= weights.sum()
    edges = np.concatenate([[0.0], np.cumsum(weights)])
    seg = np.minimum(np.searchsorted(edges, u, side="right") - 1, len(weights) - 1)
    within = np.clip((u - edges[seg]) / weights[seg], 0.0, 1.0)
    low = np.log([FB2009_SEGMENTS[k].low for k in seg])
    high = np.log([FB2009_SEGMENTS[k].high for k in seg])
    return np.exp(low + within * (high - low))


def _direct(fn, *args):
    return fn(*args)


def fb2009_trace(num_jobs: int, seed: int, step=_direct) -> Trace:
    """A seeded FB-2009 trace at 6000 jobs/day, shrunk by 5.

    Arrival times, job classes and shuffle/output ratios come from the
    program's own generator.  Input sizes are then redrawn from the same
    size mixture by stratified sampling (one draw per 1/N quantile band,
    assigned in the generator's size-rank order, ratios kept), so the
    heavy tail is always represented the same way.  Over 8 seeds, plain
    draws gave 500-job replays of 58k to 90k events; stratified 300-job
    replays stay between 48.6k and 50.2k.
    """
    trace = step(generate_fb2009, num_jobs, seed, DAY * num_jobs / JOBS_PER_DAY)
    return step(step(_stratify, trace, seed).shrink, SHRINK)


def _stratify(trace: Trace, seed: int) -> Trace:
    num_jobs = len(trace)
    rng = np.random.default_rng([seed, 2009])
    sizes = _mixture_quantiles((np.arange(num_jobs) + rng.random(num_jobs)) / num_jobs)
    order = np.argsort([j.input_bytes for j in trace.jobs], kind="stable")
    jobs = list(trace.jobs)
    for rank, idx in enumerate(order):
        job = jobs[idx]
        scale = float(sizes[rank]) / job.input_bytes
        jobs[idx] = TraceJob(
            job_id=job.job_id,
            arrival_time=job.arrival_time,
            input_bytes=float(sizes[rank]),
            shuffle_bytes=job.shuffle_bytes * scale,
            output_bytes=job.output_bytes * scale,
        )
    return Trace(jobs, dict(trace.metadata))


# -- independent checks ---------------------------------------------------------


def algorithm1_role(input_bytes: float, shuffle_bytes: float) -> str:
    """The paper's Algorithm 1, recomputed from its thresholds."""
    ratio = shuffle_bytes / input_bytes if input_bytes > 0 else 0.0
    if ratio > 1.0:
        cross = 32 * GB
    elif ratio >= 0.4:
        cross = 16 * GB
    else:
        cross = 10 * GB
    return "up" if input_bytes < cross else "out"


def results_digest(results) -> str:
    """sha256 of the canonical per-job simulated results: job id,
    member, submit time and end time (floats by ``repr``)."""
    lines = sorted(
        f"{r.job_id}|{r.cluster}|{r.submit_time!r}|{r.end_time!r}" for r in results
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def check_replay(jobs, results, deployment, label: str) -> int:
    """Once-only completion, Algorithm-1 placement and timestamp order
    for a trace replay; returns the number of failed jobs."""
    by_id = {}
    for result in results:
        check(result.job_id not in by_id, f"{label}: job {result.job_id} completed twice")
        by_id[result.job_id] = result
    check(
        set(by_id) == {job.job_id for job in jobs},
        f"{label}: {len(by_id)} of {len(jobs)} trace jobs completed",
    )
    names = {
        role: deployment.trackers[deployment.spec.role_index(role)].name
        for role in ("up", "out")
    }
    failed = 0
    for job in jobs:
        result = by_id[job.job_id]
        if result.failed:
            failed += 1
            continue
        want = names[algorithm1_role(job.input_bytes, job.shuffle_bytes)]
        check(
            result.cluster == want,
            f"{label}: {job.job_id} ran on {result.cluster}, Algorithm 1 says {want}",
        )
        check(
            result.submit_time <= result.first_map_start <= result.end_time,
            f"{label}: {job.job_id} timestamps out of order",
        )
    check(failed == 0, f"{label}: {failed} jobs failed")
    return failed


def quantile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- workloads ----------------------------------------------------------------


class Workload:
    """One workload: ``setup`` once, then ``run_pass`` repeatedly, with
    ``prepare`` building the next pass's fresh objects in between.

    ``setup`` receives ``step``, which runs one phase of set-up as a
    timed slice: ``step(fn, *args)`` returns ``fn(*args)``."""

    name = ""
    unit = ""

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.digest: Optional[str] = None

    def setup(self, step) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, meter) -> PassResult:
        raise NotImplementedError

    def finish(self) -> Dict[str, float]:
        """Untimed checks and figures made once per run."""
        return {}

    def _same_digest(self, digest: str) -> None:
        if self.digest is None:
            self.digest = digest
        check(digest == self.digest, f"{self.name}: simulated results differ between passes")


class ReplayFull(Workload):
    """Section V replay at full fidelity on the Hybrid architecture."""

    name = "replay-full"
    unit = "jobs"
    JOBS = 300

    def setup(self, step) -> None:
        trace = fb2009_trace(self.JOBS, self.seed, step)
        self.jobs = step(trace.to_jobspecs)
        step(self.prepare)

    def prepare(self) -> None:
        self.deployment = Deployment(hybrid())

    def run_pass(self, meter) -> PassResult:
        deployment, self.deployment = self.deployment, None
        timed = sliced_replay(meter, deployment, self.jobs)
        results = deployment.results
        failed = check_replay(self.jobs, results, deployment, self.name)
        self._same_digest(results_digest(results))
        return PassResult(
            ops=len(results), attempted=len(self.jobs), failed=failed, timed=timed,
            info={"events": deployment.sim.events_processed},
        )

    def finish(self) -> Dict[str, float]:
        """The sliced replay must equal one uninterrupted run_trace."""
        results = Deployment(hybrid()).run_trace(self.jobs, register_dataset=False)
        check(
            results_digest(results) == self.digest,
            f"{self.name}: sliced replay differs from Deployment.run_trace",
        )
        return {}


class ReplayFastpath(Workload):
    """A large trace through the full-analytic fast path."""

    name = "replay-fastpath"
    unit = "jobs"
    JOBS = 20_000

    def setup(self, step) -> None:
        trace = fb2009_trace(self.JOBS, self.seed, step)
        self.jobs = step(trace.to_jobspecs)
        step(self.prepare)

    def prepare(self) -> None:
        self.deployment = Deployment(
            hybrid(), fast_path=FastPathPolicy.full_analytic()
        )

    def run_pass(self, meter) -> PassResult:
        deployment, self.deployment = self.deployment, None
        timed = sliced_replay(meter, deployment, self.jobs)
        results = deployment.results
        failed = check_replay(self.jobs, results, deployment, self.name)
        check(
            deployment.fast_path_jobs == len(self.jobs),
            f"{self.name}: fast path took {deployment.fast_path_jobs} of {len(self.jobs)} jobs",
        )
        self._same_digest(results_digest(results))
        return PassResult(
            ops=len(results), attempted=len(self.jobs), failed=failed, timed=timed,
            info={"events": deployment.sim.events_processed},
        )

    def finish(self) -> Dict[str, float]:
        """Fast path against full fidelity on the replay-full trace."""
        jobs = fb2009_trace(ReplayFull.JOBS, self.seed).to_jobspecs()
        full = Deployment(hybrid())
        exact = {r.job_id: r for r in full.run_trace(jobs, register_dataset=False)}
        fast = Deployment(hybrid(), fast_path=FastPathPolicy.full_analytic())
        approx = fast.run_trace(jobs, register_dataset=False)
        check_replay(jobs, approx, fast, f"{self.name} reference trace")
        dev = [abs(r.execution_time - exact[r.job_id].execution_time) for r in approx]
        rel = [
            d / exact[r.job_id].execution_time
            for d, r in zip(dev, approx)
            if exact[r.job_id].execution_time > 0
        ]

        def span(results) -> float:
            return max(r.end_time for r in results) - min(r.submit_time for r in results)

        exact_span = span(exact.values())
        makespan_err = abs(span(approx) - exact_span) / exact_span
        check(
            makespan_err <= 0.05,
            f"{self.name}: analytic makespan off by {makespan_err:.1%} (limit 5%)",
        )
        return {
            "fastpath.dev_p99_s": quantile(dev, 0.99),
            "fastpath.rel_dev_p50": quantile(rel, 0.50),
            "fastpath.rel_dev_p99": quantile(rel, 0.99),
            "makespan_rel_err": makespan_err,
        }


def _wchar() -> int:
    """Bytes this process has written, as the kernel counts them."""
    try:
        with open("/proc/self/io") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class DaemonIngest(Workload):
    """Closed-loop NDJSON admission into an in-process service."""

    name = "daemon-ingest"
    unit = "batches"
    JOBS = 1000
    BATCH = 20
    PREFIX_BATCHES = 4

    def setup(self, step) -> None:
        trace = fb2009_trace(self.JOBS, self.seed, step)
        self.submissions = step(lambda: [JobSubmission.from_tracejob(j) for j in trace])
        self.batches = step(self._encode)
        self.generation = 0
        self.last_checkpoint: Optional[Path] = None
        step(self.prepare)

    def _encode(self) -> List[str]:
        return [
            "\n".join(
                json.dumps(s.to_wire(), sort_keys=True)
                for s in self.submissions[i:i + self.BATCH]
            )
            for i in range(0, len(self.submissions), self.BATCH)
        ]

    def prepare(self) -> None:
        self.generation += 1
        self.path = self.tmp / f"ckpt-{self.generation}" / "state.json"
        self.durable = ReproService("Hybrid", checkpoint_path=str(self.path))
        self.volatile = ReproService("Hybrid")

    def _stream(self, meter, service) -> tuple:
        latencies: List[Tuple[float, float]] = []
        rejected = 0
        for batch in self.batches:
            (statuses, report), raw, norm = meter.time(service.submit_ndjson, batch)
            latencies.append((raw, norm))
            if not report.ok or len(statuses) != self.BATCH or not all(
                s.accepted for s in statuses
            ):
                rejected += 1
        return latencies, rejected

    def run_pass(self, meter) -> PassResult:
        durable, volatile = self.durable, self.volatile
        self.durable = self.volatile = None
        written = _wchar()
        latencies, durable_rejected = self._stream(meter, durable)
        written = _wchar() - written
        volatile_latencies, volatile_rejected = self._stream(meter, volatile)
        check(durable_rejected == 0, f"{self.name}: {durable_rejected} durable batches not fully accepted")
        check(volatile_rejected == 0, f"{self.name}: {volatile_rejected} volatile batches not fully accepted")
        self.counters = dict(durable.state().counters)
        if self.last_checkpoint is not None:
            shutil.rmtree(self.last_checkpoint.parent, ignore_errors=True)
        self.last_checkpoint = self.path
        return PassResult(
            ops=self.JOBS,
            attempted=2 * len(self.batches),
            failed=durable_rejected + volatile_rejected,
            timed=tuple(map(sum, zip(*latencies))),
            extra_s={"volatile": tuple(map(sum, zip(*volatile_latencies)))},
            latencies=latencies,
            info={"durable_bytes": written},
        )

    def restore(self, meter) -> Tuple[float, float]:
        """Rebuild the service from the last pass's final checkpoint and
        check it against the generated stream; returns its time."""
        restored, raw, norm = meter.time(ReproService.restore, str(self.last_checkpoint))
        state = restored.state()
        check(
            [s.to_wire() for s in state.accepted] == [s.to_wire() for s in self.submissions],
            f"{self.name}: restored admission log differs from the submitted stream",
        )
        check(
            dict(state.counters) == self.counters,
            f"{self.name}: restored counters {dict(state.counters)} != {self.counters}",
        )
        return raw, norm

    def finish(self) -> Dict[str, float]:
        """Drain a restored prefix and compare it with a batch replay."""
        path = self.tmp / "prefix" / "state.json"
        service = ReproService("Hybrid", checkpoint_path=str(path))
        for batch in self.batches[: self.PREFIX_BATCHES]:
            service.submit_ndjson(batch)
        restored = ReproService.restore(str(path))
        summary = restored.drain()
        prefix = self.submissions[: self.PREFIX_BATCHES * self.BATCH]
        check(summary["failed"] == 0, f"{self.name}: restored prefix had failed jobs")
        batch = Deployment(hybrid()).run_trace(
            [s.to_jobspec() for s in prefix], register_dataset=False
        )

        def rows(results):
            return sorted(
                (r.job_id, r.cluster, r.submit_time, r.first_map_start, r.end_time)
                for r in results
            )

        check(
            rows(restored.results) == rows(batch),
            f"{self.name}: drained restore differs from Deployment.run_trace",
        )
        return {}


#: The Fig. 7 and Fig. 8 grids: (application, input sizes in GB).
SWEEP_GRID = (
    ("wordcount", (0.5, 1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 80, 100)),
    ("grep", (0.5, 1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 80, 100)),
    ("testdfsio-write", (1, 3, 5, 8, 10, 15, 20, 30)),
)

#: Accepted cross points in GB: the fidelity bands around the paper's
#: 32 / 16 / 10 GB that the repository's figure benchmarks also use.
CROSS_BANDS = {
    "wordcount": (24.0, 40.0),
    "grep": (10.0, 22.0),
    "testdfsio-write": (6.0, 14.0),
}


def cross_point(sizes: Sequence[float], up: Sequence[float], out: Sequence[float]) -> Optional[float]:
    """Last size where out/up falls through 1.0, interpolated in log size."""
    ratio = [o / u for o, u in zip(out, up)]
    cross = None
    for i in range(len(sizes) - 1):
        if ratio[i] >= 1.0 > ratio[i + 1]:
            frac = (ratio[i] - 1.0) / (ratio[i] - ratio[i + 1])
            lo, hi = math.log(sizes[i]), math.log(sizes[i + 1])
            cross = math.exp(lo + frac * (hi - lo))
    return cross


class SweepGrid(Workload):
    """The paper's cross-point grids, cold into a store, then warm."""

    name = "sweep-grid"
    unit = "cells"

    def setup(self, step) -> None:
        step(self._build_cells)
        self.generation = 0
        step(self.prepare)

    def _build_cells(self) -> None:
        """The grid in canonical order (application, architecture, size),
        with the figures' own task-jitter streams (cell seed 0): the
        Wordcount cross point moves between 15.8 and 33.6 GB over jitter
        seeds 0-40 and falls below Grep's at seed 15, so a seeded jitter
        stream would make the cross-point checks fail on some seeds.
        The seed instead orders the cells within each application's
        runner call (one call per application, as the figure code does)."""
        archs = (up_ofs(), out_ofs())
        self.cells = [
            isolated_cell(arch, get_app(app), size * GB)
            for app, sizes in SWEEP_GRID
            for arch in archs
            for size in sizes
        ]
        rng = random.Random(self.seed)
        self.groups: List[List[int]] = []
        start = 0
        for _, sizes in SWEEP_GRID:
            group = list(range(start, start + 2 * len(sizes)))
            rng.shuffle(group)
            self.groups.append(group)
            start += 2 * len(sizes)

    def _run_grid(self, meter, runner) -> Tuple[List[Any], Tuple[float, float]]:
        """One runner call per application; outcomes in canonical order."""
        parts, timed = timed_sum(
            meter, [(runner.run_cells, [self.cells[i] for i in g]) for g in self.groups]
        )
        outcomes: List[Any] = [None] * len(self.cells)
        for group, part in zip(self.groups, parts):
            for index, outcome in zip(group, part):
                outcomes[index] = outcome
        return outcomes, timed

    def prepare(self) -> None:
        self.generation += 1
        self.path = self.tmp / f"store-{self.generation}.db"
        self.store = SqliteResultCache(self.path)
        self.runner = PoolRunner(max_workers=1, cache=self.store)

    def run_pass(self, meter) -> PassResult:
        runner, store = self.runner, self.store
        self.runner = self.store = None
        cold, cold_s = self._run_grid(meter, runner)
        cold_stats = runner.lifetime_stats
        warm_store = SqliteResultCache(self.path)
        warm_runner = PoolRunner(max_workers=1, cache=warm_store)
        warm, warm_s = self._run_grid(meter, warm_runner)
        warm_stats = warm_runner.lifetime_stats
        store_bytes = sum(
            p.stat().st_size for p in self.tmp.glob(self.path.name + "*")
        )
        store.close()
        warm_store.close()
        failed = sum(1 for o in cold + warm if not o.ok)
        check(failed == 0, f"{self.name}: {failed} cells failed")
        check(
            cold_stats.simulated == len(self.cells) and cold_stats.cache_hits == 0,
            f"{self.name}: cold pass simulated {cold_stats.simulated} of {len(self.cells)} cells",
        )
        check(
            warm_stats.simulated == 0 and warm_stats.cache_hits == len(self.cells),
            f"{self.name}: warm pass simulated {warm_stats.simulated} cells",
        )
        check(
            all(
                canonical_json(c.payload) == canonical_json(w.payload)
                for c, w in zip(cold, warm)
            ),
            f"{self.name}: warm payloads differ from cold ones",
        )
        results = [decode_result(o.payload) for o in cold]
        digest = results_digest(results)
        if self.digest is None:
            self.crosses = self._check_crosses(results)
        self._same_digest(digest)
        for p in self.tmp.glob(self.path.name + "*"):
            p.unlink()
        return PassResult(
            ops=len(self.cells),
            attempted=2 * len(self.cells),
            failed=failed,
            timed=cold_s,
            extra_s={"warm": warm_s},
            info={"store_bytes": store_bytes},
        )

    def _check_crosses(self, results) -> Dict[str, float]:
        crosses: Dict[str, float] = {}
        i = 0
        for app, sizes in SWEEP_GRID:
            up = [r.execution_time for r in results[i:i + len(sizes)]]
            out = [r.execution_time for r in results[i + len(sizes):i + 2 * len(sizes)]]
            i += 2 * len(sizes)
            cross = cross_point(sizes, up, out)
            low, high = CROSS_BANDS[app]
            check(cross is not None, f"{self.name}: {app} has no cross point")
            check(
                low <= cross <= high,
                f"{self.name}: {app} cross point {cross:.1f} GB outside [{low}, {high}] GB",
            )
            crosses[app] = cross
        check(
            crosses["testdfsio-write"] < crosses["grep"] < crosses["wordcount"],
            f"{self.name}: cross points do not ascend TestDFSIO < Grep < Wordcount",
        )
        return crosses


WORKLOADS = {w.name: w for w in (ReplayFull, ReplayFastpath, DaemonIngest, SweepGrid)}
