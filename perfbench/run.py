"""The repository benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-full --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload daemon-ingest --trace 1
    python3 perfbench/run.py --workload sweep-grid --steady 5

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same passes alternately with and without layer spans and prints the
per-layer metrics plus the tracing overhead.  ``--steady N`` runs the
workload N times back to back (seeds ``seed .. seed+N-1``, one child
process each) and prints the median, quartiles and max/min ratio of
every end-to-end metric, raw and normalised.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check is printed by name and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from reference import NOMINAL_REF_S, Meter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Variables through which the environment could pick another kernel,
#: result store, cache directory or worker count for the program.
ISOLATED_ENV = ("REPRO_KERNEL", "REPRO_CACHE_BACKEND", "REPRO_CACHE_DIR", "REPRO_JOBS")

WORKLOAD_NAMES = ("replay-full", "replay-fastpath", "daemon-ingest", "sweep-grid")

#: Passes per run at least, whatever ``--seconds`` says, so that every
#: run reports a median.
MIN_PASSES = 3
#: Set-up is repeated this many times (more while it stays cheap) and
#: its median reported.
SETUP_REPS = (3, 41)
SETUP_BUDGET_S = 3.0

UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Timed:
    """Raw and normalised samples of one timed quantity."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.norm: List[float] = []

    def add(self, sample: Tuple[float, float]) -> None:
        self.raw.append(sample[0])
        self.norm.append(sample[1])

    def median(self) -> Tuple[float, float]:
        return statistics.median(self.raw), statistics.median(self.norm)


def measure_setup(cls, seed: int, tmp: Path, meter: Meter):
    """Build the workload several times (more while it stays cheap);
    keep the last one, report the median time."""
    setup = Timed()
    workload = None
    started = time.perf_counter()
    while len(setup.raw) < SETUP_REPS[0] or (
        len(setup.raw) < SETUP_REPS[1]
        and time.perf_counter() - started < SETUP_BUDGET_S
    ):
        if workload is not None:
            shutil.rmtree(workload.tmp, ignore_errors=True)
        workload = None
        directory = tmp / f"run-{len(setup.raw)}"
        directory.mkdir()
        gc.collect()
        meter.refresh()
        workload = cls(seed, directory)
        total = [0.0, 0.0]

        def step(fn, *args):
            result, raw, norm = meter.time(fn, *args)
            total[0] += raw
            total[1] += norm
            return result

        workload.setup(step)
        setup.add(tuple(total))
    return workload, setup


def run_passes(workload, seconds: float, meter: Meter, tracer=None):
    """Run whole passes for ``seconds`` (at least :data:`MIN_PASSES`).
    With a tracer, passes alternate untraced and traced, in pairs."""
    records = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        gc.collect()
        meter.refresh()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            result = workload.run_pass(meter)
        finally:
            if traced:
                tracer.uninstall()
        wall = result.timed[0] + sum(raw for raw, _ in result.extra_s.values())
        records.append((result, tracer_snapshot(tracer, wall) if traced else None))
        workload.prepare()
        if tracer is None:
            whole = len(records) >= MIN_PASSES
        else:
            whole = len(records) % 2 == 0
        if whole and time.perf_counter() - started >= seconds:
            return records


def tracer_snapshot(tracer, wall: float) -> Dict[str, object]:
    from spans import LAYERS

    return {
        "wall": wall,
        "layers": {name: tracer.layer(name) for name in LAYERS},
        "counts": dict(tracer.counts),
        "named": {
            label: tracer.named(label)
            for label in (
                "validate_ndjson", "ReproService.submit_ndjson",
                "CheckpointStore.save", "CheckpointStore.load",
                "CellSpec.content_key", "execute_cell",
                "SqliteResultCache.get_many", "SqliteResultCache.put_many",
            )
        },
    }


def workload_figures(records) -> Dict[str, Tuple[float, float]]:
    """The workload's own figures (raw, normalised) from untraced passes."""
    figures: Dict[str, Tuple[float, float]] = {}
    passes = [result for result, snap in records if snap is None]
    ops = passes[0].ops
    timed = Timed()
    extras: Dict[str, Timed] = {}
    batch = Timed()
    tail = Timed()
    for result in passes:
        timed.add(result.timed)
        for key, sample in result.extra_s.items():
            extras.setdefault(key, Timed()).add(sample)
        if result.latencies:
            lat = [x * 1e3 for x, _ in result.latencies]
            norm = [x * 1e3 for _, x in result.latencies]
            batch.add((statistics.median(lat), statistics.median(norm)))
            k = max(1, len(lat) // 10)
            tail.add((statistics.median(lat[-k:]), statistics.median(norm[-k:])))
    print("pass seconds, normalised: " + " ".join(f"{x:.3f}" for x in timed.norm))
    print("pass seconds, raw:        " + " ".join(f"{x:.3f}" for x in timed.raw))
    raw, norm = timed.median()
    figures["ops_per_s"] = (ops / raw, ops / norm)
    if "volatile" in extras:
        raw, norm = extras["volatile"].median()
        figures["admission.volatile_admits_per_s"] = (ops / raw, ops / norm)
        figures["admission.batch_p50_ms"] = batch.median()
        figures["admission.batch_tail_ms"] = tail.median()
        written = statistics.median(r.info["durable_bytes"] for r in passes)
        figures["checkpoint.bytes_per_job"] = (written / ops, written / ops)
    if "warm" in extras:
        raw, norm = extras["warm"].median()
        figures["store.warm_cells_per_s"] = (ops / raw, ops / norm)
    return figures


def per_layer_metrics(records, figures, finish) -> Dict[str, float]:
    """Median over traced passes of every per-layer metric."""
    traced = [snap for _, snap in records if snap is not None]
    overhead = [
        records[i + 1][0].timed[1] / records[i][0].timed[1]
        for i in range(0, len(records) - 1, 2)
    ]
    rows: List[Dict[str, float]] = []
    for snap in traced:
        counts = snap["counts"]
        layers = snap["layers"]
        named = snap["named"]
        scheduled = counts.get("engine.events_scheduled", 0)
        processed = counts.get("engine.events_processed", 0)
        requested = counts.get("runner.cells_requested", 0)
        hits = counts.get("runner.cache_hits", 0)
        rows.append({
            "engine.events_scheduled": scheduled,
            "engine.events_processed": processed,
            "engine.events_cancelled": counts.get("engine.events_cancelled", 0),
            "engine.fired_ratio": processed / scheduled if scheduled else 0.0,
            "engine.self_s": layers["engine"][2],
            "resources.flows_started": counts.get("resources.flows_started", 0),
            "resources.flows_cancelled": counts.get("resources.flows_cancelled", 0),
            "resources.self_s": layers["resources"][2],
            "jobtracker.jobs_submitted": counts.get("jobtracker.jobs_submitted", 0),
            "jobtracker.self_s": layers["jobtracker"][2],
            "storage.calls": counts.get("storage.calls", 0),
            "storage.self_s": layers["storage"][2],
            "deployment.submits": counts.get("deployment.submits", 0),
            "deployment.route_s": layers["deployment"][2],
            "fastpath.jobs_taken": counts.get("fastpath.jobs_taken", 0),
            "fastpath.self_s": layers["fastpath"][2],
            "admission.validate_s": named["validate_ndjson"][1],
            "admission.admit_s": named["ReproService.submit_ndjson"][2],
            "admission.batches": counts.get("admission.batches", 0),
            "checkpoint.saves": counts.get("checkpoint.saves", 0),
            "checkpoint.bytes": counts.get("checkpoint.bytes", 0),
            "checkpoint.save_s": named["CheckpointStore.save"][1],
            "runner.cells_simulated": counts.get("runner.cells_simulated", 0),
            "runner.cache_hits": hits,
            "runner.hit_ratio": hits / requested if requested else 0.0,
            "runner.key_s": named["CellSpec.content_key"][1],
            "runner.cell_s": named["execute_cell"][1],
            "store.get_many_s": named["SqliteResultCache.get_many"][1],
            "store.put_many_s": named["SqliteResultCache.put_many"][1],
        })
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    metrics["trace.overhead_ratio"] = statistics.median(overhead)
    for key in PER_LAYER_EXTRAS:
        metrics[key] = figures[key][1] if key in figures else finish.get(key, 0.0)
    return metrics


#: Per-layer figures that come from untraced passes or untimed checks.
PER_LAYER_EXTRAS = (
    "workload.generate_s", "checkpoint.load_s", "checkpoint.restore_s",
    "checkpoint.bytes_per_job", "admission.volatile_admits_per_s",
    "admission.batch_p50_ms", "admission.batch_tail_ms",
    "store.warm_cells_per_s", "store.bytes",
    "fastpath.dev_p99_s", "fastpath.rel_dev_p50", "fastpath.rel_dev_p99",
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_per_job"):
        return "B"
    if name.endswith("ratio") or "rel_dev" in name:
        return "ratio"
    return "count"


def print_layer_table(records) -> None:
    from spans import LAYERS

    snaps = [snap for _, snap in records if snap is not None]
    snap = snaps[len(snaps) // 2]
    wall = snap["wall"]
    print(f"layer table (traced pass, {wall:.3f}s raw in timed slices):")
    print(f"  {'layer':<11} {'calls':>9} {'incl_s':>9} {'self_s':>9} {'share':>7}")
    covered = 0.0
    for name in LAYERS:
        calls, incl, self_s = snap["layers"][name]
        covered += self_s
        if calls:
            print(f"  {name:<11} {calls:>9} {incl:>9.4f} {self_s:>9.4f} {self_s / wall:>7.1%}")
    print(f"  {'(no span)':<11} {'':>9} {'':>9} {wall - covered:>9.4f} {(wall - covered) / wall:>7.1%}")


def run_workload(args) -> int:
    from spans import SpanTracer
    from workloads import WORKLOADS, CheckFailed

    cls = WORKLOADS[args.workload]
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    correct = True
    attempted = failed = 0
    metrics: Dict[str, Dict[str, object]] = {}
    try:
        meter = Meter()
        print(
            f"env: python {platform.python_version()} ({platform.python_implementation()}), "
            f"cpu_count {os.cpu_count()}, seed {args.seed}, workload {args.workload}, "
            f"reference {meter.last * 1e3:.2f} ms raw (nominal {NOMINAL_REF_S * 1e3:.1f} ms)",
            flush=True,
        )
        tracer = SpanTracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            workload, setup = measure_setup(cls, args.seed, tmp, meter)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            generate_s = tracer.layer("workload")[1] / len(setup.raw)
        records = run_passes(workload, args.seconds, meter, tracer)
        attempted = sum(result.attempted for result, _ in records)
        failed = sum(result.failed for result, _ in records)
        figures = workload_figures(records)
        finish: Dict[str, float] = {}
        if hasattr(workload, "restore"):
            gc.collect()
            meter.refresh()
            figures["checkpoint.restore_s"] = workload.restore(meter)
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    workload.restore(meter)
                finally:
                    tracer.uninstall()
                finish["checkpoint.load_s"] = tracer.named("CheckpointStore.load")[1]
        finish.update(workload.finish())
        raw_setup, norm_setup = setup.median()
        print(f"passes: {len(records)} ({records[0][0].attempted} {cls.unit} attempted each)")
        print(f"setup_s: {norm_setup:.4f} normalised, {raw_setup:.4f} raw ({len(setup.raw)} set-ups)")
        for key, (raw, norm) in sorted(figures.items()):
            print(f"{key}: {norm:.4f} normalised, {raw:.4f} raw")
        for key, value in sorted(finish.items()):
            print(f"{key}: {value:.6g}")
        for key, value in sorted(records[0][0].info.items()):
            print(f"{key} per pass: {value}")
        if workload.digest is not None:
            print(f"digest: {workload.digest}")
        if getattr(workload, "crosses", None):
            print("cross points GB: " + ", ".join(
                f"{app} {cross:.2f}" for app, cross in workload.crosses.items()))
        print(f"reference: median {meter.median_ref() * 1e3:.2f} ms raw over {len(meter.probes)} timings")
        if tracer is None:
            values = {
                "ops_per_s": figures["ops_per_s"],
                "setup_s": (raw_setup, norm_setup),
                "peak_rss_mb": (peak_rss_mb(), peak_rss_mb()),
            }
            print("raw " + json.dumps({k: v[0] for k, v in values.items()}))
            metrics = {
                k: {"value": v[1], "unit": UNITS[k]} for k, v in values.items()
            }
        else:
            finish["workload.generate_s"] = generate_s
            if "store_bytes" in records[0][0].info:
                finish["store.bytes"] = records[0][0].info["store_bytes"]
            layer_metrics = per_layer_metrics(records, figures, finish)
            print_layer_table(records)
            path, size = tracer.write(tmp / "spans")
            print(
                f"spans: {len(tracer.span_name)} written ({size} B) to {path.name}; "
                f"tracing overhead {layer_metrics['trace.overhead_ratio']:.2f}x wall"
            )
            metrics = {
                k: {"value": v, "unit": per_layer_unit(k)}
                for k, v in sorted(layer_metrics.items())
            }
    except CheckFailed as exc:
        correct = False
        print(f"CHECK FAILED: {exc}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def steady(args) -> int:
    """Run the workload N times back to back and summarise the spread."""
    samples: Dict[str, Dict[str, List[float]]] = {}
    for i in range(args.steady):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed + i),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr)
            print(f"run {i} (seed {args.seed + i}) failed with exit code {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        raw = json.loads(next(l for l in lines if l.startswith("raw "))[4:])
        for name, entry in result["metrics"].items():
            store = samples.setdefault(name, {"norm": [], "raw": []})
            store["norm"].append(entry["value"])
            store["raw"].append(raw[name])
        print(
            f"run {i} seed {args.seed + i}: "
            + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True,
        )
    print(f"steadiness of {args.workload} over {args.steady} runs of {args.seconds}s:")
    for name, store in samples.items():
        for kind in ("norm", "raw"):
            values = store[kind]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(
                f"  {name:<12} {kind:<4} median {q2:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
                f"iqr/median {(q3 - q1) / q2:.3f}  max/min {max(values) / min(values):.3f}"
            )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run the workload N times and report the spread")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    # A run stopped from outside still removes its temporary directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.steady:
        if args.steady < 2:
            parser.error("--steady needs at least 2 runs")
        return steady(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
