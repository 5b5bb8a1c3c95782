"""Host-speed reference: a fixed pure-Python computation and the
meter built on it.

The host this benchmark was tuned on is a shared 2-vCPU VM whose speed
swings by up to 2.7x, in phases from under a second to tens of seconds.  Wall-clock
rates taken straight from such a host say more about its neighbours
than about the program.  Every timed slice of work is therefore divided
by this reference timed right before and right after it (the smaller
of the two), and multiplied by :data:`NOMINAL_REF_S`: a normalised time reads as
seconds on a host where the reference takes exactly that long.

The reference imports nothing from the program under test, works only
on its own data, and runs with the cyclic garbage collector paused, so
whatever the program left on the heap can neither speed it up nor slow
it down.  Its mix — a small event heap with a rate table, lookups in a
large string-keyed table, hops through a large ring of objects, and
short-lived allocations — follows what the simulator, the service and
the runner spend their time on; the two large structures make it as
sensitive to cache pressure as the program is.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

#: The probe's time on the tuning host in a quiet phase; a constant,
#: so normalised figures from different runs share one scale.
NOMINAL_REF_S = 0.004

_ROUNDS = 1000
_LOOKUPS = 3000
_HOPS = 4000
_ALLOCS = 1500

#: The reference's own data, built once outside any timing: a string-
#: keyed table and a shuffled ring of small objects, large enough
#: (~18 MB together) to spill the CPU caches the way the program's
#: heaps of jobs, tasks and flows do.
_TABLE_SIZE = 1 << 16
_table: Dict[str, float] = {}
_keys: List[str] = []
_ring: List["_Node"] = []


class _Node:
    __slots__ = ("value", "weight", "next")


def _build() -> None:
    order = list(range(_TABLE_SIZE))
    for i in range(_TABLE_SIZE):
        key = "job-%08x" % ((i * 2654435761) & 0xFFFFFFFF)
        _table[key] = float(i)
        _keys.append(key)
        node = _Node()
        node.value = float(i)
        node.weight = i % 7
        _ring.append(node)
    # A fixed pseudo-random cycle through the ring, so hops miss caches.
    state = 12345
    for i in range(_TABLE_SIZE - 1, 0, -1):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        j = state % (i + 1)
        order[i], order[j] = order[j], order[i]
    for i in range(_TABLE_SIZE):
        _ring[order[i]].next = _ring[order[(i + 1) % _TABLE_SIZE]]


def _reference_body() -> float:
    """Four equal-ish parts: a small event heap with a rate table,
    lookups in a large string-keyed table, pointer hops through a large
    ring of objects, and short-lived small allocations."""
    heap: List[Tuple[float, int, str]] = []
    rates: Dict[str, float] = {}
    acc = 0.0
    for i in range(_ROUNDS):
        t = (i * 7919) % 1009 * 0.37
        heapq.heappush(heap, (t, i, "flow-%d" % (i % 97)))
        if len(heap) > 64:
            when, _, name = heapq.heappop(heap)
            rates[name] = rates.get(name, 0.0) * 0.5 + when
            acc += when * 1e-3
        if i % 50 == 0:
            acc += sum(sorted(rates.values())[:8])
    table, keys, mask = _table, _keys, _TABLE_SIZE - 1
    for j in range(_LOOKUPS):
        acc += table[keys[(j * 40503) & mask]]
    node = _ring[0]
    for _ in range(_HOPS):
        acc += node.value * 0.5 + node.weight
        node = node.next
    batch: List[Any] = []
    for i in range(_ALLOCS):
        batch.append(({"id": i, "t": i * 0.5, "tag": "job"}, [i, i + 1]))
        if len(batch) > 200:
            batch.clear()
    return acc


def reference_seconds() -> float:
    """One timing of the reference computation, in raw seconds."""
    if not _table:
        _build()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_body()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Times work in slices, each normalised by the reference timed
    right before and right after it.

    The host's speed moves within a second, so one reference on each
    side of a whole pass tracks it poorly; a pass is therefore cut into
    slices of tens of milliseconds (simulated-time windows, NDJSON
    batches, one application's grid), and its normalised time is the sum of
    its normalised slices.  The reference timed after one slice is the
    one before the next.  A slice is normalised by the *smaller* of its
    two references: a single reference timing is inflated now and then
    by an interruption, and on 200-s recordings of replay-full and
    sweep-grid the smaller one cut the spread between 25-s windows by a
    third and by a half against the mean of the two (IQR/median 0.080 -> 0.054 and
    0.081 -> 0.044).
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.refresh()

    def refresh(self) -> None:
        """Take a fresh reference (after untimed work between passes)."""
        self.last = reference_seconds()
        self.probes.append(self.last)

    def time(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float, float]:
        """Run ``fn``; return its result, raw seconds and nominal seconds."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        ref = reference_seconds()
        norm = raw * NOMINAL_REF_S / min(self.last, ref)
        self.last = ref
        self.probes.append(ref)
        return result, raw, norm

    def median_ref(self) -> float:
        return statistics.median(self.probes)
