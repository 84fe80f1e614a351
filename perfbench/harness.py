"""Closed loop with one client: each op starts when the previous returns.

An op fails when it raises, misses its deadline or fails its output check;
every failure is counted against the ops attempted.  The deadline is a
main-thread interval timer, so a query that never returns costs its deadline
and the run goes on.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

DEADLINE = "deadline"
RAISED = "raised"
CHECK = "check"


class DeadlineExceeded(Exception):
    """Raised inside an op by the interval timer."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class OpRecord:
    index: int  # position in the spec list
    wall: float  # seconds inside the op call (the output check excluded)
    failure: Optional[str]  # None, DEADLINE, RAISED or CHECK
    detail: str
    output: Any = None
    start: float = 0.0  # perf_counter() when the call began


def run_op(fn: Callable[[], Any], check: Callable[[Any], Optional[str]],
           deadline_s: float, index: int = 0) -> OpRecord:
    """Run fn under a deadline, then check its output."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            try:
                out = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            wall = time.perf_counter() - t0
    except DeadlineExceeded:
        return OpRecord(index, wall, DEADLINE, f"no result within {deadline_s} s", start=t0)
    except Exception as exc:  # an op that raises is a counted failure
        return OpRecord(index, wall, RAISED, f"{type(exc).__name__}: {exc}", start=t0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    try:
        problem = check(out)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    if problem is not None:
        return OpRecord(index, wall, CHECK, problem, out, t0)
    return OpRecord(index, wall, None, "", out, t0)


def closed_loop(indices: Iterable[int], do_op: Callable[[int], OpRecord],
                budget_s: float, wall_cap_s: float,
                before_op: Callable[[int], None] = lambda i: None) -> list[OpRecord]:
    """Run ops in order until their busy time reaches budget_s.

    Busy time counts op calls only, not the checks and cache resets between
    them, and not ops cut off by their deadline: a run that meets a stalled
    query still measures budget_s of completed work.  wall_cap_s bounds the
    whole loop.
    """
    records: list[OpRecord] = []
    busy = 0.0
    start = time.perf_counter()
    for i in indices:
        if busy >= budget_s or time.perf_counter() - start >= wall_cap_s:
            break
        before_op(i)
        rec = do_op(i)
        records.append(rec)
        if rec.failure != DEADLINE:
            busy += rec.wall
    return records


@dataclass(frozen=True)
class Summary:
    attempted: int  # ops, counting each code of a sweep call
    failed: int
    completed: int
    busy_s: float  # op time, deadline-cut ops excluded
    busy_ref_s: float  # the same in reference seconds
    deadline_lost_s: float
    latencies_ms: tuple[float, ...]  # one per call, failures included
    latencies_ref_ms: tuple[float, ...]
    reasons: dict

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.busy_s if self.busy_s > 0 else 0.0

    @property
    def ops_per_ref_s(self) -> float:
        return self.completed / self.busy_ref_s if self.busy_ref_s > 0 else 0.0

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def summarize(records: list[OpRecord], units: Callable[[int], int],
              ref_s: Callable[[OpRecord], float] = lambda rec: rec.wall) -> Summary:
    """Counts and times of a run; ref_s gives an op's time in reference seconds."""
    attempted = failed = 0
    busy = busy_ref = lost = 0.0
    reasons: dict = {}
    refs = [ref_s(rec) for rec in records]
    for rec, ref in zip(records, refs):
        u = units(rec.index)
        attempted += u
        if rec.failure is not None:
            failed += u
            reasons[rec.failure] = reasons.get(rec.failure, 0) + 1
        if rec.failure == DEADLINE:
            lost += rec.wall
        else:
            busy += rec.wall
            busy_ref += ref
    return Summary(attempted, failed, attempted - failed, busy, busy_ref, lost,
                   tuple(1e3 * rec.wall for rec in records),
                   tuple(1e3 * ref for ref in refs), reasons)


def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


TAIL_PERCENTILE = 75


def latency_stats(latencies_ms) -> dict:
    """Median and p75 latency, with how many samples lie beyond the p75.

    p75 is the highest percentile with at least ten samples beyond it at the
    bound-queries sample count (about 300 a run).  It stays fixed so that
    commits with different throughput compare at one level; a sweep run
    has only a few calls, so its p75 has fewer samples beyond it.
    """
    xs = list(latencies_ms)
    tail = percentile(xs, TAIL_PERCENTILE)
    return {
        "p50_ms": statistics.median(xs),
        "tail_ms": tail,
        "tail_level": TAIL_PERCENTILE,
        "samples": len(xs),
        "beyond_tail": sum(x > tail for x in xs),
    }


# --- machine speed ------------------------------------------------------------------

# Probe loops per reference second: about one wall second on an undisturbed
# vCPU of the machine the baseline was measured on.
REFERENCE_RATE = 200_000.0


def _probe_work() -> int:
    x = 0
    for i in range(100):
        x += i * i
    return x


class CpuGauge:
    """Tracks how fast this thread's CPU runs Python, and follows the fastest.

    On a shared host a vCPU slows down when its host core is busy with other
    guests, by up to half and independently of the other vCPUs.  Every
    interval_s of process CPU time a SIGPROF handler times a short Python
    loop; with pin=True it does so on each allowed CPU and moves the thread
    to the fastest.  Each tick records (time, loops per second where the
    thread now runs).  The probes run inside the op that the tick
    interrupts, adding about 2 * probe_s / interval_s to its time.  Pin only
    single-threaded ops: threads started while pinned inherit the pin.
    """

    def __init__(self, pin: bool, interval_s: float = 1.0, probe_s: float = 0.005):
        self.pin = pin
        self.interval_s = interval_s
        self.probe_s = probe_s
        self.allowed = os.sched_getaffinity(0)
        self.samples: list[tuple[float, float]] = []
        self.moves = 0
        self._current = None
        self._previous = None

    def _rate(self, cpu) -> float:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        n = 0
        start = time.perf_counter()
        end = start + self.probe_s
        while (now := time.perf_counter()) < end:
            _probe_work()
            n += 1
        return n / (now - start)

    def tick(self, *_signal_args) -> None:
        if self.pin and len(self.allowed) > 1:
            rates = {cpu: self._rate(cpu) for cpu in sorted(self.allowed)}
            best = max(rates, key=rates.get)
            os.sched_setaffinity(0, {best})
            if best != self._current:
                self.moves += 1
                self._current = best
            rate = rates[best]
        else:
            rate = self._rate(None)
        self.samples.append((time.perf_counter(), rate))

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Wall interval [t0, t1] weighted by the probe rate in force.

        The rate in force at t is the last sample at or before t (the first
        sample before the first tick).  Divided by REFERENCE_RATE.
        """
        times = [t for t, _ in self.samples]
        k = max(bisect.bisect_right(times, t0) - 1, 0)
        total, t = 0.0, t0
        while t < t1:
            upto = min(t1, times[k + 1]) if k + 1 < len(times) else t1
            total += (upto - t) * self.samples[k][1]
            t, k = upto, k + 1
        return total / REFERENCE_RATE

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        if self.pin:
            os.sched_setaffinity(0, self.allowed)
        return False


# --- library caches --------------------------------------------------------------


def library_caches(modules) -> dict:
    """Every functools cache defined in the given modules, by qualified name."""
    found = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if (hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")
                    and getattr(obj, "__module__", None) == mod.__name__):
                found[f"{short}.{name}"] = obj
    return found


class CacheLedger:
    """Clears caches and keeps their hit and miss counts across clears."""

    def __init__(self, caches: dict):
        self.caches = caches
        self.hits = dict.fromkeys(caches, 0)
        self.misses = dict.fromkeys(caches, 0)

    def clear(self) -> None:
        for name, fn in self.caches.items():
            info = fn.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            fn.cache_clear()

    def reset_counts(self) -> None:
        self.clear()
        for name in self.caches:
            self.hits[name] = self.misses[name] = 0

    def hit_ratio(self, name: str) -> float:
        if name not in self.caches:
            return 0.0
        info = self.caches[name].cache_info()
        hits = self.hits[name] + info.hits
        total = hits + self.misses[name] + info.misses
        return hits / total if total else 0.0
