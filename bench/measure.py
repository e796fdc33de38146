"""Measurement helpers: percentiles, and in-memory spans for the traced run.

A span is opened around each call the benchmark makes into a layer of the
toolkit. Spans carry a name, start and end (perf_counter seconds), the
index of the enclosing span and the id of the unit of work (request, set-up
or probe) they belong to, plus counts the caller attaches after the call.
Nothing is written until the run ends.

`HostClock` times the end-to-end intervals and scales them by the host's
speed, sampled with a fixed reference workload while they run (see its
docstring).
"""

import gc
import json
import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager, nullcontext
from time import perf_counter


def p50(values):
    return statistics.median(values)


def p95(values):
    """Inclusive 95th percentile; the value itself for a single sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


# --- host speed -------------------------------------------------------------

def _reference_nfa(states=40, labels=6):
    rng = random.Random(12345)
    nfa = {}
    for q in range(states):
        out = nfa.setdefault(q, {})
        for _ in range(3):
            out.setdefault(rng.randrange(labels), []).append((rng.randrange(states), rng.random()))
    return nfa


REFERENCE_NFA = _reference_nfa()
REFERENCE_UNIT_S = 0.0025   # one sampled reference_work() call on a calm host
SAMPLE_EVERY_S = 0.025      # how often HostClock pauses the timed work to calibrate
WINDOW_S = 0.1              # samples this close to an interval also calibrate it


def reference_work():
    """Fixed pure-Python work shaped like the toolkit's inner loops: weighted
    subset construction over a seeded NFA (dicts, tuples, floats, sorting),
    then text output. It never calls the toolkit, so a change to the toolkit
    cannot change its time; only the host's speed can."""
    start = ((0, 0.0),)
    index = {start: 0}
    queue = [start]
    arcs = []
    while queue and len(index) < 200:
        subset = queue.pop()
        by_label = {}
        for q, w in subset:
            for label, dests in REFERENCE_NFA[q].items():
                best = by_label.setdefault(label, {})
                for r, v in dests:
                    if w + v < best.get(r, float("inf")):
                        best[r] = w + v
        for label, best in sorted(by_label.items()):
            low = min(best.values())
            key = tuple(sorted((r, round(c - low, 1)) for r, c in best.items()))
            if key not in index:
                index[key] = len(index)
                queue.append(key)
            arcs.append((index[subset], label, index[key], low))
    arcs.sort()
    text = "\n".join(f"{a}\t{b}\t{label}\t{w:.4f}" for a, label, b, w in arcs)
    return len(index), len(arcs), len(text)


class HostClock:
    """Times measured on a shared host, and the same times scaled to an
    uncontended one.

    Other tenants of a shared host slow every instruction down, by up to
    half, both from one millisecond to the next and for minutes at a time,
    which moves wall-clock medians between sets of runs by more than any
    useful bound. While the clock runs, a timer signal pauses the timed work
    every SAMPLE_EVERY_S and times one reference_work() call; its time over
    REFERENCE_UNIT_S is the host's slowdown (about 1.0 on a calm host, 1.3
    when the host runs 30% slower). An
    interval's time leaves out these pauses, and its normalised time is that
    divided by the mean slowdown of the samples taken during it or within
    WINDOW_S of it. The reference work never runs toolkit code, so a slower
    toolkit still reads slower. With `enabled` false no signal is set and the
    normalised time is the time.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.sample_at = []     # perf_counter time of each sample
        self.slowdowns = []     # ... and its slowdown
        self.paused = 0.0       # seconds spent sampling so far
        self.intervals = []     # (start, end, seconds, tag)
        self._previous = None

    def __enter__(self):
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        # The collector stays off: a collection would walk the program's
        # heap, whose size is not the host's speed.
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            reference_work()
            t1 = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.sample_at.append(t0)
        self.slowdowns.append((t1 - t0) / REFERENCE_UNIT_S)
        self.paused += t1 - t0

    def start(self):
        return perf_counter(), self.paused

    def stop(self, started, tag=None):
        """Record the interval since `started` (from `start`); returns its
        seconds, pauses for sampling left out."""
        t0, paused0 = started
        paused1 = self.paused
        t1 = perf_counter()
        seconds = t1 - t0 - (paused1 - paused0)
        self.intervals.append((t0, t1, seconds, tag))
        return seconds

    def times(self, tag=None):
        return [s for _, _, s, t in self.intervals if tag is None or t == tag]

    def normalised(self, tag=None):
        """Normalised times of the intervals, optionally only those with `tag`."""
        out = []
        for t0, t1, seconds, t in self.intervals:
            if tag is not None and t != tag:
                continue
            lo = bisect_left(self.sample_at, t0 - WINDOW_S)
            hi = bisect_right(self.sample_at, t1 + WINDOW_S)
            near = self.slowdowns[lo:hi]
            out.append(seconds / statistics.fmean(near) if near else seconds)
        return out


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, unit=None):
        """Record `name` around the body; yields a dict for counts.

        `unit` names a new unit of work (for example ("request", 3)); nested
        spans inherit the unit of the span that encloses them.
        """
        parent = self._open[-1] if self._open else None
        if unit is None and parent is not None:
            unit = self.spans[parent]["unit"]
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": parent, "unit": unit, "counts": {}}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def self_times(self):
        """Each span's duration minus the part its children cover.

        The benchmark is single-threaded, so sibling spans never overlap
        and the covered part is the sum of the children's durations.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return [rec["end"] - rec["start"] - c for rec, c in zip(self.spans, child)]

    def layer_totals(self):
        """{span name: {"ms": mean self ms, count: mean count}}, averaged over
        the units of work in which the span occurs."""
        per_unit = {}
        for rec, self_s in zip(self.spans, self.self_times()):
            acc = per_unit.setdefault(rec["name"], {}).setdefault(
                tuple(rec["unit"] or ()), {})
            acc["ms"] = acc.get("ms", 0.0) + self_s * 1e3
            for key, value in rec["counts"].items():
                acc[key] = acc.get(key, 0) + value
        out = {}
        for name, units in per_unit.items():
            keys = {k for acc in units.values() for k in acc}
            out[name] = {k: sum(acc.get(k, 0) for acc in units.values()) / len(units)
                         for k in keys}
        return out

    def write(self, path, extra):
        """Dump every span (with its self time) and `extra` as JSON."""
        spans = [dict(rec, self_ms=s * 1e3) for rec, s in zip(self.spans, self.self_times())]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(dict(extra, spans=spans)) + "\n")


class NullTracer:
    """Tracing off: every span is a no-op."""

    enabled = False

    def span(self, name, unit=None):
        return nullcontext({})
