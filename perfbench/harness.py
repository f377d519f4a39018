"""Workload-independent machinery of the benchmark.

* :func:`percentile` — the only percentile the benchmark reports; it
  refuses a percentile that fewer than ten samples lie beyond.
* :func:`machine_fingerprint` — what the numbers were measured on.
* :func:`open_loop` — one load-generator thread sending requests on a
  precomputed Poisson schedule, independent of completions.
* :func:`knee_search` — the fixed up-down staircase over a geometric
  rate ladder that gives ``max_rate_rps``.
* :class:`Tracer` — in-memory spans recorded around calls into the
  program's public functions (the benchmark's own instrumentation; the
  program itself is never edited to be traced).
"""

from __future__ import annotations

import gzip
import itertools
import json
import math
import os
import platform
import resource
import sys
import threading
import time

import numpy as np

#: A load phase is void when its generator ran later than this at p99.
MAX_LATE_MS = 50.0
#: Least number of samples that must lie beyond a reported percentile.
MIN_TAIL_SAMPLES = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


class InvalidLoad(RuntimeError):
    """The load generator fell behind its schedule; the phase is void."""


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) of ``values``.

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it, i.e. unless
    ``n * (1 - q / 100) >= 10`` — a p99 needs 1,000 samples.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    # the tolerance keeps n=1000 at p99 from failing on 1000 * 0.01 = 9.99..
    if n * (1.0 - q / 100.0) < MIN_TAIL_SAMPLES - 1e-9:
        raise InsufficientSamples(
            f"p{q:g} needs {math.ceil(MIN_TAIL_SAMPLES / (1 - q / 100))} "
            f"samples, got {n}"
        )
    return float(np.percentile(values, q))


def machine_fingerprint() -> dict:
    """Machine facts a result is only comparable under."""
    from repro.manifold.chunked import l2_cache_bytes

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.25 prints instead
        blas = None
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "l2_cache_bytes": int(l2_cache_bytes()),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def dir_bytes(path: str) -> int:
    """Total size of the files directly in ``path``."""
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def stop_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    Shard pools join their workers on ``close()``; any child still
    alive is killed here.  What is left is ``multiprocessing``'s
    resource tracker, started by the first shared-memory segment: it
    would outlive the run until it noticed its parent was gone, so it
    is told to stop now and waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()  # no-op when never started


def rss_peak_mb(pids=()) -> float:
    """Peak RSS of this process plus the peaks of the live processes ``pids``.

    A live child's peak is its ``VmHWM`` in ``/proc/<pid>/status``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    children_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            children_kb += next(int(line.split()[1]) for line in status
                                if line.startswith("VmHWM:"))
    return own / scale + children_kb / 1024.0


# ------------------------------------------------------------------ load
class Result:
    """What one run reports: metrics with units and sample counts."""

    def __init__(self):
        self.metrics: "dict[str, tuple[float, str]]" = {}
        self.samples: "dict[str, int]" = {}
        self.attempted = 0
        self.failed = 0
        self.report: dict = {}

    def put(self, name: str, value: float, unit: str, samples: "int | None" = None):
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = int(samples)

    def count(self, measured) -> None:
        self.attempted += measured.attempted
        self.failed += measured.failed


class Phase:
    """One window of one load: per-request timings, answers and counts."""

    def __init__(self, name: str):
        self.name = name
        self.latency_ms: "list[float]" = []
        self.late_ms: "list[float]" = []
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0


class Windows:
    """One load measured as consecutive windows of at least 1,000 requests.

    Latency statistics are medians over the windows of each window's
    percentile, so one stall moves one window, not the reported value.
    """

    def __init__(self, name: str, load: float, windows: "list[Phase]"):
        self.name = name
        self.load = load
        self.windows = windows
        self.attempted = sum(w.attempted for w in windows)
        self.failed = sum(w.failed for w in windows)

    def percentile(self, q: float, attr: str = "latency_ms") -> float:
        return float(np.median([percentile(getattr(w, attr), q) for w in self.windows]))

    def median_of(self, attr: str) -> float:
        return float(np.median([getattr(w, attr) for w in self.windows]))

    def pooled(self, attr: str) -> list:
        return [value for w in self.windows for value in getattr(w, attr)]

    @property
    def samples(self) -> int:
        return sum(len(w.latency_ms) for w in self.windows)

    def stats(self) -> dict:
        out = {"phase": self.name, "load": self.load, "windows": len(self.windows),
               "attempted": self.attempted, "failed": self.failed, "samples": self.samples}
        for q in (50, 99):
            for key, attr in (("lat", "latency_ms"), ("late", "late_ms")):
                try:
                    out[f"{key}_p{q}_ms"] = self.percentile(q, attr)
                except InsufficientSamples:
                    out[f"{key}_p{q}_ms"] = None
        return out


def open_loop(submit, payloads, offsets):
    """Send ``payloads[i]`` at ``offsets[i]`` seconds from now.

    One thread; it sleeps (releasing the interpreter lock) until each
    request is due and never waits for an answer.  Returns
    ``(due, sent, tickets)``: absolute due and send times on
    ``time.monotonic`` and one ticket per request (``None`` when
    ``submit`` raised).
    """
    n = len(offsets)
    clock = time.monotonic
    start = clock() + 0.002
    due = start + np.asarray(offsets, dtype=float)
    sent = np.empty(n)
    tickets = [None] * n
    sleep = time.sleep
    for i in range(n):
        now = clock()
        if now < due[i]:
            sleep(due[i] - now)
            now = clock()
        sent[i] = now
        try:
            tickets[i] = submit(payloads[i])
        except Exception:  # a refused request is a failed one
            tickets[i] = None
    return due, sent, tickets


def interleave(counts: "dict[str, int]") -> "list[str]":
    """``counts[name]`` copies of each name, each name spread evenly.

    >>> interleave({"a": 3, "b": 1})
    ['a', 'a', 'b', 'a']
    """
    slots = sorted(((i + 0.5) / n, order, name)
                   for order, (name, n) in enumerate(counts.items()) for i in range(n))
    return [name for _, _, name in slots]


class Interleaved:
    """The windows of several fixed loads, measured a few at a time.

    The host's speed drifts over tens of seconds, so each load's windows
    are spread evenly over the whole run, between the search's probes,
    instead of filling one stretch of it.  ``measure_window(name, i)``
    measures window ``i`` of load ``name``.
    """

    def __init__(self, counts: "dict[str, int]", measure_window):
        self.order = interleave(counts)
        self.measure_window = measure_window
        self.done: "dict[str, list]" = {name: [] for name in counts}

    def step(self, share: float) -> None:
        """Measure the next ``share`` of the windows still to go (at least one)."""
        for _ in range(max(1, math.ceil(share * len(self.order)))):
            if self.order:
                name = self.order.pop(0)
                self.done[name].append(self.measure_window(name, len(self.done[name])))

    def finish(self) -> "dict[str, list]":
        """Measure every window still to go; each load's windows, in order."""
        self.step(1.0)
        return self.done


def rate_ladder(lowest: float, highest: float, step: float) -> np.ndarray:
    """Geometric rates ``lowest * step**i`` up to ``highest``."""
    count = int(math.floor(math.log(highest / lowest) / math.log(step) + 1e-9)) + 1
    return lowest * step ** np.arange(count)


def knee_search(passes, ladder, start: int, probes: int) -> int:
    """Rung of ``ladder`` at the knee, or -1 when no probe passed.

    An up-down staircase of ``probes`` probes from rung ``start``: up
    4 rungs after a pass, down after a failure, with the step halved
    (to at least 1) at every reversal.  It settles where a probe
    passes about half the time, so one unlucky probe moves the result by
    a rung instead of sending a bisection down the wrong half.  The knee
    is the median rung of the passing probes of the second half (of all
    passing probes when the second half has none).
    """
    rung, step, last, trail = start, 4, None, []
    for _ in range(probes):
        ok = bool(passes(float(ladder[rung])))
        trail.append((rung, ok))
        if last is not None and ok != last:
            step = max(1, step // 2)
        last = ok
        rung = min(max(rung + (step if ok else -step), 0), len(ladder) - 1)
    passed = [r for r, ok in trail[probes // 2:] if ok] or [r for r, ok in trail if ok]
    return sorted(passed)[(len(passed) - 1) // 2] if passed else -1


def rung_of(ladder, rate: float) -> int:
    """The ladder rung closest to ``rate``."""
    return int(np.argmin(np.abs(np.log(ladder / rate))))


# --------------------------------------------------------------- tracing
class Tracer:
    """Spans around calls into the program, kept in memory.

    A span is ``(id, name, start, end, parent, batch)``: ``parent`` is
    the enclosing span of the same thread (-1 at the root) and
    ``batch`` the id of that thread's root span, so every span of one
    executor call shares it.  ``wrap`` replaces a bound method on one
    instance with a timed one; ``restore`` puts the originals back.
    """

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list = []
        self.counts: "dict[str, list]" = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list = []

    def wrap(self, obj, attr: str, name: str, count=None) -> None:
        """Time every ``obj.attr(...)`` call as a span called ``name``.

        ``count(args, kwargs, result)`` optionally records one number
        per call under ``name`` (e.g. rows per batch).
        """
        original = getattr(obj, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else (-1, span_id)
            stack.append((span_id, parent[1]))
            start = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent[0], parent[1]))
            if count is not None:
                tracer.counts.setdefault(name, []).append(count(args, kwargs, result))
            return result

        setattr(obj, attr, traced)
        self._patched.append((obj, attr))

    def mark(self):
        """A point :meth:`rollback` can return to (call while idle)."""
        return len(self.spans), {name: len(v) for name, v in self.counts.items()}

    def rollback(self, mark) -> None:
        """Forget every span and count recorded since ``mark``."""
        spans, counts = mark
        del self.spans[spans:]
        for name, values in self.counts.items():
            del values[counts.get(name, 0):]

    def restore(self) -> None:
        for obj, attr in reversed(self._patched):
            delattr(obj, attr)  # uncovers the class attribute again
        self._patched.clear()

    def by_name(self, name: str) -> list:
        return [span for span in self.spans if span[1] == name]

    def durations_ms(self, name: str) -> np.ndarray:
        return np.array([(s[3] - s[2]) * 1e3 for s in self.by_name(name)])

    def self_times_ms(self, name: str) -> np.ndarray:
        """Each ``name`` span's duration minus what its children cover."""
        children: "dict[int, list]" = {}
        for span in self.spans:
            if span[4] >= 0:
                children.setdefault(span[4], []).append((span[2], span[3]))
        out = []
        for span in self.by_name(name):
            covered = 0.0
            cursor = span[2]
            for start, end in sorted(children.get(span[0], [])):
                start, end = max(start, cursor), min(end, span[3])
                if end > start:
                    covered += end - start
                    cursor = end
            out.append((span[3] - span[2] - covered) * 1e3)
        return np.array(out)

    def dump(self, path: str) -> None:
        """Write every span as one gzipped JSON line (once, at the end)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt") as handle:
            for span in sorted(self.spans, key=lambda s: s[2]):
                handle.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "batch"), span
                ))) + "\n")


def fifo_batches(n_requests: int, batch_spans, batch_rows) -> list:
    """The batch span that served each request, in submission order.

    The front end drains FIFO in one thread, so the k-th executor call
    serves the next ``batch_rows[k]`` requests in submission order.
    """
    if sum(batch_rows) != n_requests:
        raise ValueError(
            f"{n_requests} submits but {sum(batch_rows)} rows reached the executor"
        )
    served_by = []
    for k in np.argsort([span[2] for span in batch_spans], kind="stable"):
        served_by.extend([batch_spans[k]] * batch_rows[k])
    return served_by


def covered_share(window, spans) -> float:
    """Share of the ``(start, end)`` window that the union of ``spans`` covers."""
    lo, hi = window
    covered, cursor = 0.0, lo
    for span in sorted(spans, key=lambda s: s[2]):
        start, end = max(span[2], cursor), min(span[3], hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered / (hi - lo) if hi > lo else 1.0


def put_percentiles(result, name, values, unit, qs=(50, 99)):
    for q in qs:
        result.put(f"{name}.p{q}", percentile(values, q), unit, len(values))


def put_load_metrics(result, low, high) -> None:
    """The end-to-end metrics of the two fixed loads.

    The unsuffixed latencies and ``throughput_rps`` are those of the
    high load: the full walker population of a closed loop, the busier
    fixed rate of an open one.
    """
    for load in (low, high):
        for q in (50, 99):
            result.put(f"lat_p{q}_ms.{load.name}", load.percentile(q), "ms", load.samples)
    for q in (50, 99):
        result.put(f"lat_p{q}_ms", high.percentile(q), "ms", high.samples)
    result.put("throughput_rps", high.median_of("throughput"), "1/s", high.samples)
    errors = low.pooled("errors_m") + high.pooled("errors_m")
    result.put("error_m", float(np.mean(errors)), "m", len(errors))


def put_frontend_metrics(result, tracer, root, traced_loads, untraced_high):
    """The traced-run metrics every workload reports the same way.

    ``root`` names the span of one executor call; every window of the
    traced loads carries ``due``/``done`` times of its requests in
    submission order.  Reports the front end's submit time, FIFO queue
    wait, rows per batch, the generator's lateness, how much of each
    request's latency the spans cover, and the tracing overhead: the
    traced high load's median latency over ``untraced_high``'s, minus 1.
    """
    windows = [w for load in traced_loads for w in load.windows]
    submits = sorted(tracer.by_name("frontend.submit"), key=lambda s: s[2])
    rows = tracer.counts[root]
    served_by = fifo_batches(len(submits), tracer.by_name(root), rows)
    put_percentiles(result, "frontend.submit_us", tracer.durations_ms("frontend.submit") * 1e3, "us")
    put_percentiles(result, "frontend.queue_wait_ms",
                    [(b[2] - s[2]) * 1e3 for s, b in zip(submits, served_by)], "ms")
    result.put("frontend.batch_rows.mean", float(np.mean(rows)), "rows", len(rows))
    late = [ms for w in windows for ms in w.late_ms]
    result.put("loadgen.late_ms.p99", percentile(late, 99), "ms", len(late))
    requests = [r for w in windows for r in zip(w.due, w.done)]
    shares = [covered_share(r, (s, b)) for r, s, b in zip(requests, submits, served_by)]
    result.put("trace.coverage", float(np.mean(shares)), "1", len(shares))
    ratio = traced_loads[-1].percentile(50) / untraced_high.percentile(50)
    result.put("trace.overhead_frac", ratio - 1.0, "1")


def valid_load(phase) -> bool:
    """The generator kept to its schedule: late p99 within ``MAX_LATE_MS``.

    Beyond that the lateness alone would decide whether requests meet
    a latency limit, and the phase says nothing about the program.
    """
    return percentile(phase.late_ms, 99) <= MAX_LATE_MS
