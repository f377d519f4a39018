"""Open-loop Wi-Fi localization workloads: ``wifi-noble``, ``wifi-knn-workers``.

Single RSSI scans arrive as a seeded Poisson stream and are served
through ``ServingFrontend`` (batch 64, 5 ms flush deadline, ``block``
admission).  A run measures, with its ``--seconds`` split between them:

* ``low`` and ``high``: two fixed offered rates below the knee measured
  when the benchmark was defined (``METRICS.md`` gives how far below,
  and why), frozen as constants so later commits are loaded
  identically;
* the search: the rate at which p99 stays within 50 ms and the backlog
  drains (``max_rate_rps``), by a staircase over a fixed rate ladder.

The windows of the two fixed loads are spread evenly over the run,
between the search's probes (:class:`harness.Interleaved`).

Latency is timed from each request's scheduled send time to its answer.
Every answer is checked against a synchronous call of the serving path
on the same row.  See ``METRICS.md`` for every metric.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

import harness

#: Share of ``--seconds`` given to each measured part of a run.
LOW_SHARE, HIGH_SHARE, SEARCH_SHARE = 0.3, 0.2, 0.5
#: Every window holds at least this many requests, so its p99 is reportable.
MIN_REQUESTS = 1000
#: The p99 latency that ``max_rate_rps`` must meet.
LIMIT_MS = 50.0
#: Rate ladder of the max-rate search: 4% rungs, finer than its bound.
LADDER_STEP = 1.04
#: Probes of the max-rate search, and the windows each probe holds.
PROBES, PROBE_WINDOWS = 14, 3
#: The radio map is one site for every seed: ``--seed`` draws the
#: queries and their arrival times, so seeds differ in traffic only.
MAP_SEED = 0
SETUP_REPS = 3
FRONTEND = {"batch_size": 64, "deadline_ms": 5.0, "overflow": "block"}
#: OpenBLAS threads of each shard-worker process.  Unpinned, the two
#: workers' BLAS pools oversubscribe the cores and latency swings 3-10x
#: from second to second, too much for any run-to-run bound; traced
#: runs measure that defect against an unpinned pool instead
#: (``workers.unpinned_p99_ratio``).
WORKER_BLAS_THREADS = "1"
#: Rate at which the unpinned pool is compared, low enough that it keeps up.
UNPINNED_PROBE_RPS = 300.0


@dataclass(frozen=True)
class WifiSpec:
    name: str
    map_kwargs: dict
    backend: str
    params: dict
    workers: int
    low_rps: float
    high_rps: float
    #: windows of the low and the high load (each of >= MIN_REQUESTS;
    #: short ones where the rate allows, so that a burst of host stalls
    #: spoils few of them; odd, so their median is one window's value)
    windows: tuple
    #: where the max-rate staircase starts: the knee measured when the
    #: benchmark was defined, frozen like the two rates
    knee_rps: float


NOBLE = WifiSpec(
    name="wifi-noble",
    map_kwargs={"n_spots_per_building": 48, "measurements_per_spot": 10, "n_aps_per_floor": 10},
    backend="noble",
    params={"dtype": "float32"},
    workers=0,
    low_rps=8000.0,
    high_rps=20000.0,
    windows=(41, 75),
    knee_rps=44000.0,
)

KNN_WORKERS = WifiSpec(
    name="wifi-knn-workers",
    map_kwargs={"n_spots_per_building": 100, "measurements_per_spot": 30, "n_aps_per_floor": 8},
    backend="knn",
    params={"transform": {"bin": 256, "shard": 4}},
    workers=2,
    low_rps=1000.0,
    high_rps=2000.0,
    windows=(13, 21),
    knee_rps=8000.0,
)


# ----------------------------------------------------------------- inputs
def make_map(spec: WifiSpec):
    """The site's radio map and its held-out split."""
    from repro.data import generate_uji_like

    dataset = generate_uji_like(seed=MAP_SEED, **spec.map_kwargs)
    return dataset.split((0.8, 0.2), rng=MAP_SEED + 1)


def phase_stream(seed: int, phase: int, rate: float, seconds: float, pool: int):
    """Due offsets and query-row indices of one phase's arrivals: those
    due within ``seconds``, and at least ``MIN_REQUESTS``."""
    rng = np.random.default_rng([seed, phase])
    need = int(max(rate * seconds, MIN_REQUESTS) * 1.3) + 64
    gaps = rng.exponential(size=need)
    offsets = np.cumsum(gaps) / rate
    n = max(int(np.searchsorted(offsets, seconds)), MIN_REQUESTS)
    return offsets[:n], rng.integers(0, pool, size=n)


# ------------------------------------------------------------------ setup
@contextlib.contextmanager
def worker_blas_threads(threads: "str | None"):
    """Spawn worker processes with ``OPENBLAS_NUM_THREADS=threads``.

    Spawned children read the variable when they import numpy; the
    parent, whose BLAS is already loaded, keeps its threads.  ``None``
    leaves the environment as found.
    """
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    if threads is not None:
        os.environ["OPENBLAS_NUM_THREADS"] = threads
    try:
        yield
    finally:
        if before is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = before


class Served:
    """One set-up instance: store, cache, estimator, front end, pool."""

    def __init__(self, spec: WifiSpec, train, store_dir: str, tracer=None,
                 blas_threads: "str | None" = WORKER_BLAS_THREADS):
        from repro.serving import ModelCache, ModelStore, ServingFrontend

        self.store_dir = store_dir
        self.store = ModelStore(store_dir)
        cache = ModelCache(capacity=2, store=self.store)
        if tracer is not None:
            tracer.wrap(cache, "get_or_fit", "cache.get_or_fit")
        self.estimator = cache.get_or_fit(spec.backend, train, **spec.params)
        self.pool = None
        if spec.workers:
            from repro.serving import ShardWorkerPool, WorkerPoolExecutor, dataset_fingerprint

            start = time.monotonic()
            with worker_blas_threads(blas_threads):
                self.pool = ShardWorkerPool(
                    self.estimator, self.store, fingerprint=dataset_fingerprint(train),
                    n_workers=spec.workers, max_rows=FRONTEND["batch_size"],
                )
            self.workers_start_s = time.monotonic() - start
            self.frontend = ServingFrontend(
                executor=WorkerPoolExecutor(self.pool, close_pool=True), **FRONTEND
            )
        else:
            self.workers_start_s = 0.0
            self.frontend = ServingFrontend(self.estimator, **FRONTEND)

    def worker_pids(self) -> list:
        return [handle.process.pid for handle in self.pool.workers] if self.pool else []

    def close(self) -> None:
        self.frontend.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def set_up(spec: WifiSpec, train, first_row, work_dir: str, tracer=None):
    """Set up ``SETUP_REPS`` times from an empty store; keep the last.

    Returns ``(served, seconds)``: the kept instance and each set-up's
    time from the start until its first request was answered.
    """
    times = []
    served = None
    worker_starts = []
    for rep in range(SETUP_REPS):
        if served is not None:
            served.close()
        start = time.monotonic()
        served = Served(spec, train, os.path.join(work_dir, f"store-{rep}"), tracer)
        served.frontend.submit(first_row).result(timeout=120)
        times.append(time.monotonic() - start)
        worker_starts.append(served.workers_start_s)
    served.workers_start_s = _median(worker_starts)
    return served, times


# ----------------------------------------------------------------- phases
class Answers:
    """Reference answers for the query pool, and the check against them.

    The reference is a synchronous call of the serving path on the same
    rows: ``predict_batch`` of the estimator on the thread path, the
    worker pool's own ``predict`` on the worker tier.  ``atol`` is the
    largest difference an answer may show.  ``model`` holds the
    in-process ``predict_batch`` answers, so that answers of a worker
    tier that differ from the model it serves are counted (not failed).
    """

    def __init__(self, test, reference, atol: float, model=None):
        self.rows = test.rssi
        self.truth = test.coordinates
        self.reference = reference
        self.atol = atol
        model = reference if model is None else model
        self.differs_from_model = np.abs(
            reference.coordinates - model.coordinates
        ).max(axis=1) > 1e-9

    def matches(self, indices, coordinates, building, floor) -> np.ndarray:
        """Which answers equal the reference answers of their rows."""
        want = self.reference
        ok = np.all(np.abs(coordinates - want.coordinates[indices]) <= self.atol, axis=1)
        for got, expected in ((building, want.building), (floor, want.floor)):
            if expected is not None:
                ok &= False if got is None else got == expected[indices]
        return ok


def reference_answers(spec: WifiSpec, served: Served, test) -> Answers:
    """The synchronous answers every served answer is checked against."""
    model = served.estimator.predict_batch(test.rssi)
    if served.pool is None:
        # the thread path answers a row identically in any batch (checked
        # when the benchmark was defined), so one call is the reference
        return Answers(test, model, atol=1e-9)
    from repro.serving.registry import concatenate

    batch = FRONTEND["batch_size"]
    reference = concatenate([
        served.pool.predict(test.rssi[start:start + batch])
        for start in range(0, len(test.rssi), batch)
    ])
    # the pool answers a lone row through another scan shape than a
    # batch, which moves coordinates by up to ~2e-5 m; a wrong neighbour
    # or a crossed ticket moves them by metres
    return Answers(test, reference, atol=1e-4, model=model)


def _column(predictions, name: str):
    """One label of every single-row prediction (None if the backend has none)."""
    if not predictions or getattr(predictions[0], name) is None:
        return None
    return np.array([getattr(p, name)[0] for p in predictions])


def run_phase(frontend, answers: Answers, name: str, offsets, indices):
    """Drive one open-loop window and collect its timings and errors."""
    phase = harness.Phase(name)
    rows = answers.rows
    due, sent, tickets = harness.open_loop(
        frontend.submit, [rows[i] for i in indices], offsets
    )
    # wait for the last answer before reading any: checking answers while
    # the front end still serves would compete with it for the GIL
    for ticket in reversed(tickets):
        if ticket is not None:
            ticket.exception(timeout=120)
            break
    answered = [i for i, t in enumerate(tickets)
                if t is not None and t.exception(timeout=120) is None]
    predictions = [tickets[i].result() for i in answered]
    coordinates = np.array([p.coordinates[0] for p in predictions]).reshape(-1, 2)
    labels = [_column(predictions, label) for label in ("building", "floor")]
    answered = np.array(answered, dtype=int)
    rows_of = np.asarray(indices)[answered]
    ok = answers.matches(rows_of, coordinates, *labels)
    good = answered[ok]
    phase.attempted = len(tickets)
    phase.failed = len(tickets) - len(good)
    phase.model_mismatches = int(answers.differs_from_model[rows_of[ok]].sum())
    latency_s = np.array([tickets[i].latency_s for i in good])
    wait = sent[good] - due[good]
    phase.late_ms = list(wait * 1e3)
    phase.latency_ms = list((wait + latency_s) * 1e3)
    done = sent[good] + latency_s
    last_done = max(due[-1], done.max() if len(done) else due[-1])
    phase.errors_m = list(np.linalg.norm(coordinates[ok] - answers.truth[rows_of[ok]], axis=1))
    phase.due, phase.done = due[good], done
    phase.sent_rps = (len(sent) - 1) / max(sent[-1] - sent[0], 1e-9)
    start = due[0] - offsets[0]
    phase.seconds = float(due[-1] - start)
    phase.throughput = len(good) / max(last_done - start, 1e-9)
    # a growing backlog shows as a drain after the last arrival longer
    # than the latency limit itself
    phase.drain_ms = (last_done - due[-1]) * 1e3
    return phase


# -------------------------------------------------------------------- run
def measure_window(frontend, answers, spec, seed, number, window, name, rate, seconds,
                   tracer=None, retries=2):
    """Window ``window`` of load ``number``: ``rate`` for about ``seconds``.

    A window whose generator ran late (see :func:`harness.valid_load`)
    is void; it is re-run at most ``retries`` times, then the whole
    measurement is void (:class:`harness.InvalidLoad`).
    """
    for attempt in range(retries + 1):
        mark = tracer.mark() if tracer is not None else None
        offsets, indices = phase_stream(
            seed, number * 100 + window, rate, seconds, len(answers.rows)
        )
        phase = run_phase(frontend, answers, name, offsets, indices)
        if harness.valid_load(phase):
            return phase
        if tracer is not None:
            tracer.rollback(mark)
    raise harness.InvalidLoad(
        f"{spec.name}/{name} at {rate:g}/s: the load generator ran "
        f"{harness.percentile(phase.late_ms, 99):.1f} ms late at p99"
    )


def measure(frontend, answers, spec, seed, number, name, rate, seconds, windows,
            tracer=None, retries=2):
    """``windows`` consecutive windows at ``rate`` filling about ``seconds``."""
    return harness.Windows(name, rate, [
        measure_window(frontend, answers, spec, seed, number, window, name, rate,
                       seconds / windows, tracer, retries)
        for window in range(windows)
    ])


def _instrument(tracer: harness.Tracer, served: Served) -> str:
    """Wrap the serving path's public calls; returns the batch root span."""
    rows = lambda args, kwargs, result: len(args[0])  # noqa: E731
    tracer.wrap(served.frontend, "submit", "frontend.submit")
    if served.pool is None:
        tracer.wrap(served.estimator, "predict_batch", "registry.predict_batch", rows)
        return "registry.predict_batch"
    tracer.wrap(served.pool, "predict", "workers.predict", rows)
    tracer.wrap(served.pool, "query", "workers.query")
    tracer.wrap(served.pool.model, "predict_from_neighbors", "knn.post")
    return "workers.predict"


def run(spec: WifiSpec, seed: int, seconds: float, trace: bool, work_dir: str):
    result = harness.Result()
    train, test = make_map(spec)
    tracer = harness.Tracer() if trace else None
    served, setup_times = set_up(spec, train, test.rssi[0], work_dir, tracer)
    result.attempted += SETUP_REPS
    result.put("setup_s", _median(setup_times), "s", len(setup_times))
    result.report["setup_s"] = setup_times
    if spec.workers:
        result.report["worker_openblas_threads"] = WORKER_BLAS_THREADS
    measured = []
    try:
        answers = reference_answers(spec, served, test)

        # input stream number, rate, share of ``seconds`` and windows of each fixed load
        fixed_loads = {
            "low": (1, spec.low_rps, LOW_SHARE, spec.windows[0]),
            "high": (2, spec.high_rps, HIGH_SHARE, spec.windows[1]),
        }

        def window(name, index, tracer=None):
            number, rate, share, count = fixed_loads[name]
            return measure_window(served.frontend, answers, spec, seed, number, index, name,
                                  rate, share * seconds / count, tracer)

        def load(name, tracer=None):
            out = harness.Windows(name, fixed_loads[name][1], [
                window(name, index, tracer) for index in range(fixed_loads[name][3])
            ])
            measured.append(out)
            return out

        if trace:
            untraced_high = load("high")  # the reference for the tracing overhead
            stats_before = served.frontend.stats()
            respawns_before = served.pool.respawns if served.pool else 0
            root = _instrument(tracer, served)
            traced = [load("low", tracer), load("high", tracer)]
            tracer.restore()
            _layer_metrics(result, tracer, root, traced, untraced_high,
                           served.frontend.stats(), stats_before,
                           (served.pool.respawns if served.pool else 0) - respawns_before)
            result.put("workers.start_s", served.workers_start_s, "s")
            result.put("store.artifact_bytes", harness.dir_bytes(served.store_dir), "bytes")
            if served.pool is not None:
                result.put("workers.unpinned_p99_ratio", _unpinned_p99_ratio(
                    spec, train, answers, seed, work_dir, served, measured), "1")
        else:
            fixed = harness.Interleaved(
                {name: load[3] for name, load in fixed_loads.items()}, window
            )
            result.put("max_rate_rps", _max_rate(spec, served, answers, seed, seconds,
                                                 measured, result.report, fixed), "1/s")
            done = fixed.finish()
            low, high = (harness.Windows(name, fixed_loads[name][1], done[name])
                         for name in ("low", "high"))
            measured.extend((low, high))
            harness.put_load_metrics(result, low, high)
            result.put("rss_peak_mb", harness.rss_peak_mb(served.worker_pids()), "MB")
        if served.pool is not None:
            # a respawned worker starts with OpenBLAS's default threads
            result.report["worker_respawns"] = served.pool.respawns
            if served.pool.respawns and not trace:
                raise harness.InvalidLoad(
                    f"{spec.name}: {served.pool.respawns} shard worker(s) respawned "
                    f"during the run, without OPENBLAS_NUM_THREADS={WORKER_BLAS_THREADS}"
                )
        for m in measured:
            result.count(m)
        mismatched = sum(w.model_mismatches for m in measured for w in m.windows)
        served_ok = sum(m.attempted - m.failed for m in measured)
        result.put("workers.model_mismatch_frac",
                   mismatched / served_ok if spec.workers and served_ok else 0.0, "1")
        result.report["loads"] = [m.stats() for m in measured if m.name != "probe"]
    finally:
        served.close()
    if tracer is not None:
        result.tracer = tracer
    return result


def _unpinned_p99_ratio(spec, train, answers, seed, work_dir, pinned, measured) -> float:
    """p99 of a pool whose workers keep the default BLAS threads over the
    pinned pool's, both serving the same ``UNPINNED_PROBE_RPS`` stream."""
    offsets, indices = phase_stream(seed, 3, UNPINNED_PROBE_RPS, 0.0, len(answers.rows))
    unpinned = Served(spec, train, os.path.join(work_dir, "unpinned"), blas_threads=None)
    try:
        compared = [
            harness.Windows(name, UNPINNED_PROBE_RPS,
                            [run_phase(served.frontend, answers, name, offsets, indices)])
            for name, served in (("unpinned", unpinned), ("pinned", pinned))
        ]
    finally:
        unpinned.close()
    measured.extend(compared)
    return compared[0].percentile(99) / compared[1].percentile(99)


def _max_rate(spec, served, answers, seed, seconds, measured, report, fixed) -> float:
    """The staircase search of the rate ladder (see :func:`harness.knee_search`).

    Before each probe, ``fixed`` measures its share of the fixed loads.
    """
    # a probe holds >= MIN_REQUESTS, so the bottom rung bounds its time
    ladder = harness.rate_ladder(spec.knee_rps / 2, spec.knee_rps * 8, LADDER_STEP)
    probe_s = SEARCH_SHARE * seconds / PROBES
    probes = []
    tried = itertools.count()

    def passes(rate):
        number = next(tried)
        fixed.step(1.0 / (PROBES - number))
        try:
            probe = measure(served.frontend, answers, spec, seed, 10 + number, "probe",
                            rate, probe_s, PROBE_WINDOWS, retries=0)
        except harness.InvalidLoad:
            return False  # the generator fell behind: not within the limit
        probe.passed = (
            probe.failed == 0
            and probe.percentile(99) <= LIMIT_MS
            and probe.median_of("drain_ms") <= LIMIT_MS
        )
        probes.append(probe)
        measured.append(probe)
        return probe.passed

    knee = harness.knee_search(passes, ladder, harness.rung_of(ladder, spec.knee_rps), PROBES)
    report["probes"] = [dict(p.stats(), passed=p.passed) for p in probes]
    return float(ladder[knee]) if knee >= 0 else 0.0


def _median(values) -> float:
    return float(np.median(values))


def _layer_metrics(result, tracer, root, traced_loads, untraced_high, stats, before,
                   respawns):
    """Per-layer metrics of the traced loads (see METRICS.md)."""
    harness.put_frontend_metrics(result, tracer, root, traced_loads, untraced_high)
    result.put("frontend.batches", stats.batches - before.batches, "count")
    result.put("frontend.shed", stats.shed - before.shed, "count")
    result.put("frontend.timeouts", stats.timeouts - before.timeouts, "count")
    wall = sum(w.seconds for load in traced_loads for w in load.windows)
    busy = float(np.sum(tracer.durations_ms(root))) / 1e3 / wall
    if root == "registry.predict_batch":
        harness.put_percentiles(result, "registry.predict_batch_ms", tracer.durations_ms(root), "ms")
        result.put("registry.busy_frac", busy, "1")
    else:
        harness.put_percentiles(result, "workers.predict_ms", tracer.durations_ms(root), "ms")
        harness.put_percentiles(result, "workers.query_ms", tracer.durations_ms("workers.query"), "ms")
        result.put("workers.busy_frac", busy, "1")
        result.put("workers.respawns", respawns, "count")
        harness.put_percentiles(result, "pipeline.featurize_ms", tracer.self_times_ms(root), "ms", (50,))
        harness.put_percentiles(result, "knn.post_ms", tracer.durations_ms("knn.post"), "ms", (50,))
    fits = tracer.durations_ms("cache.get_or_fit") / 1e3
    result.put("cache.get_or_fit_s", _median(fits), "s", len(fits))
    result.put("loadgen.offered_rps", traced_loads[-1].median_of("sent_rps"), "1/s")
