"""Closed-loop tracking workload: ``track-particle``.

Simulated walkers on the court route graph each keep exactly one
96-sample IMU tick in flight, as a device waiting for its fix would.
They are served by ``StreamingParticleTracker`` (200 particles) behind
``TrackingFrontend``, with sessions checkpointed to a ``ModelStore``
every ``CHECKPOINT_EVERY`` ticks.  A walker's walk is ``CYCLE`` ticks
long; it then ends its session and walks it again (same user, same
session seed, so the same answers).  When every walker has made
``RESTART_AT`` ticks of a cycle, the manager is dropped without
``close()`` — a crash — and a fresh one warm-restores each session on
its next tick.

A run measures a ``low`` load of ``LOW_WALKERS`` walkers, a ``high``
load of ``HIGH_WALKERS``, and ``max_rate_rps``: the median tick rate of
the passing probes at the walker count where p99 stays within 50 ms,
found by a staircase over ``MIN_PROBE_WALKERS``..``HIGH_WALKERS``.  The
windows of the two loads are spread evenly over the run, between the
probes (:class:`harness.Interleaved`).  Every served tick must equal the
offline ``solo_trajectory`` of its walker bitwise, across the restarts
too.
See ``METRICS.md`` for every metric.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

import harness

LOW_WALKERS, HIGH_WALKERS = 8, 32
SAMPLES_PER_TICK = 96
N_PARTICLES = 200
CYCLE, RESTART_AT, CHECKPOINT_EVERY = 32, 16, 8
LOW_SHARE, HIGH_SHARE, SEARCH_SHARE = 0.3, 0.2, 0.5
#: Every window holds at least this many ticks, so its p99 is reportable.
MIN_TICKS = 1000
#: Windows per fixed load; probes of the max-rate search, and its start.
LOW_WINDOWS, HIGH_WINDOWS, PROBES, KNEE_WALKERS = 3, 7, 6, 10
#: Fewest walkers the search probes: a probe holds >= MIN_TICKS ticks,
#: and fewer walkers tick too slowly to fill one in a few seconds.
MIN_PROBE_WALKERS = 4
#: p99 tick latency that max_rate_rps must meet.
LIMIT_MS = 50.0
SETUP_REPS = 5
FRONTEND = {"batch_size": HIGH_WALKERS, "deadline_ms": 5.0, "overflow": "block"}


def user(walker: int) -> str:
    return f"walker-{walker}"


class Walks:
    """Every walker's IMU ticks, start pose, ground truth and oracle answers."""

    def __init__(self, seed: int):
        from repro.data.imu import CampusWalkSimulator, court_route_graph
        from repro.geometry import route_graph_segments

        simulator = CampusWalkSimulator(samples_per_segment=SAMPLES_PER_TICK)
        walks = [
            simulator.record_walk(CYCLE + 1, rng=np.random.default_rng([seed, walker]))
            for walker in range(HIGH_WALKERS)
        ]
        self.seed = seed
        self.segments = [walk.segments for walk in walks]
        self.starts = [(walk.references[0], float(walk.headings[0])) for walk in walks]
        self.truth = [walk.references[1:] for walk in walks]
        route = court_route_graph()
        self.route_segments = route_graph_segments(route.nodes, route.adjacency)

    def engine(self):
        from repro.serving.sessions import StreamingParticleTracker

        return StreamingParticleTracker(self.route_segments, n_particles=N_PARTICLES)

    def oracle(self, engine) -> list:
        """Each walker's answers, stepped alone (the bitwise reference)."""
        from repro.serving.sessions import SessionManager, solo_trajectory

        manager = SessionManager(engine, seed=self.seed)  # only for session seeds
        return [
            solo_trajectory(engine, self.segments[w], *self.starts[w],
                            seed=manager.session_seed(user(w)))
            for w in range(HIGH_WALKERS)
        ]

    def resolve_start(self, user_id, scan):
        return self.starts[int(user_id.rsplit("-", 1)[1])]


class Service:
    """A store, a session manager over it, and the front end serving it."""

    def __init__(self, walks: Walks, engine, store_dir: str, tracer=None):
        from repro.core.persistence import ModelStore

        self.walks, self.engine, self.tracer = walks, engine, tracer
        self.store_dir = store_dir
        self.store = ModelStore(store_dir)
        self.restarts = 0
        self.totals = dict.fromkeys(("checkpoints", "restored", "batches", "shed", "timeouts"), 0)
        self.store_bytes = 0
        self._start()

    def _start(self) -> None:
        from repro.serving.sessions import SessionManager, TrackingFrontend

        self.manager = SessionManager(
            self.engine, store=self.store, checkpoint_every=CHECKPOINT_EVERY,
            seed=self.walks.seed, start_resolver=self.walks.resolve_start,
        )
        self.frontend = TrackingFrontend(
            self.manager, samples_per_tick=SAMPLES_PER_TICK, **FRONTEND
        )
        if self.tracer is not None:
            manager = self.manager
            self.tracer.wrap(self.frontend, "submit", "frontend.submit")
            self.tracer.wrap(manager, "step_batch", "sessions.step_batch",
                             lambda args, kwargs, result: len(args[0]))
            self.tracer.wrap(manager, "ensure_session", "sessions.ensure_session",
                             lambda args, kwargs, result: (id(manager), manager.n_restored))

    def _stop(self) -> None:
        sessions = self.manager.stats()
        self.frontend.close()
        frontend = self.frontend.stats()
        for key, value in (("checkpoints", sessions.checkpoints),
                           ("restored", sessions.restored),
                           ("batches", frontend.batches), ("shed", frontend.shed),
                           ("timeouts", frontend.timeouts)):
            self.totals[key] += value

    def crash_and_restart(self) -> None:
        """Drop the manager without its close-time checkpoint; start afresh."""
        self.manager.close = lambda: None  # a crashed process flushes nothing
        self._stop()
        self.restarts += 1
        self._start()

    def close(self) -> None:
        self.store_bytes = harness.dir_bytes(self.store_dir)
        self._stop()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def closed_loop(service: Service, oracle, walkers: int, seconds: float,
                min_ticks: int = 0, name: str = "closed"):
    """Drive ``walkers`` walkers, one tick in flight each, for ``seconds``.

    The run stops taking new ticks once ``seconds`` have passed and at
    least ``min_ticks`` were answered, then drains.
    """
    walks = service.walks
    phase = harness.Phase(name)
    phase.errors_m, phase.resolve_ms, requests = [], [], []
    answered_at = [None] * walkers
    position = [0] * walkers
    restarted = [False] * walkers
    in_flight = {}
    clock = time.monotonic
    start = clock()
    done = 0
    while True:
        stopping = clock() - start >= seconds and done >= min_ticks
        if not stopping:
            for w in range(walkers):
                if w in in_flight or (position[w] == RESTART_AT and not restarted[w]):
                    continue
                sent = clock()
                ticket = service.frontend.submit(user(w), imu=walks.segments[w][position[w]])
                in_flight[w] = (ticket, position[w], sent, clock() - sent)
                if answered_at[w] is not None:
                    # the generator's own turnaround: answer to next send
                    phase.late_ms.append((sent - answered_at[w]) * 1e3)
        if not in_flight:
            if stopping:
                break
            # every walker waits at RESTART_AT: crash and restart the manager
            service.crash_and_restart()
            restarted = [True] * walkers
            answered_at = [None] * walkers  # the wait for the restart is not turnaround
            continue
        oldest = min(in_flight, key=lambda w: in_flight[w][2])
        in_flight[oldest][0].exception(timeout=120)
        woke = clock()
        for w in [w for w, entry in in_flight.items() if entry[0].done]:
            ticket, k, sent, submit_s = in_flight.pop(w)
            phase.attempted += 1
            error = ticket.exception()
            answer = None if error is not None else ticket.result().coordinates[0]
            if answer is None or not np.array_equal(answer, oracle[w][k]):
                phase.failed += 1
            else:
                done += 1
                answered = sent + submit_s + ticket.latency_s
                answered_at[w] = answered
                requests.append((sent, answered))
                phase.latency_ms.append((answered - sent) * 1e3)
                phase.resolve_ms.append((woke - answered) * 1e3)
                phase.errors_m.append(float(np.linalg.norm(answer - walks.truth[w][k])))
            position[w] = k + 1
            if position[w] == RESTART_AT + 1:
                restarted[w] = False
            if position[w] == CYCLE:
                service.frontend.end_session(user(w))
                position[w] = 0
    phase.seconds = clock() - start
    phase.throughput = done / phase.seconds
    requests.sort()
    phase.due = [sent for sent, _ in requests]  # a closed loop sends when it is due
    phase.done = [answered for _, answered in requests]
    return phase


def set_up(walks: Walks, work_dir: str):
    """Set up ``SETUP_REPS`` times; keep the last engine.

    Each set-up builds the engine, a store, a manager and a front end,
    and ends when the first tick is answered.
    """
    times = []
    for rep in range(SETUP_REPS):
        start = time.monotonic()
        engine = walks.engine()
        service = Service(walks, engine, os.path.join(work_dir, f"setup-{rep}"))
        service.frontend.submit(user(0), imu=walks.segments[0][0]).result(timeout=120)
        times.append(time.monotonic() - start)
        service.close()
    return engine, times


def run(seed: int, seconds: float, trace: bool, work_dir: str):
    result = harness.Result()
    walks = Walks(seed)
    engine, setup_times = set_up(walks, work_dir)
    result.attempted += SETUP_REPS
    result.put("setup_s", float(np.median(setup_times)), "s", len(setup_times))
    result.report["setup_s"] = setup_times
    oracle = walks.oracle(engine)
    counter = iter(range(10**6))

    def window(walkers, seconds, name, tracer=None):
        """A fresh closed loop of at least ``MIN_TICKS`` ticks."""
        store = os.path.join(work_dir, f"run-{next(counter)}")
        service = Service(walks, engine, store, tracer)
        try:
            phase = closed_loop(service, oracle, walkers, seconds, MIN_TICKS, name)
        finally:
            service.close()
        phase.service = service
        return phase

    def windows(walkers, name, phases):
        out = harness.Windows(name, float(walkers), phases)
        result.count(out)
        return out

    # walkers, share of ``seconds`` and windows of each fixed load
    fixed_loads = {"low": (LOW_WALKERS, LOW_SHARE, LOW_WINDOWS),
                   "high": (HIGH_WALKERS, HIGH_SHARE, HIGH_WINDOWS)}

    def fixed_window(name, tracer=None):
        walkers, share, count = fixed_loads[name]
        return window(walkers, share * seconds / count, name, tracer)

    def fixed(name, tracer=None):
        return windows(fixed_loads[name][0], name,
                       [fixed_window(name, tracer) for _ in range(fixed_loads[name][2])])

    if trace:
        untraced_high = fixed("high")  # the reference for the tracing overhead
        tracer = harness.Tracer()
        tracer.wrap(engine, "step_many", "tracking.step_many",
                    lambda args, kwargs, result: len(args[0]))
        traced = [fixed("low", tracer), fixed("high", tracer)]
        tracer.restore()
        _layer_metrics(result, tracer, traced, untraced_high)
        result.tracer = tracer
        loads = [untraced_high] + traced
    else:
        interleaved = harness.Interleaved(
            {name: load[2] for name, load in fixed_loads.items()},
            lambda name, _: fixed_window(name),
        )
        ladder = np.arange(MIN_PROBE_WALKERS, HIGH_WALKERS + 1)
        probe_s = SEARCH_SHARE * seconds / PROBES
        probes = []

        def passes(walkers):
            interleaved.step(1.0 / (PROBES - len(probes)))
            walkers = int(walkers)
            probe = windows(walkers, "probe", [window(walkers, probe_s, "probe")])
            probe.passed = probe.failed == 0 and probe.percentile(99) <= LIMIT_MS
            probes.append(probe)
            return probe.passed

        knee = harness.knee_search(passes, ladder, KNEE_WALKERS - MIN_PROBE_WALKERS, PROBES)
        at_knee = [p for p in probes if p.passed and knee >= 0 and p.load == ladder[knee]]
        result.put("max_rate_rps", float(np.median([p.windows[0].throughput for p in at_knee]))
                   if at_knee else 0.0, "1/s")
        result.report["probes"] = [
            dict(p.stats(), throughput=p.windows[0].throughput, passed=p.passed) for p in probes
        ]
        done = interleaved.finish()
        loads = [windows(fixed_loads[name][0], name, done[name]) for name in ("low", "high")]
        harness.put_load_metrics(result, *loads)
        result.put("rss_peak_mb", harness.rss_peak_mb(), "MB")
    result.report["loads"] = [
        dict(m.stats(), throughput=m.median_of("throughput"),
             restarts=sum(w.service.restarts for w in m.windows))
        for m in loads
    ]
    return result


def _layer_metrics(result, tracer, traced_loads, untraced_high):
    """Per-layer metrics of the traced loads (see METRICS.md)."""
    root = "sessions.step_batch"
    harness.put_frontend_metrics(result, tracer, root, traced_loads, untraced_high)
    traced = [window for load in traced_loads for window in load.windows]
    resolve = [ms for w in traced for ms in w.resolve_ms]
    result.put("frontend.resolve_ms.p99", harness.percentile(resolve, 99), "ms", len(resolve))
    for key in ("batches", "shed", "timeouts"):
        result.put(f"frontend.{key}", sum(w.service.totals[key] for w in traced), "count")
    harness.put_percentiles(result, "sessions.step_batch_ms", tracer.durations_ms(root), "ms",
                            (50, 90))
    waves = tracer.counts["tracking.step_many"]
    result.put("sessions.wave_rows.mean", float(np.mean(waves)), "rows", len(waves))
    harness.put_percentiles(result, "sessions.overhead_ms", tracer.self_times_ms(root), "ms", (50,))
    restores, last = [], {}
    for span, (manager, restored) in zip(tracer.by_name("sessions.ensure_session"),
                                         tracer.counts["sessions.ensure_session"]):
        if restored > last.get(manager, 0):
            restores.append((span[3] - span[2]) * 1e3)
        last[manager] = restored
    harness.put_percentiles(result, "sessions.restore_ms", restores, "ms", (90,))
    for key in ("checkpoints", "restored"):
        result.put(f"sessions.{key}", sum(w.service.totals[key] for w in traced), "count")
    harness.put_percentiles(result, "tracking.step_many_ms",
                            tracer.durations_ms("tracking.step_many"), "ms", (50, 90))
    result.put("store.artifact_bytes", traced[-1].service.store_bytes, "bytes")
    result.put("loadgen.offered_rps", traced_loads[-1].median_of("throughput"), "1/s")
