"""Session-parity properties of the streaming tracking tier, pinned.

Every test drives a *manual* :class:`TrackingFrontend` (``start=False``)
or a bare :class:`SessionManager` with an injected fake clock — no
worker thread, zero ``time.sleep``, fully deterministic under any
scheduler (the PR 4 deadline-property idiom applied to stateful
serving).

The core property (seeded, randomized sweeps): every tick served
through the batched-across-users path is **bitwise** equal to running
that session alone through the offline tracker oracle
(:func:`solo_trajectory`), under

* interleaved arrival orders across users,
* users dropping out mid-stream (their absence must not perturb the
  survivors' batch composition results),
* mid-stream idle-TTL eviction with warm restore from the checkpoint
  store (the evicted track continues, still bitwise on-oracle).
"""

import numpy as np
import pytest

from repro.core.persistence import ModelStore
from repro.data.imu import CampusWalkSimulator, court_route_graph
from repro.geometry.segments import route_graph_segments
from repro.serving.sessions import (
    SessionManager,
    StreamingParticleTracker,
    StreamingPDRTracker,
    TrackingFrontend,
    solo_trajectory,
)


class FakeClock:
    """Injectable monotonic clock, advanced explicitly by the test."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def walk():
    sim = CampusWalkSimulator(samples_per_segment=64)
    return sim.record_session(n_walks=1, references_per_walk=24, rng=404)[0]


@pytest.fixture(scope="module")
def route_segs():
    route = court_route_graph()
    return route_graph_segments(route.nodes, route.adjacency)


def _streams(walk, users: int, ticks: int):
    """User u's tick stream: the walk with a u-segment head start."""
    return [
        [walk.segments[u + k] for k in range(ticks)] for u in range(users)
    ]


def _drain(frontend, clock, step_s: float = 0.01, max_steps: int = 10_000):
    """Pump until the queue is empty, advancing the fake clock."""
    for _ in range(max_steps):
        while frontend.pump() > 0:
            pass
        if not frontend.stats().pending:
            return
        clock.advance(step_s)
    raise AssertionError("frontend did not drain")


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_batched_interleaved_arrivals_match_solo_oracle(walk, seed):
    """Random interleavings + mid-stream dropouts, bitwise on-oracle.

    Users submit their ticks in a random global interleaving (per-user
    order preserved — IMU streams are sequential by nature); a random
    subset of users stops submitting partway.  Whatever batches the
    deadline pump forms, every answered tick must be bitwise equal to
    the user's solo offline trajectory.
    """
    rng = np.random.default_rng(seed)
    users = int(rng.integers(3, 7))
    ticks = int(rng.integers(4, 11))
    streams = _streams(walk, users, ticks)
    dropped_after = {
        u: (int(rng.integers(1, ticks)) if rng.random() < 0.3 else ticks)
        for u in range(users)
    }

    clock = FakeClock()
    engine = StreamingPDRTracker()
    manager = SessionManager(engine, clock=clock, seed=seed)
    for u in range(users):
        manager.start_session(
            u, walk.references[u], float(walk.headings[u])
        )
    frontend = TrackingFrontend(
        manager,
        batch_size=int(rng.integers(2, 6)),
        deadline_ms=20.0,
        clock=clock,
        start=False,
    )

    # random interleaving of (user, tick) arrivals, per-user order kept
    arrivals = [
        u for u in range(users) for _ in range(dropped_after[u])
    ]
    rng.shuffle(arrivals)
    next_tick = {u: 0 for u in range(users)}
    tickets = {u: [] for u in range(users)}
    for u in arrivals:
        k = next_tick[u]
        next_tick[u] = k + 1
        tickets[u].append(frontend.submit(u, imu=streams[u][k]))
        if rng.random() < 0.4:
            clock.advance(float(rng.uniform(0.0, 0.03)))
            while frontend.pump() > 0:
                pass
    _drain(frontend, clock)

    for u in range(users):
        n = dropped_after[u]
        got = np.array(
            [ticket.result(0.0).coordinates[0] for ticket in tickets[u]]
        )
        oracle = solo_trajectory(
            engine,
            streams[u][:n],
            walk.references[u],
            float(walk.headings[u]),
            seed=manager.session_seed(u),
        )
        assert got.shape == (n, 2)
        assert np.array_equal(got, oracle), f"user {u} diverged from solo"


@pytest.mark.parametrize("seed", [3, 11])
def test_particle_sessions_batched_match_solo_oracle(walk, route_segs, seed):
    """The stochastic engine holds the same bitwise property: each
    session owns its RNG stream, so batch composition cannot leak
    randomness across users."""
    rng = np.random.default_rng(seed)
    users, ticks = 4, 6
    streams = _streams(walk, users, ticks)
    clock = FakeClock()
    engine = StreamingParticleTracker(route_segs, n_particles=40)
    manager = SessionManager(engine, clock=clock, seed=seed)
    for u in range(users):
        manager.start_session(u, walk.references[u], float(walk.headings[u]))
    frontend = TrackingFrontend(
        manager, batch_size=3, deadline_ms=10.0, clock=clock, start=False
    )
    arrivals = [u for u in range(users) for _ in range(ticks)]
    rng.shuffle(arrivals)
    next_tick = {u: 0 for u in range(users)}
    tickets = {u: [] for u in range(users)}
    for u in arrivals:
        k = next_tick[u]
        next_tick[u] = k + 1
        tickets[u].append(frontend.submit(u, imu=streams[u][k]))
    _drain(frontend, clock)
    for u in range(users):
        got = np.array(
            [ticket.result(0.0).coordinates[0] for ticket in tickets[u]]
        )
        oracle = solo_trajectory(
            engine,
            streams[u],
            walk.references[u],
            float(walk.headings[u]),
            seed=manager.session_seed(u),
        )
        assert np.array_equal(got, oracle), f"user {u} diverged from solo"


def test_mid_stream_eviction_then_warm_restore_stays_on_oracle(
    walk, tmp_path
):
    """Idle-TTL eviction mid-stream is invisible to the trajectory.

    One user goes idle past the TTL and is evicted (checkpoint + drop)
    by the sweep that runs after another user's tick; when its stream
    resumes, the manager warm-restores from the store and the full
    served trajectory is still bitwise equal to the uninterrupted solo
    oracle.
    """
    users, ticks = 3, 8
    streams = _streams(walk, users, ticks)
    clock = FakeClock()
    engine = StreamingPDRTracker()
    manager = SessionManager(
        engine,
        store=ModelStore(tmp_path),
        idle_ttl_s=5.0,
        clock=clock,
        seed=21,
    )
    for u in range(users):
        manager.start_session(u, walk.references[u], float(walk.headings[u]))

    served = {u: [] for u in range(users)}
    idle_user = 1

    def tick(user):
        served[user].append(
            manager.step(user, streams[user][len(served[user])])
        )

    # phase 1: everyone streams
    for _ in range(3):
        for u in range(users):
            tick(u)
        clock.advance(2.0)
    # phase 2: the idle user stops; the others' ticks run the TTL sweep
    for _ in range(3):
        for u in range(users):
            if u != idle_user:
                tick(u)
        clock.advance(2.0)
    assert idle_user not in manager.active_users()
    assert manager.stats().evicted == 1

    # phase 3: the stream resumes; the first tick warm-restores
    for u in range(users):
        while len(served[u]) < ticks:
            tick(u)
    assert manager.stats().restored == 1

    for u in range(users):
        got = np.array(served[u])
        oracle = solo_trajectory(
            engine,
            streams[u],
            walk.references[u],
            float(walk.headings[u]),
            seed=manager.session_seed(u),
        )
        assert np.array_equal(got, oracle), f"user {u} diverged after evict"


def test_eviction_is_deterministic_under_fake_clock(walk, tmp_path):
    """TTL semantics pinned: idle strictly past the TTL evicts, exactly
    at the TTL does not (``>`` not ``>=``), and disabled TTL never
    evicts."""
    engine = StreamingPDRTracker()
    clock = FakeClock()
    manager = SessionManager(
        engine,
        store=ModelStore(tmp_path),
        idle_ttl_s=10.0,
        clock=clock,
        seed=0,
    )
    manager.start_session("a", walk.references[0], float(walk.headings[0]))
    manager.step("a", walk.segments[0])
    clock.advance(10.0)
    assert manager.evict_idle() == []  # exactly TTL: still live
    clock.advance(0.5)
    assert manager.evict_idle() == ["a"]
    assert manager.stats().active == 0

    unbounded = SessionManager(engine, clock=clock, seed=0)
    unbounded.start_session("b", walk.references[0], 0.0)
    clock.advance(1e9)
    assert unbounded.evict_idle() == []


def test_wave_schedule_preserves_per_user_order_in_one_batch(walk):
    """Two ticks of one user inside a single batch are applied in
    submission order (wave k = each user's k-th tick), interleaved with
    other users — the across-users-not-across-time batching contract."""
    users, ticks = 3, 4
    streams = _streams(walk, users, ticks)
    engine = StreamingPDRTracker()
    manager = SessionManager(engine, seed=5)
    for u in range(users):
        manager.start_session(u, walk.references[u], float(walk.headings[u]))
    # one giant batch holding every user's full stream, interleaved
    items = [
        (u, streams[u][k]) for k in range(ticks) for u in range(users)
    ]
    out = manager.step_batch(items)
    for u in range(users):
        got = np.array([out[k * users + u] for k in range(ticks)])
        oracle = solo_trajectory(
            engine,
            streams[u],
            walk.references[u],
            float(walk.headings[u]),
            seed=manager.session_seed(u),
        )
        assert np.array_equal(got, oracle)


def test_mixed_segment_lengths_in_one_wave_rejected(walk):
    engine = StreamingPDRTracker()
    manager = SessionManager(engine, seed=5)
    manager.start_session("a", walk.references[0], 0.0)
    manager.start_session("b", walk.references[1], 0.0)
    with pytest.raises(ValueError, match="share one segment"):
        manager.step_batch(
            [("a", walk.segments[0]), ("b", walk.segments[1][:32])]
        )


def test_particle_wave_stacks_one_scan_per_step_ordinal(
    walk, route_segs, monkeypatch
):
    """One ``step_many`` wave over sessions that fire different numbers
    of steps at different sample indices, with mixed carried-tail
    lengths, equals each session stepped alone — and the map scan runs
    once per step ordinal (the most steps any session made), not once
    per distinct firing sample index."""
    import repro.serving.sessions as sessions_module

    stream = np.concatenate(list(walk.segments))
    chunk_len = 120
    # per session: prefix chunk lengths (tail 0, 1 or 2 samples) and
    # where in the walk its batched chunk starts
    layouts = [((), 0), ((1,), 7), ((64,), 90), ((37,), 151),
               ((1, 20), 233), ((5, 64), 301), ((), 47)]
    engine = StreamingParticleTracker(route_segs, n_particles=40)
    states, prefixes, chunks, oracles = [], [], [], []
    for u, (prefix_lengths, offset) in enumerate(layouts):
        prefix, at = [], offset
        for length in prefix_lengths:
            prefix.append(stream[at : at + length])
            at += length
        chunk = stream[at : at + chunk_len]
        start, heading = walk.references[u], float(walk.headings[u])
        state = engine.new_state(start, heading, seed=100 + u)
        for piece in prefix:
            engine.step_many([state], piece[None])
        states.append(state)
        prefixes.append(prefix)
        chunks.append(chunk)
        oracles.append(
            solo_trajectory(engine, prefix + [chunk], start, heading,
                            seed=100 + u)[-1]
        )
    assert {len(s.tail_v) for s in states} == {0, 1, 2}

    # what the wave must do: each session's step count, and how many
    # distinct firing sample indices the detector reports
    clones = [
        engine.restore_state(engine.state_arrays(s), engine.state_meta(s))
        for s in states
    ]
    firing_indices, steps = 0, [0] * len(states)
    for rows, _ in sessions_module._step_events(
        clones, np.stack(chunks), engine.dt, sessions_module._STEP_THRESHOLD,
        engine.min_gap,
    ):
        firing_indices += 1
        for row in rows:
            steps[row] += 1
    assert len(set(steps)) > 1
    assert firing_indices > max(steps)

    calls = []
    scan = sessions_module.segment_distances

    def counting_scan(points, segments):
        calls.append(len(points))
        return scan(points, segments)

    monkeypatch.setattr(sessions_module, "segment_distances", counting_scan)
    got = engine.step_many(states, np.stack(chunks))
    for u, oracle in enumerate(oracles):
        assert np.array_equal(got[u], oracle), f"session {u} diverged"
    assert len(calls) == max(steps)
    n = engine.n_particles
    assert calls == [
        n * sum(count > k for count in steps) for k in range(max(steps))
    ]
