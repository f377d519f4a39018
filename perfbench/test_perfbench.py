"""The benchmark's own tests.  Run from the repository root::

    python -m pytest perfbench -q
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import track  # noqa: E402
import wifi  # noqa: E402


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str((array.dtype, array.shape)).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def wifi_inputs(seed):
    train, test = wifi.make_map(wifi.NOBLE)  # one site; the seed draws the traffic
    offsets, indices = wifi.phase_stream(seed, 1, 500.0, 2.0, len(test.rssi))
    return digest(train.rssi, train.coordinates, test.rssi, offsets, indices)


def track_inputs(seed):
    walks = track.Walks(seed)
    return digest(*walks.segments, *walks.truth, np.array([s[1] for s in walks.starts]))


@pytest.mark.parametrize("inputs", [wifi_inputs, track_inputs])
def test_same_seed_same_inputs_other_seed_other_inputs(inputs):
    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_phase_stream_holds_min_requests_and_is_sorted():
    offsets, indices = wifi.phase_stream(1, 2, 100.0, 1.0, 50)
    assert len(offsets) == len(indices) == wifi.MIN_REQUESTS
    assert np.all(np.diff(offsets) > 0) and indices.max() < 50


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(np.arange(999), 99)
    assert harness.percentile(np.arange(1000), 99) == pytest.approx(989.01)
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(np.arange(99), 90)
    harness.percentile(np.arange(100), 90)
    harness.percentile(np.arange(20), 50)
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(np.arange(19), 50)


def queueing_model(capacity, limit_s=0.050):
    """M/M/1: the p99 sojourn is ln(100) / (capacity - rate)."""
    knee = capacity - math.log(100) / limit_s
    return knee, lambda rate: rate < capacity and math.log(100) / (capacity - rate) <= limit_s


@pytest.mark.parametrize("capacity", [900.0, 12_345.0, 37_000.0])
@pytest.mark.parametrize("start_share", [0.8, 1.0, 1.3, 2.0])
def test_knee_search_finds_the_knee_of_a_queueing_model(capacity, start_share):
    ladder = harness.rate_ladder(100.0, 80_000.0, 1.04)
    true_knee, passes = queueing_model(capacity)
    probes = []

    def probe(rate):
        probes.append(rate)
        return passes(rate)

    knee = harness.knee_search(probe, ladder, harness.rung_of(ladder, true_knee * start_share), 10)
    assert ladder[knee] <= true_knee < ladder[knee + 1]
    assert len(probes) == 10


def test_knee_search_survives_one_unlucky_probe():
    ladder = harness.rate_ladder(100.0, 80_000.0, 1.04)
    true_knee, passes = queueing_model(12_345.0)
    start = harness.rung_of(ladder, true_knee)
    calls = []

    def unlucky_first(rate):
        calls.append(rate)
        return len(calls) > 1 and passes(rate)

    knee = harness.knee_search(unlucky_first, ladder, start, 10)
    assert abs(knee - harness.rung_of(ladder, true_knee)) <= 1


def test_knee_search_when_nothing_or_everything_passes():
    ladder = harness.rate_ladder(10.0, 1000.0, 1.1)
    assert harness.knee_search(lambda rate: False, ladder, 20, 8) == -1
    assert harness.knee_search(lambda rate: True, ladder, 20, 8) > 20


def test_tracer_self_time_and_fifo_batches():
    clock = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0, 11.0, 12.0, 12.5, 13.0, 13.5, 14.0]).__next__
    tracer = harness.Tracer(clock=clock)

    class Layer:
        def outer(self, rows):
            self.inner()
            return self.inner()

        def inner(self):
            return None

    layer = Layer()
    tracer.wrap(layer, "outer", "outer", lambda args, kwargs, result: len(args[0]))
    tracer.wrap(layer, "inner", "inner")
    layer.outer([1, 2])  # outer 0..10, inner 1..3 and 4..6
    assert tracer.durations_ms("outer").tolist() == [10_000.0]
    assert tracer.self_times_ms("outer").tolist() == [6_000.0]
    (outer,) = tracer.by_name("outer")
    assert all(span[4] == outer[0] and span[5] == outer[0] for span in tracer.by_name("inner"))
    layer.outer([3])  # a second batch, 11..14
    tracer.restore()
    assert "outer" not in vars(layer)
    batches = tracer.by_name("outer")
    served_by = harness.fifo_batches(3, batches, tracer.counts["outer"])
    assert [span[0] for span in served_by] == [batches[0][0]] * 2 + [batches[1][0]]
    with pytest.raises(ValueError):
        harness.fifo_batches(4, batches, tracer.counts["outer"])


def test_covered_share_counts_overlaps_once():
    spans = [(0, "a", 1.0, 3.0, -1, 0), (1, "b", 2.0, 4.0, -1, 1), (2, "c", 9.0, 12.0, -1, 2)]
    assert harness.covered_share((0.0, 10.0), spans) == pytest.approx(0.4)


def test_rss_peak_adds_the_peaks_of_live_children():
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; print('up', flush=True); sys.stdin.read()"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert child.stdout.readline() == "up\n"  # the interpreter is loaded
        own = harness.rss_peak_mb()
        with_child = harness.rss_peak_mb([child.pid])
    finally:
        child.communicate()
    assert with_child - own > 1.0  # a live Python interpreter holds megabytes


def test_stop_processes_ends_the_resource_tracker():
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    harness.stop_processes()
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # already waited for: no such child left


def test_interleave_spreads_each_load_over_the_run():
    order = harness.interleave({"low": 3, "high": 7})
    assert sorted(order) == ["high"] * 7 + ["low"] * 3
    lows = [i for i, name in enumerate(order) if name == "low"]
    assert lows[0] < 3 and lows[-1] > 6 and min(np.diff(lows)) >= 3


def test_interleaved_measures_every_window_once_in_order():
    calls = []
    fixed = harness.Interleaved({"low": 5, "high": 9},
                                lambda name, i: calls.append((name, i)) or (name, i))
    probes = 6
    for probe in range(probes):
        before = len(calls)
        fixed.step(1.0 / (probes - probe))
        assert len(calls) > before  # every probe is preceded by a fixed window
    done = fixed.finish()
    assert len(calls) == 14
    assert done == {name: [(name, i) for i in range(n)] for name, n in (("low", 5), ("high", 9))}


def test_wrong_answers_fail_the_gate():
    from repro.serving.registry import Prediction

    class Test:
        rssi = np.zeros((3, 4))
        coordinates = np.zeros((3, 2))

    reference = Prediction(coordinates=np.arange(6.0).reshape(3, 2),
                           building=np.array([0, 1, 2]), floor=np.array([1, 1, 1]))
    answers = wifi.Answers(Test, reference, atol=1e-9)
    rows = np.array([2, 0, 1, 1])
    coordinates = reference.coordinates[rows].copy()
    building, floor = reference.building[rows].copy(), reference.floor[rows].copy()
    assert answers.matches(rows, coordinates, building, floor).all()
    coordinates[1, 0] += 1e-6
    building[2] = 0
    assert answers.matches(rows, coordinates, building, floor).tolist() == [
        True, False, False, True]


def test_closed_loop_keeps_one_tick_in_flight_per_walker(tmp_path, monkeypatch):
    monkeypatch.setattr(track, "N_PARTICLES", 20)
    walks = track.Walks(5)
    engine = walks.engine()
    oracle = walks.oracle(engine)
    service = track.Service(walks, engine, str(tmp_path / "store"))
    latest = {}

    def check(frontend):
        submit = frontend.submit

        def checked_submit(user_id, **kwargs):
            previous = latest.get(user_id)
            assert previous is None or previous.done, f"{user_id} has a tick in flight"
            latest[user_id] = submit(user_id, **kwargs)
            return latest[user_id]

        frontend.submit = checked_submit

    restart = service.crash_and_restart

    def restart_and_check():
        restart()
        check(service.frontend)

    check(service.frontend)
    service.crash_and_restart = restart_and_check
    try:
        phase = track.closed_loop(service, oracle, 6, 0.0, min_ticks=200)
    finally:
        service.close()
    assert phase.failed == 0 and phase.attempted >= 200
    assert service.restarts >= 1 and service.totals["restored"] == 6 * service.restarts


def test_metric_docs_cover_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    with open(os.path.join(HERE, "METRICS.md")) as handle:
        docs = handle.read()
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert f"`{metric['name']}`" in docs, metric["name"]
