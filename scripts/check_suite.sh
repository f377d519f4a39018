#!/usr/bin/env bash
# Strict suite gate (invoked by `make check` / `make check-fast`, and
# through `make ci` / `make ci-fast` by the CI workflow).
#
# Runs the tier-1 suite exactly like `make test`, but escalates every
# pytest collection warning into a hard error.  This guards the
# invariant documented in ROADMAP.md ("Test-suite invariants"): the
# suite only collects cleanly because every tests/ subpackage has an
# __init__.py AND pytest.ini forces --import-mode=importlib.  A dropped
# __init__.py or a duplicate-basename regression surfaces here as a
# failure instead of a warning that scrolls past.
#
# --strict-markers additionally rejects any marker not registered in
# pytest.ini (e.g. a typo'd @pytest.mark.slaw that would silently run
# in the "fast" lane).
#
# Extra arguments pass straight to pytest (`make check-fast` sends
# -m "not slow").  The pytest tail line (collected/passed counts) is
# appended to $GITHUB_STEP_SUMMARY when CI provides one, so the job
# summary always states the authoritative count — commit messages and
# CHANGES.md can be reconciled against it instead of hand-copied.
set -euo pipefail
cd "$(dirname "$0")/.."

make clean-pyc
PYTEST_TAIL=/tmp/pytest-tail.txt
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q \
    --strict-markers \
    -W error::pytest.PytestCollectionWarning \
    "$@" | tee /tmp/pytest-output.txt
grep -E '[0-9]+ (passed|failed|error)' /tmp/pytest-output.txt | tail -1 \
    > "$PYTEST_TAIL" || true
if [[ -n "${GITHUB_STEP_SUMMARY:-}" && -s "$PYTEST_TAIL" ]]; then
    {
        echo "### Test suite"
        echo ""
        echo '```'
        cat "$PYTEST_TAIL"
        echo '```'
    } >> "$GITHUB_STEP_SUMMARY"
fi

# The repo benchmark's own tests (load generator, percentiles, knee
# search, span tracer, workload inputs) live in perfbench/, outside
# pytest.ini's testpaths, so the suite above never collects them.  Run
# them as their own strict pass; the suite's extra arguments are not
# forwarded, since a -k/-m filter could deselect all of them.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q \
    --strict-markers \
    -W error::pytest.PytestCollectionWarning \
    perfbench

# Smoke the training benchmark: runs a tiny train-bench workload and
# schema-validates the emitted BENCH_train.json, so a bench or schema
# regression fails `make check` instead of rotting silently.
make bench-smoke

# Smoke the async serving benchmark the same way: a tiny deadline sweep
# through the ServingFrontend plus the model-store restart leg,
# schema-validating BENCH_serve.json, so a broken front end, store, or
# payload drift fails `make check` too.
make serve-bench-smoke

# Smoke the quantized-scan benchmark: a tiny binned map through the
# uint8 scan + exact-rerank path, asserting the recall and
# bytes-per-fingerprint floors (throughput floor is disabled at smoke
# scale), so a broken quantizer or rerank fails `make check`.
make quant-bench-smoke

# Smoke the learned-embedding benchmark: fits the MLP embedder on a
# tiny noisy map and serves held-out queries through both the raw and
# embedded kNN backends (floors are disabled at smoke scale), so a
# broken embedder or feature-pipeline regression fails `make check`.
make embed-bench-smoke

# Smoke the chaos harness: a seeded fault storm (worker kills,
# heartbeat stalls, shm-slot and store-artifact corruption) against
# the fair-shed + circuit-broken front end, asserting availability,
# zero hung requests, and answered-request parity — so a resilience
# regression fails `make check` instead of surfacing in production.
make chaos-smoke

# Smoke the streaming-session harness: concurrent tracking sessions
# micro-batched across users behind the threaded front end, asserting
# bitwise parity with the offline single-session oracle and a
# zero-lost-tracks checkpoint/restart recovery — so a stateful-serving
# regression fails `make check` before it can corrupt a trajectory.
make track-smoke

# Bench-drift guard: the committed trajectory artifacts must stay
# schema-valid with their headline floors intact.
make check-bench-artifacts
