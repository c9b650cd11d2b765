#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from the workspace root.
#
# Clippy runs with -D warnings; clippy::unwrap_used / clippy::expect_used
# are configured as *advisory* in the workspace lints table ([workspace.lints]
# in Cargo.toml), so they are re-demoted to warnings after -D so they surface
# in review without blocking the build. Internal-invariant `expect`s carry a
# comment naming the invariant (robustness policy, PR 1).
# The same table denies clippy::undocumented_unsafe_blocks: every `unsafe`
# block carries a `// SAFETY:` comment.
#
# Each step prints its wall time at the end of the run, so a slow gate
# names itself.
#
# `./ci.sh stress [N]` runs none of that: it runs the tests of the two crates
# that start threads of their own, cache-concurrent and cache-sim, N times
# (default 20) and prints how often each test failed, so that a flake has a
# rate rather than an anecdote. It exits non-zero on any failure.
set -euo pipefail
cd "$(dirname "$0")"

if [ "${1:-}" = "stress" ]; then
    runs="${2:-20}"
    case "${runs}" in
        '' | *[!0-9]* | 0) echo "usage: ./ci.sh stress [N], N a positive integer" >&2; exit 2 ;;
    esac
    cargo test -q --release --offline -p cache-concurrent -p cache-sim --no-run
    failures=$(mktemp)
    trap 'rm -f "${failures}"' EXIT
    bad_runs=0
    for run in $(seq 1 "${runs}"); do
        if out=$(cargo test -q --release --offline -p cache-concurrent -p cache-sim 2>&1); then
            continue
        fi
        bad_runs=$((bad_runs + 1))
        names=$(printf '%s\n' "${out}" | sed -n 's/^---- \(.*\) stdout ----$/\1/p')
        echo "run ${run}: FAILED ${names:-outside any test}"
        printf '%s\n' "${names:-run ${run}: failed outside any test}" >> "${failures}"
    done
    echo "stress: ${bad_runs} of ${runs} runs failed"
    sort "${failures}" | uniq -c | while read -r count name; do
        echo "  ${name}: ${count} of ${runs}"
    done
    [ "${bad_runs}" -eq 0 ]
    exit
fi

step_names=()
step_tenths=()
step_t0=""
# `step NAME` ends the step before it, records its wall time, and announces
# NAME; `step done` only ends the last one.
step() {
    local now=${EPOCHREALTIME/./}
    if [ -n "${step_t0}" ]; then
        step_tenths+=($(( (now - step_t0) / 100000 )))
    fi
    step_t0=${now}
    [ "$1" = done ] && return
    step_names+=("$1")
    echo "== $1 =="
}

step "cargo build --release --workspace"
# --workspace is load-bearing: the root manifest is both a workspace and a
# package, so a bare `cargo build` would only build the root package and
# skip the gate binaries (check_gate, trace_gen, trace_convert, obs_dump)
# this script runs below.
cargo build --release --offline --workspace

step "cargo test -q --workspace"
# The root manifest is a member of its own workspace, so this runs the root
# package's tests too.
cargo test -q --workspace --offline

if command -v taskset > /dev/null; then
    step "feed_ctr hand-off tests on one core"
    # The streamed replay hands chunks between a reader thread and the
    # caller (DESIGN.md §12); on one core a hand-off that needs both threads
    # running at once to make progress hangs here instead of passing. Only
    # the tests that stream are run: stream.rs's own, and the replay_matrix
    # tests that stream a small trace, chunks of one record included. The
    # matrix's two large sweeps stream too, and run on both cores above.
    taskset -c 0 cargo test -q --offline -p cache-sim --lib --test replay_matrix -- \
        stream:: window_and_chunk_boundaries a_partially_consumed_reader \
        the_path_front_door buffers_stay_bounded
fi

step "benchmark: frozen surface + smoke ledger"
# benchmark/ is a workspace of its own with path dependencies on crates/*:
# building it is what checks the entry points its README lists as frozen
# (parse_frame, TtlStore, Value, ServerCounters, ...), and its smoke-scale
# end-to-end test runs all four workloads with the wire checker verifying
# every reply. ~20 s. Nothing under benchmark/ is edited by this gate.
cargo test --release --offline --manifest-path benchmark/Cargo.toml --target-dir target

step "cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets lints test, example and bench code too: a deny-by-default
# lint there (a tautological assertion, say) fails the gate like one in a
# library.
cargo clippy --workspace --all-targets --offline -- -D warnings \
    --force-warn clippy::unwrap-used --force-warn clippy::expect-used

step "check_gate: differential fuzz, observers, linearizability-lite, loom-lite"
# Fixed-seed correctness battery (crates/check): >= 10k generated requests
# per policy/mode/clock-tick triple (a tick every request, and every 32nd,
# so LRU-2's penultimate accesses tie) through reference vs keyed vs dense
# on 17 names (the FIFO family, S3-FIFO's four §6.3/§7 queue-type variants,
# ARC, LRU-2, B-LRU and S3-FIFO-D), an invariant observer sweep over every
# registry algorithm on the pre-interned door at capacity 64 and at
# capacity 6, below the
# trace's largest size, so every name's oversized reads are checked
# `Uncacheable` (the keyed door's per-request checks are the
# fuzzer's and crates/sim/tests/equivalence.rs's), logged concurrent
# torture runs per cache checked for stale/forged reads plus, in per-key
# monotonic-version mode, cross-get version regressions, and loom-lite:
# >= 10k bounded-preemption interleavings of the concurrent models must
# pass and all 15 planted mutants must be caught (TESTING.md names them).
# ~3 s in release; failures print a reproduction (see TESTING.md).
./target/release/check_gate

step "trace round trip: trace_gen + trace_convert"
# Generate a small seeded .ctr trace to disk (DESIGN.md §12), take it through
# CSV and back, and verify the two encodings describe the identical trace.
# That trace is all unit-size Gets, so it loads with no size or op column;
# the checked-in mixed_lanes.csv (sets, deletes, sizes, ids past u32) takes
# both columns through the same round trip.
./target/release/trace_gen --smoke --out target/ci_oo.ctr
./target/release/trace_convert to-csv target/ci_oo.ctr target/ci_oo.csv
./target/release/trace_convert to-ctr target/ci_oo.csv target/ci_oo_rt.ctr
./target/release/trace_convert verify target/ci_oo.csv target/ci_oo_rt.ctr
./target/release/trace_convert to-ctr tests/fixtures/mixed_lanes.csv target/ci_mixed.ctr
./target/release/trace_convert to-csv target/ci_mixed.ctr target/ci_mixed.csv
./target/release/trace_convert verify tests/fixtures/mixed_lanes.csv target/ci_mixed.ctr
./target/release/trace_convert verify target/ci_mixed.csv target/ci_mixed.ctr

step "obs smoke: obs_dump"
# Exercises the full observability pipeline (windowed simulation, flash
# degradation ladder, concurrent per-shard export, lossy CSV ingest) and
# validates the JSON-lines dump: every line parses standalone, the expected
# metric families are present, and no empty-histogram sentinel leaks.
./target/release/obs_dump --out target/OBS_dump.jsonl
python3 - <<'PY'
import json
lines = [l for l in open("target/OBS_dump.jsonl") if l.strip()]
assert lines, "empty obs dump"
objs = [json.loads(l) for l in lines]   # every line must parse standalone
names = {o.get("name", "") for o in objs}
for expected in (
    "sim.requests", "sim.misses", "sim.eviction_age",
    "flash.ladder.budget_trips", "flash.ladder.budget_recoveries",
    "flash.ladder.device_errors", "flash.ladder.degraded_requests",
    "cc.hits", "cc.misses",
    "trace.io.csv_skipped_lines", "trace.io.csv_parsed_lines",
):
    assert expected in names, f"obs dump missing metric: {expected}"
kinds = {o["type"] for o in objs}
assert {"counter", "gauge", "histogram", "event", "window"} <= kinds, kinds
for o in objs:
    if o["type"] == "histogram" and o["count"] == 0:
        assert o["min"] is None and o["max"] is None, f"sentinel leak: {o}"
print(f"obs smoke ok: {len(objs)} lines, {len(names - {''})} metrics, "
      f"kinds {sorted(kinds)}")
PY
# The --mrc mode: instrumented single-pass curves as JSON lines. Every line
# must parse standalone; every policy contributes curve points; the mrc.*
# counter/histogram family must be present.
./target/release/obs_dump --mrc --out target/OBS_mrc.jsonl
python3 - <<'PY'
import json
objs = [json.loads(l) for l in open("target/OBS_mrc.jsonl") if l.strip()]
points = [o for o in objs if o.get("type") == "mrc"]
assert points, "no mrc curve points"
algos = {p["algorithm"] for p in points}
assert {"FIFO", "CLOCK", "SIEVE"} <= algos and any(
    a.startswith("S3-FIFO") for a in algos), algos
for p in points:
    assert 0.0 <= p["miss_ratio"] <= 1.0 and p["engine"] in (
        "exact-fifo", "ganged", "per-capacity"), p
names = {o.get("name", "") for o in objs}
for expected in ("mrc.curves", "mrc.points", "mrc.requests", "mrc.misses",
                 "mrc.point_micros"):
    assert expected in names, f"mrc dump missing metric: {expected}"
series = {o.get("series", "") for o in objs if o.get("type") == "window"}
assert "mrc.FIFO" in series, series
print(f"obs mrc ok: {len(points)} curve points across {len(algos)} policies")
PY

step done
total=0
for i in "${!step_names[@]}"; do
    t=${step_tenths[$i]}
    total=$((total + t))
    printf '%6d.%d s  %s\n' $((t / 10)) $((t % 10)) "${step_names[$i]}"
done
printf '%6d.%d s  total\n' $((total / 10)) $((total % 10))
echo "ci: all gates passed"
