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

echo "== cargo build --release --workspace =="
# --workspace is load-bearing: the root manifest is both a workspace and a
# package, so a bare `cargo build` would only build the root package and
# skip the gate binaries (check_gate, cache_lint, trace_gen, trace_convert,
# obs_dump) this script runs below.
cargo build --release --offline --workspace

echo "== cargo test -q --workspace =="
# The root manifest is a member of its own workspace, so this runs the root
# package's tests too.
cargo test -q --workspace --offline

if command -v taskset > /dev/null; then
    echo "== cargo test -q -p cache-sim on one core =="
    # The streamed replay hands chunks between a reader thread and the
    # caller (DESIGN.md §12); on one core a hand-off that needs both threads
    # running at once to make progress hangs here instead of passing.
    taskset -c 0 cargo test -q --offline -p cache-sim
fi

echo "== benchmark: frozen surface + smoke ledger =="
# benchmark/ is a workspace of its own with path dependencies on crates/*:
# building it is what checks the entry points its README lists as frozen
# (parse_frame, TtlStore, Value, ServerCounters, ...), and its smoke-scale
# end-to-end test runs all four workloads with the wire checker verifying
# every reply. ~20 s. Nothing under benchmark/ is edited by this gate.
cargo test --release --offline --manifest-path benchmark/Cargo.toml --target-dir target

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --offline -- -D warnings \
    --force-warn clippy::unwrap-used --force-warn clippy::expect-used

echo "== check: differential fuzz + invariant observers + linearizability-lite =="
# Fixed-seed correctness battery (crates/check): >= 10k generated requests
# per policy/mode pair through reference vs keyed vs dense on 13 names (the
# FIFO family, S3-FIFO's four §6.3/§7 queue-type variants included), an
# invariant observer sweep over every registry algorithm, and logged
# concurrent torture runs per cache checked for stale/forged reads plus, in
# per-key monotonic-version mode, cross-get version regressions. ~1 s in
# release; failures print a shrunk reproduction (see TESTING.md).
./target/release/check_gate

echo "== cache-lint: workspace lint + loom-lite interleaving exploration =="
# Two hard gates from crates/lint (see DESIGN.md §8 and TESTING.md):
#  - lint: what clippy does not check, over every crates/*/src/**/*.rs
#    file — an ORDERING: comment and explicit Ordering::* wherever atomics
#    are used (L-ORDERING/L-SEQCST), no non-test unwrap or comment-less
#    expect (L-PANIC), and the interprocedural lock analysis: guard live
#    ranges and a workspace call graph feeding global deadlock-cycle
#    detection (L-GUARD-LIFETIME/L-DEADLOCK). No waivers: fix the code.
#    The fixtures that prove each rule still fires are pinned by
#    crates/lint/tests/fixtures.rs, which the test step above runs;
#  - loom: bounded-preemption (CHESS, bound 2) exploration of the Vyukov
#    ring, S3-FIFO shard, ShardLocks lane/flag/gate lock, server
#    drain-handshake, and increment-buffer slot-handoff models with a
#    vector-clock race detector — >= 10k distinct interleavings must
#    pass, and fourteen planted mutants (TESTING.md names them) must be
#    *caught*,
#    so a green run proves the detector still has teeth.
# Budget: the whole pass must stay under 20 s in release (the binary
# prints per-phase timing so a blown budget names its phase).
cache_lint_start=$(date +%s)
./target/release/cache_lint --root . all
cache_lint_elapsed=$(( $(date +%s) - cache_lint_start ))
if [ "${cache_lint_elapsed}" -gt 20 ]; then
    echo "cache_lint exceeded its 20 s budget (${cache_lint_elapsed}s)" >&2
    exit 1
fi

echo "== trace round trip: trace_gen + trace_convert =="
# Generate a small seeded .ctr trace to disk (DESIGN.md §12), take it through
# CSV and back, and verify the two encodings describe the identical trace.
./target/release/trace_gen --smoke --out target/ci_oo.ctr
./target/release/trace_convert to-csv target/ci_oo.ctr target/ci_oo.csv
./target/release/trace_convert to-ctr target/ci_oo.csv target/ci_oo_rt.ctr
./target/release/trace_convert verify target/ci_oo.csv target/ci_oo_rt.ctr

echo "== obs smoke: obs_dump =="
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

echo "ci: all gates passed"
