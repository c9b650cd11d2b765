#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from the workspace root.
#
# Clippy runs with -D warnings; clippy::unwrap_used / clippy::expect_used
# are configured as *advisory* in the workspace lints table ([workspace.lints]
# in Cargo.toml), so they are re-demoted to warnings after -D so they surface
# in review without blocking the build. Internal-invariant `expect`s carry a
# comment naming the invariant (robustness policy, PR 1).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release --workspace =="
# --workspace is load-bearing: the root manifest is both a workspace and a
# package, so a bare `cargo build` would only build the root package and
# skip the gate binaries (check_gate, cache_lint, sim_throughput, obs_dump,
# cache_loadgen) this script runs below.
cargo build --release --offline --workspace

echo "== cargo test -q --workspace =="
# The root manifest is a member of its own workspace, so this runs the root
# package's tests too.
cargo test -q --workspace --offline

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
#  - lint: the annotation contract (SAFETY:/ORDERING:/invariant comments,
#    explicit Ordering::* at atomic call sites, no non-test unwrap) over
#    every crates/*/src/**/*.rs file, with inline waivers and a
#    stale-checked central allowlist — plus the interprocedural lock
#    analysis: guard live ranges, a workspace call graph, machine-checked
#    LOCK-ORDER: declarations, and global deadlock-cycle detection
#    (L-DEADLOCK/L-GUARD-LIFETIME/L-LOCK-ORDER/L-LOCK-DECL), then the
#    fixture self-check (a fixtured rule whose diagnostic count drops to 0
#    has been silently disabled and fails the gate);
#  - loom: bounded-preemption (CHESS, bound 2) exploration of the Vyukov
#    ring, S3-FIFO shard, server drain-handshake, and increment-buffer
#    slot-handoff models with a vector-clock race detector — >= 10k
#    distinct interleavings must pass, and nine planted mutants (wrong
#    orderings, a second handle per slot, a tombstone released twice,
#    ghost-before-settle, drain check-before-join, relaxed drain
#    completion, relaxed incbuf claim/release) must be *caught*,
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

echo "== mrc smoke: mrc_throughput =="
# Small trace, 8-point grid: the binary itself asserts every grid point of
# the single-pass curve is bit-identical to the per-capacity sweep and that
# FIFO routes through the exact engine. The validator below checks both the
# smoke artifact and the checked-in full-run BENCH_mrc.json: sane schema,
# strictly increasing grid, miss ratios in [0,1] non-increasing with
# capacity (small epsilon for FIFO's Belady wobble), `identical: true` on
# every point — and, for the checked-in full run only, the acceptance
# speedups (aggregate >= 5x, exact-FIFO >= 10x). Smoke numbers themselves
# are NOT meaningful.
./target/release/mrc_throughput --smoke
python3 - <<'PY'
import json

def check(path, full):
    with open(path) as f:
        doc = json.load(f)
    assert doc["bench"] == "mrc_throughput", doc.get("bench")
    for key in ("mode", "requests", "objects", "grid", "policies", "aggregate"):
        assert key in doc, f"{path} missing key: {key}"
    grid = doc["grid"]
    assert all(a < b for a, b in zip(grid, grid[1:])), f"{path}: grid not increasing"
    assert doc["policies"], f"{path}: no per-policy results"
    for p in doc["policies"]:
        caps = [pt["capacity"] for pt in p["points"]]
        assert caps == grid, f"{path}: {p['name']} points do not cover the grid"
        ratios = [pt["miss_ratio"] for pt in p["points"]]
        assert all(0.0 <= r <= 1.0 for r in ratios), f"{path}: {p['name']} ratio range"
        for i, (a, b) in enumerate(zip(ratios, ratios[1:])):
            assert b <= a + 1e-6, \
                f"{path}: {p['name']} miss ratio rises at grid point {i + 1}"
        assert all(pt["identical"] is True for pt in p["points"]), \
            f"{path}: {p['name']} has non-identical points"
        assert p["speedup"] > 0, f"{path}: {p['name']} speedup"
    agg = doc["aggregate"]
    assert agg["metric"] == "mrc" and agg["grid_points"] == len(grid), agg
    if full:
        assert doc["mode"] == "full", f"{path}: checked-in file must be a full run"
        assert agg["speedup"] >= 5.0, \
            f"{path}: aggregate speedup {agg['speedup']} below 5x"
        assert agg["fifo_exact_speedup"] >= 10.0, \
            f"{path}: exact-FIFO speedup {agg['fifo_exact_speedup']} below 10x"
    return doc, agg

check("target/BENCH_mrc.json", full=False)
doc, agg = check("BENCH_mrc.json", full=True)
print(f"mrc smoke ok: {len(doc['policies'])} policies x {agg['grid_points']} "
      f"points; checked-in full run {agg['speedup']:.2f}x aggregate, "
      f"{agg['fifo_exact_speedup']:.2f}x exact-FIFO")
PY

echo "== thread-scaling smoke: fig8_throughput =="
# Real threads at 1..nproc over all six concurrent variants; the binary
# asserts its own request/hit counts and that every 1-thread run audits
# exactly clean. Smoke numbers themselves are NOT meaningful.
FIG8_REQUESTS=20000 FIG8_OBJECTS=10000 ./target/release/fig8_throughput

echo "== bench smoke: sim_throughput =="
# Small corpus, one repeat. The binary asserts that pre-interned replay and
# the keyed adapter agree bit for bit on every policy, that the ganged sweep
# matches one-at-a-time replay, and the shape of the artifact it writes.
# Numbers from this run are NOT meaningful; the checked-in BENCH_sim.json
# comes from the full config.
./target/release/sim_throughput --smoke

echo "== out-of-core smoke: trace_gen + trace_convert + oo_trace =="
# The out-of-core trace engine end to end (DESIGN.md §12): generate a small
# seeded .ctr trace to disk, round-trip it through CSV and back, verify the
# two encodings describe the identical trace, and run the streamed-replay
# benchmark in smoke mode. The oo_trace binary itself asserts the streamed
# replay is bit-identical to the dense in-memory replay (counters, f64
# bits, every series window) and that trace buffers stay bounded by the
# chunk size. The validator checks the smoke artifact: schema, identity
# and bounded buffers. Smoke timings themselves are NOT meaningful; the
# full run (1B requests, streamed within 1.3x of in-memory) is a benchmark
# this class of host cannot meet, not a gate.
./target/release/trace_gen --smoke --out target/ci_oo.ctr
./target/release/trace_convert to-csv target/ci_oo.ctr target/ci_oo.csv
./target/release/trace_convert to-ctr target/ci_oo.csv target/ci_oo_rt.ctr
./target/release/trace_convert verify target/ci_oo.csv target/ci_oo_rt.ctr
./target/release/oo_trace --smoke
python3 - <<'PY'
import json

def check(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc["bench"] == "oo_trace", doc.get("bench")
    for key in ("mode", "trace", "window", "chunk_records", "capacity",
                "streamed", "calibration"):
        assert key in doc, f"{path} missing key: {key}"
    t = doc["trace"]
    assert t["requests"] > 0 and t["id_space"] > 0 and t["bytes"] > 0, t
    # Bounded memory: peak trace buffers scale with the chunk, never the
    # trace (2x slack for Vec growth; 40 covers record + decoded + slot).
    buffer_bound = 2 * doc["chunk_records"] * 40
    names = set()
    for s in doc["streamed"]:
        names.add(s["name"])
        assert 0.0 <= s["miss_ratio"] <= 1.0 and s["windows"] > 0, s
        assert s["peak_buffer_bytes"] <= buffer_bound, \
            f"{path}: {s['name']} buffers {s['peak_buffer_bytes']} exceed chunk bound"
    assert {"FIFO", "S3-FIFO"} <= names, f"{path}: missing policies {names}"
    cal = doc["calibration"]
    assert cal["policies"], f"{path}: no calibration rows"
    for p in cal["policies"]:
        assert p["identical"] is True, f"{path}: {p['name']} streamed replay diverged"
        assert p["streamed_mreqs"] > 0 and p["in_memory_mreqs"] > 0, p
    return doc, cal

doc, cal = check("target/BENCH_oo_trace.json")
print(f"oo smoke ok: {len(doc['streamed'])} policies streamed in bounded "
      f"buffers, {len(cal['policies'])} calibration rows bit-identical")
PY

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

echo "== server smoke: cache_loadgen --self-host =="
# Spins up three in-process servers (nominal, burst-storm with tight
# accept queues, degraded with injected write delays + a faulty flash
# tier) and drives each with the closed-loop loadgen. The binary itself
# enforces: every scenario completes ops, zero protocol (CLIENT_ERROR)
# replies, and a clean in-flight drain on shutdown. Numbers from this run
# are NOT meaningful; the checked-in BENCH_server.json comes from the
# full config.
./target/release/cache_loadgen --self-host --smoke \
    --out target/BENCH_server.json --prom-out target/SERVER_metrics.prom
python3 - <<'PY'
import json
with open("target/BENCH_server.json") as f:
    doc = json.load(f)
assert doc["bench"] == "cache_server", doc
scenarios = {s["scenario"]: s for s in doc["scenarios"]}
assert set(scenarios) == {"nominal", "burst-storm", "degraded"}, scenarios
for name, s in scenarios.items():
    assert s["ops"] > 0, f"{name}: no completed ops"
    assert s["drained"], f"{name}: unclean drain"
    assert s["errors"]["client_errors"] == 0, f"{name}: protocol errors"
    assert s["p50_us"] <= s["p99_us"] <= s["p999_us"], f"{name}: quantiles"
deg = scenarios["degraded"]
assert deg["errors"]["shed"] + deg["errors"]["timeouts"] > 0, \
    "degraded scenario produced no overload evidence"
# The Prometheus dump must be well-formed: TYPE lines, metric lines, and
# every sample line is `name value` with a parseable float.
lines = [l.rstrip("\n") for l in open("target/SERVER_metrics.prom") if l.strip()]
assert any(l.startswith("# TYPE cache_server_") for l in lines), lines[:5]
samples = [l for l in lines if not l.startswith("#")]
assert samples, "no samples in Prometheus dump"
for l in samples:
    name, value = l.rsplit(" ", 1)
    assert name.startswith("cache_server_"), l
    float(value)
print(f"server smoke ok: {sum(s['ops'] for s in scenarios.values())} ops "
      f"across {len(scenarios)} scenarios, {len(samples)} metric samples")
PY

echo "ci: all gates passed"
