//! CI gate: the full correctness battery on fixed seeds.
//!
//! Seven phases, each fatal on failure (exit code 1 with a reproduction),
//! each printing its wall time:
//!
//! 1. **Differential fuzz** — every reference-covered algorithm ×
//!    capacities {1, 2, 3, 7, 50} × {unit-size, sized} × a clock that ticks
//!    every request or every 32nd, ≥ 10 000 generated requests per
//!    algorithm/mode/tick triple, reference vs keyed vs dense compared
//!    after every request. Divergences are shrunk before printing.
//! 2. **MRC differential** — `simulate_mrc` for every FIFO-family
//!    algorithm × degenerate and regular grids × {pure-Get unit (the
//!    single-pass engines), mixed unit, sized (the per-capacity route)},
//!    each grid point diffed bit-for-bit against a per-capacity reference
//!    replay, with ddmin shrinking on mismatch; on the pure-Get streams the
//!    single-pass engines are also built alone, replayed, and their
//!    structural invariants checked (which `simulate_mrc` does only in
//!    debug builds).
//! 3. **Invariant sweep** — every registry algorithm replayed over a skewed
//!    25 000-request trace, wrapped in [`cache_check::Checked`].
//! 4. **Linearizability-lite** — a logged multi-threaded torture run per
//!    concurrent cache, history checked for stale/forged/time-travelling
//!    reads.
//! 5. **Monotonic versions** — logged runs in per-key-version mode under
//!    uniform and Zipf(1.0) key skew, checked with both the per-get rules
//!    and the cross-get version-regression rule.
//! 6. **Streamed replay differential** — every streamable registry
//!    algorithm × three workload shapes × awkward chunk sizes, the
//!    out-of-core `.ctr` replay diffed bit-for-bit (counters, f64 bits,
//!    per-window series) against the in-memory windowed replay, with
//!    ddmin shrinking on mismatch.
//! 7. **loom-lite** — every bounded-preemption (bound 2) interleaving of
//!    each [`cache_check::models`] scenario: the shipped protocols must hold
//!    their invariants with no data race or deadlock across at least
//!    [`MIN_SCHEDULES`] schedules in all, and every planted mutant must be
//!    caught, so a green run shows the explorer still has teeth.
//!
//! Budget: a few seconds in release mode; a phase with no result after
//! [`PHASE_LIMIT`] fails the gate, so a planted endless loop cannot hang
//! it. Everything is seeded; a failing run reproduces bit-for-bit (see
//! TESTING.md).

use cache_check::loomlite::Config;
use cache_check::models::drain::{drain_race_scenario, drain_two_workers_scenario, DrainVariant};
use cache_check::models::incbuf::{
    incbuf_contention_scenario, incbuf_handoff_scenario, IncVariant,
};
use cache_check::models::lru::{lru_lock_order_scenario, LruVariant};
use cache_check::models::ring::{ring_scenario, RingOrderings};
use cache_check::models::shard::{
    evict_delete_revive_scenario, evict_overwrite_scenario, promote_delete_scenario, Mutant,
};
use cache_check::models::shardlock::{
    reader_meets_flag_scenario, reader_writer_scenario, two_readers_writer_scenario,
    writers_gated_reader_scenario, LockVariant,
};
use cache_check::{
    check_history, check_monotonic, fuzz_mrc, fuzz_policy, fuzz_stream, mrc_validate,
    CheckReport, Checked, FuzzConfig, FUZZED_ALGORITHMS, MRC_ALGORITHMS, MRC_GRIDS,
    STREAM_ALGORITHMS, STREAM_SHAPES,
};
use cache_check::fuzz::generate_trace;
use cache_concurrent::oplog::{run_logged_torture, LoggedTortureConfig};
use cache_concurrent::ConcurrentCache;
use cache_policies::registry;
use cache_sim::Replay;
use cache_trace::Trace;
use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per clock tick the differential fuzz runs under: every request
/// its own time, and ties of 32 (which LRU-2's tie-break needs to be seen).
const TICKS: [u64; 2] = [1, 32];

fn phase_differential() -> Result<(), String> {
    let mut total = 0usize;
    for name in FUZZED_ALGORITHMS {
        // Requests per (tick, unit-size or sized) pair.
        let mut per_pair = [[0usize; 2]; TICKS.len()];
        for (tick_idx, &requests_per_tick) in TICKS.iter().enumerate() {
            for capacity in [1u64, 2, 3, 7, 50] {
                for (mode, max_size) in [(0usize, 1u32), (1, 6)] {
                    let cfg = FuzzConfig {
                        seed: 0xC1_6A7E ^ (capacity << 8) ^ u64::from(max_size),
                        requests: 2_500,
                        max_size,
                        requests_per_tick,
                        ..FuzzConfig::default()
                    };
                    match fuzz_policy(name, capacity, &cfg) {
                        Ok(n) => per_pair[tick_idx][mode] += n,
                        Err(d) => return Err(format!("(clock tick {requests_per_tick}) {d}")),
                    }
                }
            }
        }
        let [unit, sized] = [0, 1].map(|mode| per_pair.iter().map(|p| p[mode]).sum::<usize>());
        println!(
            "  {name}: {unit} unit-size + {sized} sized requests over ticks {TICKS:?}, zero divergences"
        );
        assert!(
            per_pair.iter().flatten().all(|&n| n >= 10_000),
            "fuzz budget regressed below 10k requests per pair"
        );
        total += unit + sized;
    }
    println!("  total: {total} differential requests");
    Ok(())
}

fn phase_mrc() -> Result<(), String> {
    // Three stream shapes: pure-Get unit sizes (drives FIFO through the
    // exact insertion-index engine and the rest through the turbo lanes),
    // unit sizes with writes, and sized with writes (no single-pass engine
    // takes those: both pin `simulate_mrc`'s per-capacity route against the
    // reference interpreters).
    let modes = [
        ("pure-get-unit", 1u32, 0u64, true),
        ("mixed-unit", 1, 10, true),
        ("mixed-sized", 6, 10, false),
    ];
    let mut total = 0usize;
    let mut validated = 0usize;
    for name in MRC_ALGORITHMS {
        let mut per_algo = 0usize;
        let mut engines = 0usize;
        for (grid_idx, grid) in MRC_GRIDS.iter().enumerate() {
            for (label, max_size, write_percent, ignore_size) in modes {
                let cfg = FuzzConfig {
                    seed: 0x3C19_AF05
                        ^ ((grid_idx as u64) << 16)
                        ^ u64::from(max_size) << 8
                        ^ write_percent,
                    requests: 1_500,
                    max_size,
                    write_percent,
                    ..FuzzConfig::default()
                };
                match fuzz_mrc(name, grid, ignore_size, &cfg) {
                    // Each run checks `grid.len()` per-capacity replays.
                    Ok(n) => per_algo += n * grid.len(),
                    Err(d) => return Err(format!("({label} mode) {d}")),
                }
                if write_percent == 0 {
                    engines += mrc_validate(name, &generate_trace(&cfg), grid)
                        .map_err(|e| format!("({label} mode, seed {:#x}) {e}", cfg.seed))?;
                }
            }
        }
        println!(
            "  {name}: {per_algo} point-requests diffed bit-identical, {engines} engines validated"
        );
        total += per_algo;
        validated += engines;
    }
    println!(
        "  total: {total} MRC point-requests across {} grids, {validated} engines validated",
        MRC_GRIDS.len()
    );
    Ok(())
}

/// The invariant sweep's `(capacity, ignore_size)` cells: capacity 64 with
/// sizes ignored and honoured, and a capacity below the trace's largest
/// size (8), where some reads are `Uncacheable`.
const INVARIANT_CELLS: [(u64, bool); 3] = [(64, true), (64, false), (6, false)];

fn phase_invariants() -> Result<(), String> {
    let requests = cache_check::fuzz::generate_trace(&FuzzConfig {
        seed: 0x0B5E_11E4,
        requests: 25_000,
        universe: 400,
        max_size: 8,
        write_percent: 8,
        ..FuzzConfig::default()
    });
    let oversized = requests.iter().filter(|r| r.is_read() && r.size > 6).count();
    if oversized == 0 {
        return Err("the invariant trace has no read too large for capacity 6".into());
    }
    let trace = Trace::new("check-gate", requests);
    let mut cells = 0usize;
    for name in registry::ALL_ALGORITHMS {
        for (capacity, ignore_size) in INVARIANT_CELLS {
            let policy =
                registry::build_dense_domain(name, capacity, Some(trace.slots()), trace.footprint())
                    .map_err(|e| format!("build {name}: {e}"))?;
            let mut report = CheckReport::default();
            Replay::dense(Box::new(Checked::new(policy, &mut report)))
                .ignore_size(ignore_size)
                .run(&trace);
            if let Some((i, msg)) = &report.violation {
                return Err(format!(
                    "{name} (capacity {capacity}, ignore_size={ignore_size}) violated an \
                     invariant at request {i}: {msg}"
                ));
            }
            cells += 1;
        }
    }
    println!(
        "  {} algorithms x {{64 unit-size, 64 sized, 6 sized ({oversized} reads too large)}} \
         over {} requests: all invariants held ({cells} cells)",
        registry::ALL_ALGORITHMS.len(),
        trace.len()
    );
    Ok(())
}

/// Both concurrent caches at `capacity`.
fn concurrent_caches(capacity: usize) -> Vec<Arc<dyn ConcurrentCache>> {
    vec![
        Arc::new(cache_concurrent::s3fifo::ConcurrentS3Fifo::new(capacity)),
        Arc::new(cache_concurrent::lru::MutexLru::strict(capacity)),
    ]
}

fn phase_linearizability() -> Result<(), String> {
    let cfg = LoggedTortureConfig {
        threads: 4,
        ops_per_thread: 1_500,
        ..LoggedTortureConfig::default()
    };
    for cache in concurrent_caches(96) {
        let name = cache.name();
        let log = run_logged_torture(cache, &cfg);
        let violations = check_history(&log);
        if let Some(v) = violations.first() {
            return Err(format!(
                "{name}: {} consistency violations in a {}-op history; first: {v}",
                violations.len(),
                log.len()
            ));
        }
        println!("  {name}: {}-op logged history linearizable-lite", log.len());
    }
    Ok(())
}

fn phase_monotonic() -> Result<(), String> {
    for alpha in [0.0, 1.0] {
        for cache in concurrent_caches(96) {
            let name = cache.name();
            let cfg = LoggedTortureConfig {
                threads: 4,
                ops_per_thread: 1_200,
                alpha,
                monotonic_versions: true,
                seed: 0x3030_0707 ^ alpha.to_bits(),
                ..LoggedTortureConfig::default()
            };
            let log = run_logged_torture(cache, &cfg);
            let mut violations = check_history(&log);
            violations.extend(check_monotonic(&log));
            if let Some(v) = violations.first() {
                return Err(format!(
                    "{name} (alpha {alpha}): {} violations in a {}-op monotonic history; first: {v}",
                    violations.len(),
                    log.len()
                ));
            }
            println!(
                "  {name} (alpha {alpha}): {}-op history passes per-get + version-regression rules",
                log.len()
            );
        }
    }
    Ok(())
}

fn phase_stream() -> Result<(), String> {
    let mut total = 0usize;
    for name in STREAM_ALGORITHMS {
        let mut per_algo = 0usize;
        for (shape_idx, &(max_size, write_percent, ignore_size)) in
            STREAM_SHAPES.iter().enumerate()
        {
            for (window, chunk) in [(1u64, 1usize), (100, 13), (500, 997), (64, 100_000)] {
                let cfg = FuzzConfig {
                    seed: 0x57AE_A001
                        ^ ((shape_idx as u64) << 16)
                        ^ (window << 32)
                        ^ chunk as u64,
                    requests: 1_500,
                    max_size,
                    write_percent,
                    ..FuzzConfig::default()
                };
                match fuzz_stream(name, 48, window, chunk, ignore_size, &cfg) {
                    Ok(n) => per_algo += n,
                    Err(d) => return Err(format!("{d}")),
                }
            }
        }
        println!("  {name}: {per_algo} streamed requests bit-identical to in-memory");
        total += per_algo;
    }
    println!(
        "  total: {total} streamed requests across {} shapes",
        STREAM_SHAPES.len()
    );
    Ok(())
}

/// Distinct schedules the clean loom-lite models must explore in all.
const MIN_SCHEDULES: usize = 10_000;

type Scenario = Box<dyn Fn() + Send + Sync>;

fn phase_loom() -> Result<(), String> {
    let clean: [(&str, Scenario); 14] = [
        ("ring 2p/1c", Box::new(ring_scenario(2, 2, 2, 3, RingOrderings::correct()))),
        ("ring 1p/2-pop", Box::new(ring_scenario(2, 1, 3, 2, RingOrderings::correct()))),
        ("shard evict-vs-overwrite", Box::new(evict_overwrite_scenario(Mutant::None))),
        (
            "shard evict-vs-delete-and-revive",
            Box::new(evict_delete_revive_scenario(Mutant::None)),
        ),
        ("shard promote-vs-delete", Box::new(promote_delete_scenario(Mutant::None))),
        (
            "shardlock reader-vs-writer",
            Box::new(reader_writer_scenario(LockVariant::Correct)),
        ),
        (
            "shardlock 2-readers-vs-writer",
            Box::new(two_readers_writer_scenario(LockVariant::Correct)),
        ),
        (
            "shardlock 2-writers-vs-gated-reader",
            Box::new(writers_gated_reader_scenario(LockVariant::Correct)),
        ),
        (
            "shardlock reader-meets-flag",
            Box::new(reader_meets_flag_scenario(LockVariant::Correct)),
        ),
        ("lru lock order", Box::new(lru_lock_order_scenario(LruVariant::Correct))),
        (
            "drain shutdown-vs-request",
            Box::new(drain_race_scenario(DrainVariant::Correct)),
        ),
        (
            "drain shutdown-vs-2-workers",
            Box::new(drain_two_workers_scenario(DrainVariant::Correct)),
        ),
        ("incbuf slot handoff", Box::new(incbuf_handoff_scenario(IncVariant::Correct))),
        (
            "incbuf claim contention",
            Box::new(incbuf_contention_scenario(IncVariant::Correct)),
        ),
    ];
    let mutants: [(&str, Scenario); 15] = [
        (
            "ring (relaxed pop seq load)",
            Box::new(ring_scenario(2, 1, 1, 2, RingOrderings::broken_pop_seq_load())),
        ),
        (
            "ring (relaxed publish)",
            Box::new(ring_scenario(2, 1, 1, 2, RingOrderings::broken_push_publish())),
        ),
        (
            "shard (overwrite pushes a second handle)",
            Box::new(evict_overwrite_scenario(Mutant::OverwritePushes)),
        ),
        (
            "shard (tombstone released twice)",
            Box::new(evict_delete_revive_scenario(Mutant::TombstoneReleasesTwice)),
        ),
        (
            "shard (ghost before settle)",
            Box::new(evict_delete_revive_scenario(Mutant::GhostBeforeSettle)),
        ),
        (
            "shardlock (flag read before lane published)",
            Box::new(reader_writer_scenario(LockVariant::FlagBeforeLane)),
        ),
        (
            "shardlock (sweep before flag)",
            Box::new(reader_writer_scenario(LockVariant::SweepBeforeFlag)),
        ),
        (
            "shardlock (relaxed lane clear)",
            Box::new(two_readers_writer_scenario(LockVariant::RelaxedLaneClear)),
        ),
        (
            "shardlock (relaxed flag clear)",
            Box::new(reader_writer_scenario(LockVariant::RelaxedFlagClear)),
        ),
        (
            "shardlock (backed-out reader keeps its lane)",
            Box::new(reader_meets_flag_scenario(LockVariant::BackoutKeepsLane)),
        ),
        (
            "lru (get holds its shard across core)",
            Box::new(lru_lock_order_scenario(LruVariant::GetHoldsShard)),
        ),
        (
            "drain (check before join)",
            Box::new(drain_race_scenario(DrainVariant::CheckThenJoin)),
        ),
        (
            "drain (relaxed completion)",
            Box::new(drain_race_scenario(DrainVariant::RelaxedComplete)),
        ),
        (
            "incbuf (relaxed claim)",
            Box::new(incbuf_handoff_scenario(IncVariant::RelaxedClaim)),
        ),
        (
            "incbuf (relaxed release)",
            Box::new(incbuf_handoff_scenario(IncVariant::RelaxedRelease)),
        ),
    ];
    let cfg = Config {
        preemption_bound: 2,
        max_schedules: 200_000,
        stop_on_failure: true,
    };
    let mut bad = Vec::new();
    let mut schedules = 0usize;
    for (name, scenario) in clean {
        let r = cfg.explore(scenario);
        schedules += r.schedules;
        if let Some(f) = r.failures.first() {
            let msg = f.messages.join("; ");
            bad.push(format!("{name}: {msg}\n  schedule: {:?}", f.schedule));
        } else if !r.exhausted {
            bad.push(format!("{name}: schedule cap hit at {} without exhausting", r.schedules));
        } else {
            println!("  {name}: ok ({} schedules, exhaustive at bound 2)", r.schedules);
        }
    }
    println!("  {schedules} distinct schedules across clean models (floor {MIN_SCHEDULES})");
    if schedules < MIN_SCHEDULES {
        bad.push(format!("{schedules} clean schedules, below the floor of {MIN_SCHEDULES}"));
    }
    for (name, scenario) in mutants {
        let r = cfg.explore(scenario);
        match r.failures.first() {
            Some(f) => println!(
                "  mutant {name}: caught after {} schedules ({})",
                r.schedules,
                f.messages.first().map_or("", String::as_str)
            ),
            None => bad.push(format!(
                "mutant {name}: planted bug NOT caught in {} schedules",
                r.schedules
            )),
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}

type Phase = fn() -> Result<(), String>;

/// How long a phase may run before the gate gives up on it: the whole gate
/// takes seconds, so a phase still running after this is stuck.
const PHASE_LIMIT: Duration = Duration::from_secs(120);

fn main() -> ExitCode {
    let phases: [(&str, Phase); 7] = [
        ("differential fuzz (reference vs keyed vs dense)", phase_differential),
        ("MRC differential (multi-capacity engines vs per-capacity reference)", phase_mrc),
        ("invariant sweep (every policy wrapped in Checked)", phase_invariants),
        ("linearizability-lite on logged torture histories", phase_linearizability),
        ("monotonic-version regression rules on logged histories", phase_monotonic),
        ("streamed .ctr replay differential (out-of-core vs in-memory)", phase_stream),
        ("loom-lite interleaving exploration (clean models + planted mutants)", phase_loom),
    ];
    for (title, run) in phases {
        println!("check_gate: {title}");
        let started = Instant::now();
        // Each phase on its own thread, so one that never ends is reported
        // rather than waited on; returning from `main` ends it.
        let (done, result) = mpsc::channel();
        std::thread::spawn(move || done.send(run()));
        match result.recv_timeout(PHASE_LIMIT) {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => {
                eprintln!("check_gate FAILED in {title}:\n{msg}");
                return ExitCode::FAILURE;
            }
            Err(RecvTimeoutError::Timeout) => {
                let limit = PHASE_LIMIT.as_secs();
                eprintln!("check_gate FAILED in {title}: no result after {limit} s");
                return ExitCode::FAILURE;
            }
            Err(RecvTimeoutError::Disconnected) => {
                eprintln!("check_gate FAILED in {title}: the phase panicked");
                return ExitCode::FAILURE;
            }
        }
        println!("  ({:.2} s)", started.elapsed().as_secs_f64());
    }
    println!("check_gate: all phases passed");
    ExitCode::SUCCESS
}
