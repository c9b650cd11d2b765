//! CI gate binary for the cache-lint crate.
//!
//! ```text
//! cache_lint [--root DIR] [lint|loom|all]
//! ```
//!
//! - `lint`: run the workspace lint pass (per-file rules plus the
//!   interprocedural lock analysis). Nonzero exit on any diagnostic.
//!   That every rule still fires is `tests/fixtures.rs`'s job: it pins
//!   each fixture's exact `(rule, line)` set.
//! - `loom`: exhaustively explore the loom-lite models (correct variants
//!   must be clean, planted mutants must be caught) and enforce the
//!   interleaving-coverage floor.
//! - `all` (default): both.
//!
//! Each phase prints its wall-clock time; `ci.sh` enforces the combined
//! budget.

use cache_lint::loomlite::{Config, Report};
use cache_lint::models::drain::{drain_race_scenario, drain_two_workers_scenario, DrainVariant};
use cache_lint::models::incbuf::{incbuf_contention_scenario, incbuf_handoff_scenario, IncVariant};
use cache_lint::models::ring::{ring_scenario, RingOrderings};
use cache_lint::models::shard::{
    evict_delete_revive_scenario, evict_overwrite_scenario, promote_delete_scenario, Mutant,
};
use cache_lint::models::shardlock::{
    reader_meets_flag_scenario, reader_writer_scenario, two_readers_writer_scenario,
    writers_gated_reader_scenario, LockVariant,
};
use cache_lint::walk::lint_workspace;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Interleaving-coverage floor the loom gate enforces (per acceptance
/// criteria: >= 10k distinct schedules across the clean model runs).
const MIN_SCHEDULES: usize = 10_000;

fn run_lint(root: &Path) -> bool {
    let report = match lint_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            println!("cache-lint: FAIL — cannot walk workspace at {}: {e}", root.display());
            return false;
        }
    };
    println!(
        "cache-lint: scanned {} files, {} diagnostic(s)",
        report.files_scanned,
        report.diagnostics.len()
    );
    for d in &report.diagnostics {
        println!("{d}");
    }
    if report.diagnostics.is_empty() {
        println!("cache-lint: workspace clean");
        true
    } else {
        println!("cache-lint: FAIL");
        false
    }
}

fn cfg() -> Config {
    Config {
        preemption_bound: 2,
        max_schedules: 200_000,
        stop_on_failure: true,
    }
}

fn expect_clean(name: &str, r: &Report, schedules: &mut usize, ok: &mut bool) {
    *schedules += r.schedules;
    if !r.failures.is_empty() {
        println!(
            "loom-lite: {name}: FAIL — {}",
            r.failures[0].messages.join("; ")
        );
        println!("           schedule: {:?}", r.failures[0].schedule);
        *ok = false;
    } else if !r.exhausted {
        println!(
            "loom-lite: {name}: FAIL — schedule cap hit at {} without exhausting",
            r.schedules
        );
        *ok = false;
    } else {
        println!(
            "loom-lite: {name}: ok ({} schedules, exhaustive at bound 2)",
            r.schedules
        );
    }
}

fn expect_caught(name: &str, r: &Report, ok: &mut bool) {
    if r.failures.is_empty() {
        println!(
            "loom-lite: {name}: FAIL — planted bug NOT caught ({} schedules)",
            r.schedules
        );
        *ok = false;
    } else {
        println!(
            "loom-lite: {name}: mutant caught after {} schedules ({})",
            r.schedules,
            r.failures[0]
                .messages
                .first()
                .map(String::as_str)
                .unwrap_or("")
        );
    }
}

fn run_loom() -> bool {
    let mut ok = true;
    let mut schedules = 0usize;

    // Clean models: every bounded-preemption interleaving must hold the
    // invariants and be free of data races.
    expect_clean(
        "ring 2p/1c",
        &cfg().explore(ring_scenario(2, 2, 2, 3, RingOrderings::correct())),
        &mut schedules,
        &mut ok,
    );
    expect_clean(
        "ring 1p/2-pop",
        &cfg().explore(ring_scenario(2, 1, 3, 2, RingOrderings::correct())),
        &mut schedules,
        &mut ok,
    );
    expect_clean(
        "shard evict-vs-overwrite",
        &cfg().explore(evict_overwrite_scenario(Mutant::None)),
        &mut schedules,
        &mut ok,
    );
    expect_clean(
        "shard evict-vs-delete-and-revive",
        &cfg().explore(evict_delete_revive_scenario(Mutant::None)),
        &mut schedules,
        &mut ok,
    );
    expect_clean(
        "shard promote-vs-delete",
        &cfg().explore(promote_delete_scenario(Mutant::None)),
        &mut schedules,
        &mut ok,
    );
    expect_clean(
        "shardlock reader-vs-writer",
        &cfg().explore(reader_writer_scenario(LockVariant::Correct)),
        &mut schedules,
        &mut ok,
    );
    expect_clean(
        "shardlock 2-readers-vs-writer",
        &cfg().explore(two_readers_writer_scenario(LockVariant::Correct)),
        &mut schedules,
        &mut ok,
    );
    expect_clean(
        "shardlock 2-writers-vs-gated-reader",
        &cfg().explore(writers_gated_reader_scenario(LockVariant::Correct)),
        &mut schedules,
        &mut ok,
    );
    expect_clean(
        "shardlock reader-meets-flag",
        &cfg().explore(reader_meets_flag_scenario(LockVariant::Correct)),
        &mut schedules,
        &mut ok,
    );
    expect_clean(
        "drain shutdown-vs-request",
        &cfg().explore(drain_race_scenario(DrainVariant::Correct)),
        &mut schedules,
        &mut ok,
    );
    expect_clean(
        "drain shutdown-vs-2-workers",
        &cfg().explore(drain_two_workers_scenario(DrainVariant::Correct)),
        &mut schedules,
        &mut ok,
    );
    expect_clean(
        "incbuf slot handoff",
        &cfg().explore(incbuf_handoff_scenario(IncVariant::Correct)),
        &mut schedules,
        &mut ok,
    );
    expect_clean(
        "incbuf claim contention",
        &cfg().explore(incbuf_contention_scenario(IncVariant::Correct)),
        &mut schedules,
        &mut ok,
    );

    // Mutation smoke: the checker must catch each planted bug, or its
    // green runs above mean nothing.
    expect_caught(
        "ring mutant (relaxed pop seq load)",
        &cfg().explore(ring_scenario(2, 1, 1, 2, RingOrderings::broken_pop_seq_load())),
        &mut ok,
    );
    expect_caught(
        "ring mutant (relaxed publish)",
        &cfg().explore(ring_scenario(2, 1, 1, 2, RingOrderings::broken_push_publish())),
        &mut ok,
    );
    expect_caught(
        "shard mutant (overwrite pushes a second handle)",
        &cfg().explore(evict_overwrite_scenario(Mutant::OverwritePushes)),
        &mut ok,
    );
    expect_caught(
        "shard mutant (tombstone released twice)",
        &cfg().explore(evict_delete_revive_scenario(Mutant::TombstoneReleasesTwice)),
        &mut ok,
    );
    expect_caught(
        "shard mutant (ghost before settle)",
        &cfg().explore(evict_delete_revive_scenario(Mutant::GhostBeforeSettle)),
        &mut ok,
    );
    expect_caught(
        "shardlock mutant (flag read before lane published)",
        &cfg().explore(reader_writer_scenario(LockVariant::FlagBeforeLane)),
        &mut ok,
    );
    expect_caught(
        "shardlock mutant (sweep before flag)",
        &cfg().explore(reader_writer_scenario(LockVariant::SweepBeforeFlag)),
        &mut ok,
    );
    expect_caught(
        "shardlock mutant (relaxed lane clear)",
        &cfg().explore(two_readers_writer_scenario(LockVariant::RelaxedLaneClear)),
        &mut ok,
    );
    expect_caught(
        "shardlock mutant (relaxed flag clear)",
        &cfg().explore(reader_writer_scenario(LockVariant::RelaxedFlagClear)),
        &mut ok,
    );
    expect_caught(
        "shardlock mutant (backed-out reader keeps its lane)",
        &cfg().explore(reader_meets_flag_scenario(LockVariant::BackoutKeepsLane)),
        &mut ok,
    );
    expect_caught(
        "drain mutant (check before join)",
        &cfg().explore(drain_race_scenario(DrainVariant::CheckThenJoin)),
        &mut ok,
    );
    expect_caught(
        "drain mutant (relaxed completion)",
        &cfg().explore(drain_race_scenario(DrainVariant::RelaxedComplete)),
        &mut ok,
    );
    expect_caught(
        "incbuf mutant (relaxed claim)",
        &cfg().explore(incbuf_handoff_scenario(IncVariant::RelaxedClaim)),
        &mut ok,
    );
    expect_caught(
        "incbuf mutant (relaxed release)",
        &cfg().explore(incbuf_handoff_scenario(IncVariant::RelaxedRelease)),
        &mut ok,
    );

    println!(
        "loom-lite: {schedules} distinct schedules across clean models (floor {MIN_SCHEDULES})"
    );
    if schedules < MIN_SCHEDULES {
        println!("loom-lite: FAIL — coverage below floor");
        ok = false;
    }
    if ok {
        println!("loom-lite: all models ok");
    }
    ok
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut mode = String::from("all");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                root = PathBuf::from(args.next().unwrap_or_else(|| ".".into()));
            }
            "lint" | "loom" | "all" => mode = a,
            other => {
                eprintln!("cache_lint: unknown argument `{other}`");
                eprintln!("usage: cache_lint [--root DIR] [lint|loom|all]");
                return ExitCode::from(2);
            }
        }
    }
    let mut ok = true;
    let started = std::time::Instant::now();
    let timed = |name: &str, f: &mut dyn FnMut() -> bool, ok: &mut bool| {
        let t = std::time::Instant::now();
        *ok &= f();
        println!("cache_lint: phase {name} took {:.2}s", t.elapsed().as_secs_f64());
    };
    if mode == "lint" || mode == "all" {
        timed("lint", &mut || run_lint(&root), &mut ok);
    }
    if mode == "loom" || mode == "all" {
        timed("loom", &mut || run_loom(), &mut ok);
    }
    println!("cache_lint: total {:.2}s", started.elapsed().as_secs_f64());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
