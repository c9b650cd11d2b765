//! Fixture-based pinning of the lint rule catalog.
//!
//! Each file under `fixtures/` exhibits one rule's violations (and the
//! matching clean form) at known line numbers; these tests assert the exact
//! `(rule, line)` sets so any drift in a rule's trigger conditions — a rule
//! that stops firing included — fails loudly. The final test lints the real workspace from source — the same
//! gate `ci.sh` runs through the `cache_lint` binary — so the suite cannot
//! pass while the tree itself is dirty.
//!
//! The fixtures are plain text to the linter and are never compiled (they
//! live outside any `src/`, so neither cargo nor clippy sees them).

use cache_lint::lexer::scan;
use cache_lint::rules::{lint_file, Diagnostic};
use std::path::Path;

/// Lints one fixture file end-to-end (per-file rules + the interprocedural
/// lock analysis) and returns the diagnostics, sorted like the workspace
/// driver.
fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    // Invariant: fixtures ship with the crate, next to this test.
    let text = std::fs::read_to_string(&path).expect("fixture exists");
    let s = scan(&text);
    let mut out = lint_file(name, &s, false);
    out.extend(cache_lint::locks::analyze(&[(name.to_string(), s)]));
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

fn rule_lines(diags: &[Diagnostic]) -> Vec<(&str, usize)> {
    diags.iter().map(|d| (d.rule, d.line)).collect()
}

#[test]
fn ordering_fixture_flags_missing_comment_unnamed_ordering_and_seqcst() {
    let d = lint_fixture("ordering.rs");
    assert_eq!(
        rule_lines(&d),
        vec![("L-ORDERING", 10), ("L-ORDERING", 16), ("L-SEQCST", 21)],
        "{d:#?}"
    );
    // The fn-level diagnostic anchors at the declaration, the per-op one at
    // the call, and the SeqCst one at the store.
    assert!(d[0].msg.contains("no `// ORDERING:`"), "{}", d[0].msg);
    assert!(d[1].msg.contains("explicitly named"), "{}", d[1].msg);
    assert!(d[2].msg.contains("SeqCst"), "{}", d[2].msg);
}

#[test]
fn panic_fixture_flags_unwrap_and_bare_expect_but_not_tests() {
    let d = lint_fixture("panic.rs");
    assert_eq!(
        rule_lines(&d),
        vec![("L-PANIC", 5), ("L-PANIC", 9)],
        "{d:#?}"
    );
}

#[test]
fn deadlock_clock_fixture_refinds_the_shipped_bug() {
    // The acceptance fixture: the pre-fix `ConcurrentClock::insert` shape
    // must draw BOTH the guard-lifetime diagnostic (the scrutinee temp is
    // the mechanism) and the deadlock cycle (the consequence), and the
    // cycle witness must name both paths.
    let d = lint_fixture("deadlock_clock.rs");
    assert_eq!(
        rule_lines(&d),
        vec![("L-GUARD-LIFETIME", 25), ("L-DEADLOCK", 26)],
        "{d:#?}"
    );
    assert!(d[0].msg.contains("if let"), "{}", d[0].msg);
    let cycle = &d[1].msg;
    assert!(cycle.contains("index -> occupant -> index"), "{cycle}");
    assert!(cycle.contains("`ConcurrentClock::insert`"), "{cycle}");
    assert!(cycle.contains("`ConcurrentClock::claim_slot`"), "{cycle}");
}

#[test]
fn abba_two_fns_fixture_flags_exactly_one_cycle() {
    let d = lint_fixture("abba_two_fns.rs");
    assert_eq!(rule_lines(&d), vec![("L-DEADLOCK", 10)], "{d:#?}");
    assert!(d[0].msg.contains("a -> b -> a"), "{}", d[0].msg);
    assert!(d[0].msg.contains("`forward`"), "{}", d[0].msg);
    assert!(d[0].msg.contains("`backward`"), "{}", d[0].msg);
}

#[test]
fn abba_via_call_fixture_composes_the_cycle_through_the_call_graph() {
    let d = lint_fixture("abba_via_call.rs");
    assert_eq!(rule_lines(&d), vec![("L-DEADLOCK", 25)], "{d:#?}");
    assert!(d[0].msg.contains("data -> meta -> data"), "{}", d[0].msg);
    // The meta -> data leg exists only through refresh's call to reload;
    // the witness must say so.
    assert!(d[0].msg.contains("via call to `self.reload`"), "{}", d[0].msg);
}

#[test]
fn guard_lifetime_fixture_flags_scrutinee_temps_but_not_the_copy_out() {
    let d = lint_fixture("guard_lifetime.rs");
    assert_eq!(
        rule_lines(&d),
        vec![("L-GUARD-LIFETIME", 14), ("L-GUARD-LIFETIME", 21)],
        "{d:#?}"
    );
    assert!(d[0].msg.contains("if let"), "{}", d[0].msg);
    assert!(d[1].msg.contains("match"), "{}", d[1].msg);
}

#[test]
fn drop_release_fixture_is_completely_clean() {
    let d = lint_fixture("drop_release.rs");
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // Invariant: the test binary always runs inside the workspace checkout.
    let report = cache_lint::walk::lint_workspace(&root).expect("workspace readable");
    assert!(
        report.files_scanned > 50,
        "workspace walk found only {} files — discovery broke",
        report.files_scanned
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace must stay lint-clean; run `cache_lint lint` for details:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
