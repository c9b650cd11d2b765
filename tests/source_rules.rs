//! The source rules clippy does not check, held as a test over every crate's
//! sources (`crates/*/src/**` and the root `src/**`):
//!
//! - `L-ORDERING`, `L-SEQCST` and `L-PANIC` ([`rules`]): a function doing
//!   atomics names each `Ordering` and says why in an `// ORDERING:`
//!   comment, `SeqCst` is justified by name, and non-test code has no
//!   `.unwrap()` and no `.expect(` without a comment naming its invariant;
//! - the `unsafe` inventory: every crate but `cache-ds` forbids `unsafe`
//!   code, and inside `cache-ds` exactly five files hold it (DESIGN.md §4
//!   names what each one does).
//!
//! Both read the sources through [`lexer`], which strips comments and
//! string literals, so a word inside either never counts. The files under
//! `source_rules/fixtures/` are plain text to it, never compiled; their
//! tests pin each rule's exact `(rule, line)` set, so a rule that stops
//! firing fails here.

#[path = "source_rules/lexer.rs"]
mod lexer;
#[path = "source_rules/rules.rs"]
mod rules;

use lexer::{scan, Scanned};
use rules::{lint_file, Diagnostic};
use std::path::{Path, PathBuf};

/// The `cache-ds` modules allowed to hold `unsafe` code.
const SITES: [&str; 5] = ["huge", "poll", "prefetch", "ring", "shardlock"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `crates/<name>` directory with a `src/`, sorted. `crates/shims`
/// (stand-ins for external crates) has none, so it is not one of them.
fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir)
        .expect("source dir is readable")
        .flatten()
    {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every source file the rules hold, as a root-relative path with `/`
/// separators and its scan, in path order.
fn sources() -> Vec<(String, Scanned)> {
    let mut files = Vec::new();
    for dir in crate_dirs() {
        rust_files(&dir.join("src"), &mut files);
    }
    rust_files(&root().join("src"), &mut files);
    files.sort();
    files
        .iter()
        .map(|file| {
            let rel = file.strip_prefix(root()).unwrap_or(file);
            let text = std::fs::read_to_string(file).expect("source file is readable");
            (rel.to_string_lossy().replace('\\', "/"), scan(&text))
        })
        .collect()
}

/// The rules' findings on one fixture, in line order.
fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let path = root().join("tests/source_rules/fixtures").join(name);
    let text = std::fs::read_to_string(&path).expect("fixture is readable");
    lint_file(name, &scan(&text), false)
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
fn every_source_file_follows_the_rules() {
    let sources = sources();
    assert!(
        sources.len() > 50,
        "found only {} source files: discovery broke",
        sources.len()
    );
    let found: Vec<String> = sources
        .iter()
        .flat_map(|(path, s)| lint_file(path, s, path.contains("/src/bin/")))
        .map(|d| d.to_string())
        .collect();
    assert!(found.is_empty(), "fix the code:\n{}", found.join("\n"));
}

#[test]
fn every_lib_but_cache_ds_forbids_unsafe() {
    let mut missing = Vec::new();
    for dir in crate_dirs() {
        if dir.ends_with("ds") {
            continue;
        }
        let lib = dir.join("src/lib.rs");
        let text = std::fs::read_to_string(&lib).expect("every crate has a lib.rs");
        if !text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]") {
            missing.push(lib.display().to_string());
        }
    }
    assert!(
        missing.is_empty(),
        "no #![forbid(unsafe_code)] in {missing:?}"
    );
}

#[test]
fn unsafe_code_lives_in_five_cache_ds_files() {
    let found: Vec<String> = sources()
        .into_iter()
        .filter(|(_, s)| {
            s.lines.iter().any(|line| {
                line.code
                    .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .any(|word| word == "unsafe")
            })
        })
        .map(|(path, _)| path)
        .collect();
    let want: Vec<String> = SITES
        .iter()
        .map(|m| format!("crates/ds/src/{m}.rs"))
        .collect();
    assert_eq!(found, want, "files with `unsafe` in code");
}
