//! The workspace's `unsafe` inventory, held as a test rather than a
//! sentence: every crate but `cache-ds` forbids `unsafe` code, and inside
//! `cache-ds` exactly five files hold it (DESIGN.md §4 names what each one
//! does). "In code" means outside comments and string literals, as
//! `cache-lint`'s scanner sees it.

use std::path::{Path, PathBuf};

/// The `cache-ds` modules allowed to hold `unsafe` code.
const SITES: [&str; 5] = ["huge", "poll", "prefetch", "ring", "shardlock"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `crates/<name>` directory with a `src/`, sorted.
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

/// True when `unsafe` appears as a word in the file's code.
fn has_unsafe_code(path: &Path) -> bool {
    let text = std::fs::read_to_string(path).expect("source file is readable");
    cache_lint::lexer::scan(&text).lines.iter().any(|line| {
        line.code
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .any(|word| word == "unsafe")
    })
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
    let mut found = Vec::new();
    for dir in crate_dirs() {
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files);
        for file in files.iter().filter(|f| has_unsafe_code(f)) {
            let rel = file.strip_prefix(root()).unwrap_or(file);
            found.push(rel.display().to_string());
        }
    }
    found.sort();
    let want: Vec<String> = SITES
        .iter()
        .map(|m| format!("crates/ds/src/{m}.rs"))
        .collect();
    assert_eq!(found, want, "files with `unsafe` in code");
}
