//! Workspace file discovery and the top-level lint driver.

use crate::lexer::{scan, Scanned};
use crate::rules::{lint_file, Diagnostic};
use std::fs;
use std::path::{Path, PathBuf};

/// Collects every `.rs` file under the workspace's lintable roots:
/// `crates/*/src/**` plus the root package's `src/**`.
///
/// `crates/shims/**` is intentionally out of scope (vendored stand-ins for
/// external crates, excluded from the cargo workspace too) and the lint
/// fixtures live outside any `src/` so they are never picked up here.
pub fn lintable_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let dir = entry?.path();
            if dir.file_name().is_some_and(|n| n == "shims") {
                continue;
            }
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Result of a full workspace lint run.
#[derive(Debug)]
pub struct LintReport {
    /// Files scanned, in path order.
    pub files_scanned: usize,
    /// Every diagnostic, sorted by path and line.
    pub diagnostics: Vec<Diagnostic>,
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let paths = lintable_files(root)?;
    let mut scanned_files: Vec<(String, Scanned)> = Vec::new();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for p in &paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(p)?;
        let s = scan(&text);
        let is_bin = rel.contains("/src/bin/");
        diags.extend(lint_file(&rel, &s, is_bin));
        scanned_files.push((rel, s));
    }
    // The interprocedural lock analysis needs every file at once.
    diags.extend(crate::locks::analyze(&scanned_files));
    diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(LintReport {
        files_scanned: paths.len(),
        diagnostics: diags,
    })
}
