//! The four long docs may only name things that exist: every `--bin <name>`
//! is a binary of some workspace crate, every `repro <name>` a figure the
//! `repro` driver prints, every `-p <package>` a workspace
//! package, every `--example <name>` a file under `examples/`, every
//! checked-in `BENCH_*.json` is at the root (a `target/BENCH_*.json` is a
//! build artifact and exempt), and every `crates/**/*.rs` path is a file.
//! Every `DESIGN.md §N` (the name in backticks or not) and every `§Nb` —
//! only DESIGN.md numbers a section with a letter; the paper's are `§N.M` —
//! is a heading of DESIGN.md. The same holds for every `crates/**/*.rs`
//! path and section reference in a comment of the workspace's own Rust
//! sources. `benchmark/`, ROADMAP.md and CHANGES.md are history and are not
//! scanned.

use cache_bench::FIGURES;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "TESTING.md"];

/// For each occurrence of `needle` in `line`: the text before it, and the
/// run of identifier characters (plus `extra`) that follows it.
fn after<'a>(
    line: &'a str,
    needle: &'a str,
    extra: &'a str,
) -> impl Iterator<Item = (&'a str, &'a str)> {
    line.match_indices(needle).map(move |(at, _)| {
        let rest = &line[at + needle.len()..];
        let keep = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-' || extra.contains(c);
        let end = rest.find(|c| !keep(c)).unwrap_or(rest.len());
        (&line[..at], rest[..end].trim_end_matches('.'))
    })
}

fn has_bin(root: &Path, name: &str) -> bool {
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ is readable");
    crates.flatten().any(|c| {
        c.path()
            .join("src/bin")
            .join(format!("{name}.rs"))
            .is_file()
    })
}

/// The `[package]` name of every workspace member: the root package, each
/// `crates/<name>` and each `crates/shims/<name>`.
fn packages(root: &Path) -> Vec<String> {
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in [root.join("crates"), root.join("crates/shims")] {
        let entries = std::fs::read_dir(dir).expect("crate dir is readable");
        manifests.extend(entries.flatten().map(|e| e.path().join("Cargo.toml")));
    }
    manifests
        .iter()
        .filter_map(|m| std::fs::read_to_string(m).ok())
        .filter_map(|text| {
            let line = text.lines().find(|l| l.starts_with("name = \""))?;
            Some(line["name = \"".len()..].trim_end_matches('"').to_string())
        })
        .collect()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Each `crates/**/*.rs` path in `text` that is not a file.
fn missing_sources<'a>(root: &'a Path, text: &'a str) -> impl Iterator<Item = String> + 'a {
    after(text, "crates/", "./")
        .map(|(_, tail)| format!("crates/{tail}"))
        .filter(move |file| file.ends_with(".rs") && !root.join(file).is_file())
}

/// The section numbers of DESIGN.md's `## N. ` and `## Nb. ` headings.
fn design_sections(root: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    text.lines()
        .filter_map(|l| l.strip_prefix("## ")?.split_once(". "))
        .map(|(number, _)| number.to_string())
        .filter(|n| n.starts_with(|c: char| c.is_ascii_digit()))
        .collect()
}

/// Each DESIGN.md section reference in `text` that is not one of `sections`.
fn missing_sections<'a>(sections: &'a [String], text: &'a str) -> impl Iterator<Item = String> + 'a {
    after(text, "§", "").filter_map(move |(before, tail)| {
        let digits = tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len());
        let letter = tail[digits..].chars().next().filter(char::is_ascii_lowercase);
        let number = &tail[..digits + letter.map_or(0, char::len_utf8)];
        let named = before.ends_with("DESIGN.md ") || before.ends_with("DESIGN.md` ");
        let design = digits > 0 && (named || letter.is_some());
        (design && !sections.iter().any(|s| s == number)).then(|| format!("DESIGN.md §{number}"))
    })
}

#[test]
fn section_references_are_checked() {
    let sections: Vec<String> = ["5b", "12"].map(String::from).to_vec();
    let found = |text| missing_sections(&sections, text).collect::<Vec<_>>();
    assert_eq!(found("DESIGN.md §13, and `DESIGN.md` §13."), ["DESIGN.md §13"; 2]);
    assert_eq!(found("(§5c) and §12b"), ["DESIGN.md §5c", "DESIGN.md §12b"]);
    assert!(found("DESIGN.md §12's table, (§5b), the paper's §6.2.3 and §13").is_empty());
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(design_sections(root).len() >= 12, "{:?}", design_sections(root));
}

#[test]
fn docs_name_only_things_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let packages = packages(root);
    let sections = design_sections(root);
    let mut stale = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        for (n, line) in text.lines().enumerate() {
            let mut stale_here = |what: String| stale.push(format!("{doc}:{}: {what}", n + 1));
            for (_, name) in after(line, "--bin ", "") {
                if !name.is_empty() && !has_bin(root, name) {
                    stale_here(format!("--bin {name}"));
                }
            }
            for (_, name) in after(line, "repro ", "").chain(after(line, "repro -- ", "")) {
                if !["", "--"].contains(&name) && !FIGURES.iter().any(|(f, _)| *f == name) {
                    stale_here(format!("repro {name}"));
                }
            }
            for (_, name) in after(line, "-p ", "") {
                if !name.is_empty() && !packages.iter().any(|p| p == name) {
                    stale_here(format!("-p {name}"));
                }
            }
            for (_, name) in after(line, "--example ", "") {
                if !name.is_empty() && !root.join("examples").join(format!("{name}.rs")).is_file() {
                    stale_here(format!("--example {name}"));
                }
            }
            for (before, tail) in after(line, "BENCH_", ".") {
                let file = format!("BENCH_{tail}");
                if file.ends_with(".json")
                    && !before.ends_with("target/")
                    && !root.join(&file).is_file()
                {
                    stale_here(file);
                }
            }
            for file in missing_sources(root, line) {
                stale_here(file);
            }
            for section in missing_sections(&sections, line) {
                stale_here(section);
            }
        }
    }
    assert!(stale.is_empty(), "stale references:\n{}", stale.join("\n"));
}

#[test]
fn source_comments_name_only_files_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "found only {} Rust files", files.len());
    let sections = design_sections(root);
    let mut stale = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source file is readable");
        for (n, line) in text.lines().enumerate() {
            let Some(at) = line.find("//") else {
                continue;
            };
            let comment = &line[at..];
            for missing in missing_sources(root, comment).chain(missing_sections(&sections, comment)) {
                let rel = file.strip_prefix(root).unwrap_or(file);
                stale.push(format!("{}:{}: {missing}", rel.display(), n + 1));
            }
        }
    }
    assert!(stale.is_empty(), "stale references in comments:\n{}", stale.join("\n"));
}
