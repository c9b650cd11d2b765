//! The four long docs may only name things that exist: every `--bin <name>`
//! is a binary of some workspace crate, every `--example <name>` a file
//! under `examples/`, every checked-in `BENCH_*.json` is at the root (a
//! `target/BENCH_*.json` is a build artifact and exempt), and every
//! `crates/**/*.rs` path is a file. `benchmark/`, ROADMAP.md and
//! CHANGES.md are history and are not scanned.

use std::path::Path;

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

#[test]
fn docs_name_only_things_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
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
            for (_, tail) in after(line, "crates/", "./") {
                let file = format!("crates/{tail}");
                if file.ends_with(".rs") && !root.join(&file).is_file() {
                    stale_here(file);
                }
            }
        }
    }
    assert!(stale.is_empty(), "stale references:\n{}", stale.join("\n"));
}
