//! The per-file source rules.
//!
//! Every rule reports `file:line`, a message, and a fix hint. There are no
//! waivers: a diagnostic is fixed in the code.
//!
//! | id           | requirement                                                       |
//! |--------------|-------------------------------------------------------------------|
//! | `L-ORDERING` | every fn doing atomic ops names `Ordering::*` explicitly and has an `ORDERING:` comment |
//! | `L-SEQCST`   | `Ordering::SeqCst` needs an `ORDERING:` comment that says "SeqCst" |
//! | `L-PANIC`    | non-test `.unwrap()` is banned; `.expect(` needs an invariant comment |
//!
//! `// SAFETY:` on `unsafe` is clippy's `undocumented_unsafe_blocks`, denied
//! workspace-wide.
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` fns) is exempt from
//! `L-PANIC` but NOT from the concurrency rules — a racy test is still a
//! bug. CLI binaries under `src/bin/` are exempt from `L-PANIC` only
//! (top-level tools may panic on malformed input; clippy still warns).

use crate::lexer::{FnSpan, Scanned};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id, e.g. `L-PANIC`.
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub msg: String,
    /// How to fix it.
    pub hint: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    hint: {}",
            self.path, self.line, self.rule, self.msg, self.hint
        )
    }
}

/// Atomic read-modify-write / load / store method names that demand an
/// explicitly named `Ordering`.
const ATOMIC_OPS: &[&str] = &[
    ".load(",
    ".store(",
    ".compare_exchange(",
    ".compare_exchange_weak(",
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_and(",
    ".fetch_or(",
    ".fetch_xor(",
    ".fetch_nand(",
    ".fetch_update(",
    ".fetch_max(",
    ".fetch_min(",
];

/// Lints one scanned file; `is_bin` marks `src/bin/**` CLI entry points.
pub fn lint_file(path: &str, scanned: &Scanned, is_bin: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    rule_ordering(path, scanned, &mut out);
    if !is_bin {
        rule_panic(path, scanned, &mut out);
    }
    out
}

fn diag(
    rule: &'static str,
    path: &str,
    line: usize,
    msg: String,
    hint: &str,
) -> Diagnostic {
    Diagnostic {
        rule,
        path: path.to_string(),
        line,
        msg,
        hint: hint.to_string(),
    }
}

/// Collects, per function, the lines with atomic ops, whether every op names
/// an `Ordering::`, and whether SeqCst appears.
fn rule_ordering(path: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    // Group atomic-op lines by enclosing fn (file-level consts etc. get a
    // pseudo-span of their own line).
    let mut per_fn: Vec<(Option<FnSpan>, Vec<usize>)> = Vec::new();
    for (i, line) in s.lines.iter().enumerate() {
        let ln = i + 1;
        if !ATOMIC_OPS.iter().any(|op| line.code.contains(op)) {
            continue;
        }
        let f = s.enclosing_fn(ln);
        match per_fn.iter_mut().find(|(g, _)| *g == f) {
            Some((_, lines)) => lines.push(ln),
            None => per_fn.push((f, vec![ln])),
        }
    }
    for (span, op_lines) in per_fn {
        // The op itself (possibly wrapped by rustfmt) must name the ordering
        // explicitly: `Ordering::X` for std atomics, `Ord::X` for the
        // loom-lite model atomics (`cache_check::loomlite::sync::Ord`), or a
        // self.ord.* field on a model parameterized over orderings.
        for &ln in &op_lines {
            // A rustfmt-wrapped compare_exchange puts its orderings up to
            // four lines below the method name; scan that far.
            let window: String = s.lines[ln - 1..(ln + 4).min(s.lines.len())]
                .iter()
                .map(|l| l.code.as_str())
                .collect::<Vec<_>>()
                .join("\n");
            if !window.contains("Ordering::") && !window.contains("Ord::") && !window.contains(".ord.") {
                out.push(diag(
                    "L-ORDERING",
                    path,
                    ln,
                    "atomic operation without an explicitly named `Ordering::...`".into(),
                    "spell the ordering at the call site (no `use Ordering::*` shorthand)",
                ));
            }
        }
        // The enclosing fn (body or the comment block above the decl) must
        // carry an ORDERING: comment justifying the choices.
        let (lo, hi, anchor) = match span {
            Some(f) => (f.decl_line, f.body_end, f.decl_line),
            None => (op_lines[0], op_lines[0], op_lines[0]),
        };
        let mut commented = s.comment_block_above(anchor).contains("ORDERING:");
        let mut seqcst_justified = s.comment_block_above(anchor).contains("SeqCst");
        for i in lo..=hi {
            let c = &s.lines[i - 1].comment;
            if c.contains("ORDERING:") {
                commented = true;
                if c.contains("SeqCst") {
                    seqcst_justified = true;
                }
            }
        }
        if !commented {
            out.push(diag(
                "L-ORDERING",
                path,
                anchor,
                "function performs atomic operations but has no `// ORDERING:` comment".into(),
                "add `// ORDERING: <why these memory orderings are sufficient>` in or above the fn",
            ));
        }
        let seqcst_lines: Vec<usize> = op_lines
            .iter()
            .copied()
            .filter(|&ln| {
                s.lines[ln - 1..(ln + 4).min(s.lines.len())]
                    .iter()
                    .any(|l| l.code.contains("Ordering::SeqCst"))
            })
            .collect();
        if !seqcst_lines.is_empty() && !seqcst_justified {
            out.push(diag(
                "L-SEQCST",
                path,
                seqcst_lines[0],
                "`Ordering::SeqCst` without an `// ORDERING:` comment mentioning SeqCst".into(),
                "justify why the total order is needed (or downgrade to Acquire/Release/Relaxed)",
            ));
        }
    }
}

/// L-PANIC: `.unwrap()` banned outside tests; `.expect(` needs a nearby
/// invariant comment (the PR-1 robustness convention).
fn rule_panic(path: &str, s: &Scanned, out: &mut Vec<Diagnostic>) {
    for (i, line) in s.lines.iter().enumerate() {
        let ln = i + 1;
        if s.in_test(ln) {
            continue;
        }
        if line.code.contains(".unwrap()") {
            out.push(diag(
                "L-PANIC",
                path,
                ln,
                "`.unwrap()` in non-test code".into(),
                "return an error, use `unwrap_or_else`, or `.expect(\"...\")` with an invariant comment",
            ));
        }
        if line.code.contains(".expect(") {
            // Accept a comment on the line, directly above, or within the
            // 4 preceding lines (the existing invariant-comment style puts
            // the comment above the statement, which may wrap).
            let mut ok = !line.comment.trim().is_empty();
            let lo = ln.saturating_sub(4).max(1);
            for j in lo..ln {
                if !s.lines[j - 1].comment.trim().is_empty() {
                    ok = true;
                    break;
                }
            }
            if !ok {
                out.push(diag(
                    "L-PANIC",
                    path,
                    ln,
                    "`.expect(...)` without a nearby comment naming the invariant".into(),
                    "add a comment within 4 lines above explaining why this cannot fail",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn run(src: &str) -> Vec<Diagnostic> {
        lint_file("mem.rs", &scan(src), false)
    }

    #[test]
    fn atomic_without_ordering_comment_flags() {
        let d = run("fn f(a: &AtomicUsize) -> usize {\n    a.load(Ordering::Relaxed)\n}\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "L-ORDERING");
    }

    #[test]
    fn atomic_with_fn_level_comment_passes() {
        let d = run(
            "// ORDERING: Relaxed is fine, the counter is monotonic.\nfn f(a: &AtomicUsize) -> usize {\n    a.load(Ordering::Relaxed)\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unnamed_ordering_flags() {
        let d = run(
            "fn f(a: &AtomicUsize) -> usize {\n    // ORDERING: relaxed counter.\n    a.load(Relaxed)\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("explicitly named"));
    }

    #[test]
    fn seqcst_needs_naming_in_comment() {
        let flagged = run(
            "fn f(a: &AtomicUsize) {\n    // ORDERING: counters.\n    a.fetch_add(1, Ordering::SeqCst);\n}\n",
        );
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert_eq!(flagged[0].rule, "L-SEQCST");
        let clean = run(
            "fn f(a: &AtomicUsize) {\n    // ORDERING: SeqCst — checker needs a total order.\n    a.fetch_add(1, Ordering::SeqCst);\n}\n",
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn unwrap_flags_outside_tests_only() {
        let d = run("fn f() {\n    x().unwrap();\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { y().unwrap(); }\n}\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn expect_needs_nearby_comment() {
        let flagged = run("fn f() {\n    x().expect(\"boom\");\n}\n");
        assert_eq!(flagged.len(), 1);
        let clean = run("fn f() {\n    // Invariant: x is always Some after new().\n    x().expect(\"set in new\");\n}\n");
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn bins_skip_panic_rule() {
        let d = lint_file("src/bin/tool.rs", &scan("fn main() {\n    x().unwrap();\n}\n"), true);
        assert!(d.is_empty());
    }

    #[test]
    fn strings_never_trigger_rules() {
        let d = run("fn f() {\n    let s = \"unsafe .unwrap() .lock() .lock()\";\n}\n");
        assert!(d.is_empty(), "{d:?}");
    }
}
