//! A lightweight line-oriented Rust scanner.
//!
//! The source rules need four things from a file: the code text with
//! comments and string literals stripped (so tokens inside strings never
//! trigger rules), the comment text per line (so rules can look for
//! `ORDERING:` markers), the ranges of test-only code (`#[cfg(test)]`
//! modules and `#[test]` functions are exempt from the panic rule), and
//! function spans (the ordering rule is function-granular). A full parser
//! (`syn`) would be overkill and is not available offline, so this module
//! is a hand-rolled state machine in the same shim-first spirit as
//! `crates/shims`.
//!
//! Known approximations, acceptable for this workspace and pinned by the
//! fixture tests:
//! - a `'` is treated as a char literal when a closing quote follows within
//!   a few characters (or after an escape); otherwise it is a lifetime;
//! - brace matching is purely textual over the stripped code, so exotic
//!   token-position macros could confuse spans (none exist here);
//! - `fn` signatures that never open a body (trait method declarations)
//!   produce no span.

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Code text with comments removed and string/char literal *contents*
    /// blanked (quotes retained), safe for token matching.
    pub code: String,
    /// Concatenated text of any comments on this line (line, doc, or block
    /// comment content).
    pub comment: String,
}

/// A function (or method) body span, 1-based inclusive line numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnSpan {
    /// Line holding the `fn` keyword.
    pub decl_line: usize,
    /// Line of the matching `}`.
    pub body_end: usize,
}

/// A fully scanned file.
#[derive(Debug)]
pub struct Scanned {
    /// Lines, index 0 = line 1.
    pub lines: Vec<Line>,
    /// Function spans in declaration order (nested fns included).
    pub fns: Vec<FnSpan>,
    /// 1-based inclusive line ranges of test-only code.
    pub test_regions: Vec<(usize, usize)>,
}

impl Scanned {
    /// True when 1-based `line` falls inside a test region.
    pub fn in_test(&self, line: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// The innermost function span containing 1-based `line`, if any.
    pub fn enclosing_fn(&self, line: usize) -> Option<FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.decl_line <= line && line <= f.body_end)
            .max_by_key(|f| f.decl_line)
            .copied()
    }

    /// Comment text of the contiguous comment block ending directly above
    /// 1-based `line` (attribute-only and blank lines do not break the
    /// block), plus the comment on `line` itself.
    pub fn comment_block_above(&self, line: usize) -> String {
        let mut out = String::new();
        let idx = line - 1;
        let mut i = idx;
        while i > 0 {
            i -= 1;
            let l = &self.lines[i];
            let code = l.code.trim();
            if code.is_empty() && l.comment.is_empty() {
                break; // blank line ends the block
            }
            if code.is_empty() || code.starts_with('#') {
                // Comment-only or attribute line: part of the block.
                out.push_str(&l.comment);
                out.push('\n');
                continue;
            }
            break;
        }
        out.push_str(&self.lines[idx].comment);
        out
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    Block(u32),  // nesting depth of /* */
    Str,         // inside "..."
    RawStr(u32), // inside r##"..."## with N hashes
}

/// Scans `text` into lines, function spans, and test regions.
pub fn scan(text: &str) -> Scanned {
    let lines = strip(text);
    let (fns, test_regions) = spans(&lines);
    Scanned {
        lines,
        fns,
        test_regions,
    }
}

/// Comment/string stripping state machine.
fn strip(text: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut mode = Mode::Code;
    for raw in text.lines() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match mode {
                Mode::Block(depth) => {
                    if c == '*' && next == Some('/') {
                        mode = if depth == 1 {
                            Mode::Code
                        } else {
                            Mode::Block(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        mode = Mode::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                Mode::Str => {
                    if c == '\\' {
                        i += 2; // skip escaped char (blanked anyway)
                    } else if c == '"' {
                        code.push('"');
                        mode = Mode::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                Mode::RawStr(hashes) => {
                    if c == '"' {
                        let mut ok = true;
                        for k in 0..hashes as usize {
                            if chars.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            code.push('"');
                            mode = Mode::Code;
                            i += 1 + hashes as usize;
                            continue;
                        }
                    }
                    i += 1;
                }
                Mode::Code => {
                    if c == '/' && next == Some('/') {
                        // Line (or doc) comment: rest of line is comment.
                        comment.push_str(&raw[byte_pos(raw, i)..]);
                        i = chars.len();
                    } else if c == '/' && next == Some('*') {
                        mode = Mode::Block(1);
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        mode = Mode::Str;
                        i += 1;
                    } else if c == 'r'
                        && !prev_is_ident(&chars, i)
                        && matches!(next, Some('"') | Some('#'))
                        && raw_str_hashes(&chars, i + 1).is_some()
                    {
                        // r"..." or r#"..."# raw string (br"" handled via b)
                        let h = raw_str_hashes(&chars, i + 1).unwrap_or(0);
                        code.push('"');
                        mode = Mode::RawStr(h);
                        i += 2 + h as usize; // r + hashes + quote
                    } else if c == '\'' {
                        // Char literal vs lifetime.
                        if let Some(len) = char_literal_len(&chars, i) {
                            code.push('\'');
                            code.push('\'');
                            i += len;
                        } else {
                            code.push('\'');
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        out.push(Line { code, comment });
    }
    out
}

fn byte_pos(s: &str, char_idx: usize) -> usize {
    s.char_indices()
        .nth(char_idx)
        .map(|(b, _)| b)
        .unwrap_or(s.len())
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// If `chars[start..]` is `#*"`, returns the hash count (raw string opener).
fn raw_str_hashes(chars: &[char], start: usize) -> Option<u32> {
    let mut h = 0u32;
    let mut i = start;
    while chars.get(i) == Some(&'#') {
        h += 1;
        i += 1;
    }
    (chars.get(i) == Some(&'"')).then_some(h)
}

/// If a char literal starts at `chars[i] == '\''`, returns its char length
/// (including both quotes); `None` means lifetime.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1)? {
        '\\' => {
            // Escape: scan to closing quote (bounded).
            let end = (i + 12).min(chars.len());
            chars[(i + 3).min(end)..end]
                .iter()
                .position(|&c| c == '\'')
                .map(|p| p + 4)
        }
        _ => (chars.get(i + 2) == Some(&'\'')).then_some(3),
    }
}

/// Finds function spans and test regions over stripped lines.
fn spans(lines: &[Line]) -> (Vec<FnSpan>, Vec<(usize, usize)>) {
    // Flatten to (line_no, char) for brace matching.
    let flat: Vec<(usize, char)> = lines
        .iter()
        .enumerate()
        .flat_map(|(ln, l)| l.code.chars().map(move |c| (ln + 1, c)))
        .collect();

    let close_of = |open_idx: usize| -> Option<usize> {
        let mut depth = 0i64;
        for (k, &(_, c)) in flat.iter().enumerate().skip(open_idx) {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
                _ => {}
            }
        }
        None
    };

    // The item's opening `{` at or after flat index `from`, unless a `;`
    // ends the item first (a trait method declaration, `mod m;`).
    let open_of = |from: usize| -> Option<usize> {
        let at = from
            + flat[from..]
                .iter()
                .position(|&(_, c)| c == '{' || c == ';')?;
        (flat[at].1 == '{').then_some(at)
    };

    // Token stream with flat positions for keyword detection.
    let mut fns = Vec::new();
    let mut tests = Vec::new();
    let mut pending_cfg_test: Option<usize> = None; // line of #[cfg(test)]
    let mut pending_test_attr: Option<usize> = None; // line of #[test]

    let mut k = 0;
    while k < flat.len() {
        let (ln, c) = flat[k];
        if !(c.is_alphabetic() || c == '_' || c == '#') {
            k += 1;
            continue;
        }
        if c == '#' {
            // Attribute: grab the line's code to classify.
            let code = lines[ln - 1].code.trim();
            if code.contains("#[cfg(test)]")
                || code.contains("#[cfg(all(test")
                || code.contains("#[cfg(any(test")
            {
                pending_cfg_test = Some(ln);
            } else if code.contains("#[test]") {
                pending_test_attr = Some(ln);
            }
            // Skip to end of this line in flat stream.
            while k < flat.len() && flat[k].0 == ln {
                k += 1;
            }
            continue;
        }
        // Read a word.
        let start = k;
        while k < flat.len() {
            let ch = flat[k].1;
            if ch.is_alphanumeric() || ch == '_' {
                k += 1;
            } else {
                break;
            }
        }
        let word: String = flat[start..k].iter().map(|&(_, ch)| ch).collect();
        match word.as_str() {
            "fn" => {
                if let Some(close_idx) = open_of(k).and_then(close_of) {
                    let body_end = flat[close_idx].0;
                    fns.push(FnSpan {
                        decl_line: ln,
                        body_end,
                    });
                    if pending_test_attr.take().is_some() {
                        tests.push((ln, body_end));
                    }
                    // `#[cfg(test)] fn` (rare) is also test-only.
                    if let Some(a) = pending_cfg_test.filter(|&a| ln.saturating_sub(a) <= 3) {
                        pending_cfg_test = None;
                        tests.push((a, body_end));
                    }
                }
            }
            "mod" => {
                if let Some(attr_ln) = pending_cfg_test.take() {
                    if let Some(close_idx) = open_of(k).and_then(close_of) {
                        tests.push((attr_ln, flat[close_idx].0));
                    }
                }
            }
            _ => {}
        }
    }
    (fns, tests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_strings() {
        let s = scan("let x = \"// not a comment\"; // real\nlet y = 'a';\n");
        assert_eq!(s.lines[0].code.trim(), "let x = \"\";");
        assert!(s.lines[0].comment.contains("real"));
        assert_eq!(s.lines[1].code.trim(), "let y = '';");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scan("fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(s.lines[0].code.contains("<'a>"));
        assert_eq!(s.fns.len(), 1);
    }

    #[test]
    fn raw_strings_are_blanked() {
        let s = scan("let x = r#\"unsafe { } .unwrap()\"#;\nlet z = 1;\n");
        assert!(!s.lines[0].code.contains("unsafe"));
        assert!(!s.lines[0].code.contains("unwrap"));
        assert_eq!(s.lines[1].code.trim(), "let z = 1;");
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let s = scan("a(); /* one /* two */ still */ b();\n/* open\nmid\nclose */ c();\n");
        assert!(s.lines[0].code.contains("a();") && s.lines[0].code.contains("b();"));
        assert!(s.lines[1].code.trim().is_empty());
        assert!(s.lines[2].code.trim().is_empty());
        assert!(s.lines[3].code.contains("c();"));
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\nfn live2() {}\n";
        let s = scan(src);
        assert!(!s.in_test(1));
        assert!(s.in_test(3) && s.in_test(5) && s.in_test(6));
        assert!(!s.in_test(7));
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let src = "fn outer() {\n    let c = || {\n        1\n    };\n    fn inner() {\n        2;\n    }\n}\n";
        let s = scan(src);
        assert_eq!(s.fns.len(), 2);
        let f = s.enclosing_fn(6).unwrap();
        assert_eq!(f.decl_line, 5);
        let f = s.enclosing_fn(3).unwrap();
        assert_eq!(f.decl_line, 1);
    }

    #[test]
    fn comment_block_above_spans_contiguous_comments() {
        let src = "fn f() {\n    // SAFETY: the invariant\n    // holds because reasons.\n    unsafe { x() }\n}\n";
        let s = scan(src);
        let block = s.comment_block_above(4);
        assert!(block.contains("SAFETY:"));
        assert!(block.contains("reasons"));
    }
}
