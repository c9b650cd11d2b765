//! A lightweight line-oriented Rust scanner.
//!
//! The lint rules in this crate need four things from a source file: the
//! code text with comments and string literals stripped (so tokens inside
//! strings never trigger rules), the comment text per line (so rules can
//! look for `ORDERING:` markers), the ranges of test-only code
//! (`#[cfg(test)]` modules and `#[test]` functions are exempt from the
//! panic rule), and function spans (the ordering and lock-order rules are
//! function-granular). A full parser (`syn`) would be overkill and is not
//! available offline, so this module is a hand-rolled state machine in the
//! same shim-first spirit as `crates/shims`.
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

impl Line {
    /// True when the line holds no code tokens (blank or comment-only).
    pub fn is_code_free(&self) -> bool {
        self.code.trim().is_empty()
    }
}

/// A function (or method) body span, 1-based inclusive line numbers.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Line holding the `fn` keyword.
    pub decl_line: usize,
    /// Line of the opening `{`.
    pub body_start: usize,
    /// Line of the matching `}`.
    pub body_end: usize,
    /// The function's name (the identifier after `fn`).
    pub name: String,
    /// Name of the `impl` block's self type when the fn is a method
    /// (`impl Foo { fn m(..) }` or `impl Trait for Foo { .. }` both give
    /// `Foo`); `None` for free functions.
    pub impl_ty: Option<String>,
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
            .cloned()
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

    // Token stream with flat positions for keyword detection.
    let mut fns = Vec::new();
    let mut tests = Vec::new();
    // `impl` block regions as (start_line, end_line, self_type_name);
    // assigned to fn spans afterwards (innermost region wins).
    let mut impls: Vec<(usize, usize, String)> = Vec::new();
    let mut pending_cfg_test: Option<usize> = None; // line of #[cfg(test)]
    let mut pending_test_attr: Option<usize> = None; // line of #[test]

    let mut k = 0;
    let mut depth = 0i64; // brace depth, to tell `impl T {` from `-> impl Trait`
    while k < flat.len() {
        let (ln, c) = flat[k];
        if !(c.is_alphabetic() || c == '_' || c == '#') {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
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
                // Find the body's opening brace (skip to first '{' or ';').
                let mut j = k;
                let mut open = None;
                while j < flat.len() {
                    match flat[j].1 {
                        '{' => {
                            open = Some(j);
                            break;
                        }
                        ';' => break,
                        _ => j += 1,
                    }
                }
                if let Some(open_idx) = open {
                    if let Some(close_idx) = close_of(open_idx) {
                        // The fn's name is the first word after `fn`.
                        let mut n = k;
                        while n < flat.len() && !(flat[n].1.is_alphanumeric() || flat[n].1 == '_') {
                            n += 1;
                        }
                        let mut name = String::new();
                        while n < flat.len() && (flat[n].1.is_alphanumeric() || flat[n].1 == '_') {
                            name.push(flat[n].1);
                            n += 1;
                        }
                        let span = FnSpan {
                            decl_line: ln,
                            body_start: flat[open_idx].0,
                            body_end: flat[close_idx].0,
                            name,
                            impl_ty: None, // assigned below from impl regions
                        };
                        let body_end = span.body_end;
                        fns.push(span);
                        if pending_test_attr.take().is_some() {
                            tests.push((ln, body_end));
                        }
                        // `#[cfg(test)] fn` (rare) is also test-only.
                        if pending_cfg_test == Some(ln)
                            || pending_cfg_test.map(|a| ln.saturating_sub(a) <= 3) == Some(true)
                        {
                            if let Some(a) = pending_cfg_test.take() {
                                tests.push((a, body_end));
                            }
                        }
                    }
                }
            }
            "impl" if depth == 0 && !impl_in_return_position(&flat, start) => {
                // `impl<..> Type {` or `impl<..> Trait for Type {`: record the
                // self type's region so methods can be resolved by type name.
                let mut j = k;
                let mut open = None;
                while j < flat.len() {
                    match flat[j].1 {
                        '{' => {
                            open = Some(j);
                            break;
                        }
                        ';' => break,
                        _ => j += 1,
                    }
                }
                if let Some(open_idx) = open {
                    if let Some(close_idx) = close_of(open_idx) {
                        let header: String =
                            flat[k..open_idx].iter().map(|&(_, ch)| ch).collect();
                        if let Some(ty) = impl_self_type(&header) {
                            impls.push((flat[open_idx].0, flat[close_idx].0, ty));
                        }
                    }
                }
            }
            "mod" => {
                if let Some(attr_ln) = pending_cfg_test {
                    // Find the module's opening brace.
                    let mut j = k;
                    let mut open = None;
                    while j < flat.len() {
                        match flat[j].1 {
                            '{' => {
                                open = Some(j);
                                break;
                            }
                            ';' => break,
                            _ => j += 1,
                        }
                    }
                    if let Some(open_idx) = open {
                        if let Some(close_idx) = close_of(open_idx) {
                            tests.push((attr_ln, flat[close_idx].0));
                        }
                    }
                    pending_cfg_test = None;
                }
            }
            _ => {}
        }
    }
    // Innermost impl region containing the declaration names the method's
    // self type (impl blocks do not nest in practice, so "innermost" is
    // just "the one that contains it").
    for f in &mut fns {
        f.impl_ty = impls
            .iter()
            .filter(|&&(a, b, _)| a <= f.decl_line && f.decl_line <= b)
            .max_by_key(|&&(a, _, _)| a)
            .map(|(_, _, ty)| ty.clone());
    }
    (fns, tests)
}

/// True when the `impl` keyword at flat index `start` is a return-position
/// or argument-position `impl Trait` rather than an `impl` block: the
/// previous non-whitespace char is then punctuation like `>`, `(`, `,`, or
/// `:` instead of `}`, `;`, `]`, or nothing.
fn impl_in_return_position(flat: &[(usize, char)], start: usize) -> bool {
    flat[..start]
        .iter()
        .rev()
        .map(|&(_, c)| c)
        .find(|c| !c.is_whitespace())
        .is_some_and(|c| matches!(c, '>' | '(' | ',' | ':' | '&' | '<' | '=' | '+' | '|'))
}

/// Extracts the self type name from an impl header (the text between the
/// `impl` keyword and the opening brace): generics are stripped, a
/// `Trait for` prefix is skipped, and only the last path segment is kept.
fn impl_self_type(header: &str) -> Option<String> {
    // Drop generic parameter/argument lists (balanced angle brackets).
    let mut depth = 0u32;
    let mut flat = String::new();
    for c in header.chars() {
        match c {
            '<' => depth += 1,
            '>' => depth = depth.saturating_sub(1),
            _ if depth == 0 => flat.push(c),
            _ => {}
        }
    }
    let toks: Vec<&str> = flat.split_whitespace().collect();
    let target = match toks.iter().position(|&t| t == "for") {
        Some(i) => &toks[i + 1..],
        None => &toks[..],
    };
    let ty = target
        .iter()
        .map(|t| t.trim_matches(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':')))
        .find(|t| !t.is_empty() && !matches!(*t, "mut" | "dyn" | "const"))?;
    let last = ty.rsplit("::").next().unwrap_or(ty);
    (!last.is_empty()).then(|| last.to_string())
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
    fn fn_names_and_impl_types_are_extracted() {
        let src = "\
fn free() { 1; }
impl<'a, T: Clone> Widget<'a, T> {
    pub fn method(&self) { 2; }
}
impl std::fmt::Display for Gadget {
    fn fmt(&self) { 3; }
}
fn returns_opaque() -> impl Iterator<Item = u8> {
    std::iter::empty()
}
";
        let s = scan(src);
        let by_name: Vec<(&str, Option<&str>)> = s
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_ty.as_deref()))
            .collect();
        assert_eq!(
            by_name,
            vec![
                ("free", None),
                ("method", Some("Widget")),
                ("fmt", Some("Gadget")),
                ("returns_opaque", None),
            ],
            "{:#?}",
            s.fns
        );
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
