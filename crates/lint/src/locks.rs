//! Interprocedural lock-order and guard-lifetime analysis.
//!
//! This module grows the linter beyond per-line lexical rules: it parses
//! every function body (over the stripped code from [`crate::lexer`]),
//! extracts the sequence of lock acquisitions with guard live ranges
//! computed from Rust 2021 temporary-lifetime rules, composes those
//! sequences across a workspace call graph, and checks the resulting
//! global lock-order graph for cycles.
//!
//! Rules emitted here:
//!
//! | id                 | requirement |
//! |--------------------|-------------|
//! | `L-DEADLOCK`       | the global lock-order graph must be acyclic; a cycle reports both witness paths |
//! | `L-GUARD-LIFETIME` | a guard acquired in an `if let`/`while let`/`match` scrutinee must not be live at a second acquisition (the deadlock shape `fixtures/deadlock_clock.rs` pins) |
//!
//! # Lock identity
//!
//! A lock is named by where it lives, not by which guard variable holds
//! it: `self.core.lock()` inside `impl MutexLru` is the lock
//! `MutexLru.core`, whether reached directly, through an alias
//! (`let core = &self.core; core.lock()`), or through an indexing chain
//! (`self.shards[i].write()` is the lock `MutexLru.shards`). Free-standing locals (`let m = Mutex::new(..)`) get a
//! per-function key and therefore never alias across functions. Two
//! acquisitions of the *same* key never form a graph edge — name-based
//! identity cannot distinguish distinct shard instances, so `a[i]` vs
//! `a[j]` self-edges would be pure noise (the guard-lifetime rule still
//! covers the dangerous same-key re-entry shape).
//!
//! # Guard live ranges (Rust 2021)
//!
//! - `let g = x.lock();` binds the guard until end of scope (passthrough
//!   suffixes `.unwrap()` / `.expect(..)` / `.unwrap_or_else(..)` keep
//!   the binding; any other chained call makes it a statement temporary);
//! - `if let` / `match` scrutinee temporaries live to the end of the
//!   whole construct (every arm / the else branch included);
//! - `while let` scrutinee temporaries live through each body iteration;
//! - `for` iterable temporaries live for the whole loop;
//! - plain `if` / `while` condition temporaries drop at the end of the
//!   condition, before the body runs;
//! - `if let Some(g) = x.try_lock()` / `let Ok(g) = x.lock() else` move
//!   the guard out of the temporary into a binding (not a scrutinee
//!   hazard);
//! - `drop(g)` ends a binding's live range early.
//!
//! # Call graph
//!
//! `self.m(..)` resolves to every method `m` on the enclosing impl type
//! (union across impl blocks — trait-method ambiguity is handled by
//! over-approximating with all candidates); `Type::m(..)` / `Self::m(..)`
//! resolve by type name; free `f(..)` resolves within the same file, then
//! the same crate. Everything else is *unresolved and assumed to acquire
//! nothing*. That default is deliberate: the workspace has no callbacks
//! that take locks, and std/shim calls dominate the unresolved set.
//! Assuming the opposite (unknown calls acquire everything) would drown
//! the graph in false cycles. Recursion is cut off by memoized DFS with an
//! on-stack check.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Scanned;
use crate::rules::Diagnostic;

/// Lock-acquisition method names (with trailing `(`, matched over tokens).
const ACQUIRE_OPS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Method suffixes that pass a guard through unchanged for binding
/// purposes (`let g = x.lock().unwrap();` still binds the guard).
const PASS_THROUGH: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// One token of a function body: an identifier/number run or punctuation.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Id(String),
    P(char),
}

/// `(token, 1-based source line)`.
type LTok = (Tok, usize);

/// How a live guard came to be live — decides both its lifetime and
/// whether a second acquisition under it is an `L-GUARD-LIFETIME` hit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum GKind {
    /// `let g = ...;` binding: lives to scope end or `drop(g)`.
    Bound,
    /// Temporary inside a plain statement: dies at `;`.
    StmtTemp,
    /// Temporary in a plain `if`/`while` condition: dies before the body.
    CondTemp,
    /// Temporary in a `for` iterable: lives through the whole loop.
    IterTemp,
    /// Temporary in an `if let`/`while let`/`match` scrutinee: lives to
    /// the construct's end — the hazardous kind.
    Scrut(&'static str),
}

/// A currently-live guard during the body walk.
#[derive(Debug, Clone)]
struct Guard {
    /// Full lock key, e.g. `MutexLru.core`.
    key: String,
    /// Short name (final segment), e.g. `core`.
    short: String,
    /// Acquisition line.
    line: usize,
    kind: GKind,
    /// Binding name when `kind == Bound` via `let` (for `drop(g)`).
    name: Option<String>,
}

/// A direct acquisition site inside one function.
#[derive(Debug, Clone)]
struct Site {
    key: String,
    short: String,
    op: String,
}

/// An observed hold-edge: `from` held while `to` is acquired.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    from_short: String,
    to: String,
    to_short: String,
    /// Line of the second acquisition (or of the call that composes it).
    line: usize,
    /// `to` acquired with a blocking op (non-`try_*`) — only blocking
    /// targets can close a deadlock cycle.
    blocking: bool,
    /// Present for composed edges: the callee whose body acquires `to`.
    via: Option<String>,
}

/// A call site with the guards held across it.
#[derive(Debug, Clone)]
struct Call {
    callee: Callee,
    line: usize,
    held: Vec<Guard>,
}

#[derive(Debug, Clone)]
enum Callee {
    /// `self.m(..)` — resolves via the enclosing impl type.
    SelfM(String),
    /// `Type::m(..)` or `Self::m(..)`.
    Typed(String, String),
    /// Free `f(..)` — resolves same-file then same-crate.
    Free(String),
}

/// Everything extracted from one function body.
#[derive(Debug)]
struct FnFacts {
    /// File path (workspace-relative).
    path: String,
    /// `Type::name` or bare `name` — for witness reporting.
    qual_name: String,
    /// Plain fn name.
    name: String,
    /// Enclosing impl type, if a method.
    impl_ty: Option<String>,
    sites: Vec<Site>,
    edges: Vec<Edge>,
    calls: Vec<Call>,
    /// (scrutinee guard, second-acquisition short name, second line).
    lifetime_hits: Vec<(Guard, String, usize)>,
}

/// Runs the whole-workspace lock analysis over scanned files.
///
/// `files` pairs workspace-relative paths (with `/` separators) with
/// their [`Scanned`] contents. Diagnostics come back sorted by
/// `(path, line, rule)`.
pub fn analyze(files: &[(String, Scanned)]) -> Vec<Diagnostic> {
    let mut fns: Vec<FnFacts> = Vec::new();
    for (path, s) in files {
        extract_file(path, s, &mut fns);
    }
    let mut out = check(&fns);
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });
    out
}

/// File stem (`lru` from `crates/concurrent/src/lru.rs`) — the
/// qualifier for locks in free functions.
fn file_stem(path: &str) -> String {
    let base = path.rsplit('/').next().unwrap_or(path);
    base.strip_suffix(".rs").unwrap_or(base).to_string()
}

/// Crate key for free-fn resolution: `crates/<x>` or `src` (root crate).
fn crate_key(path: &str) -> String {
    let mut it = path.split('/');
    match it.next() {
        Some("crates") => format!("crates/{}", it.next().unwrap_or("")),
        _ => "src".to_string(),
    }
}

/// Tokenizes the body of one fn span: identifier/number runs and single
/// punctuation chars, each tagged with its source line. Lines belonging
/// to a *nested* fn are skipped (they are walked as their own span).
fn tokenize_fn(s: &Scanned, f: &crate::lexer::FnSpan) -> Vec<LTok> {
    let mut toks = Vec::new();
    for ln in f.decl_line..=f.body_end.min(s.lines.len()) {
        // A line belongs to this fn only when this fn is its innermost
        // enclosing span.
        match s.enclosing_fn(ln) {
            Some(inner) if inner.decl_line == f.decl_line => {}
            _ => continue,
        }
        let code = &s.lines[ln - 1].code;
        let mut chars = code.chars().peekable();
        while let Some(c) = chars.next() {
            if c.is_alphanumeric() || c == '_' {
                let mut id = String::new();
                id.push(c);
                while let Some(&n) = chars.peek() {
                    if n.is_alphanumeric() || n == '_' {
                        id.push(n);
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push((Tok::Id(id), ln));
            } else if !c.is_whitespace() {
                toks.push((Tok::P(c), ln));
            }
        }
    }
    toks
}

/// Optional stop tokens for [`Parser::parse_expr`] (depth-0 only).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stop {
    /// `{` opens the construct body (`if`, `while`, `for`, `match`).
    Brace,
    /// `,` ends a match-arm expression body.
    Comma,
    /// `else` ends a let-else initializer.
    Else,
    /// `in` ends a `for` pattern.
    In,
}

/// What one `parse_expr` walk covered.
struct Scan {
    /// Token range `[start, end)` of the expression.
    start: usize,
    end: usize,
    /// Any acquisition happened inside.
    had_acq: bool,
    /// `Some(live index)` when the expression's *value* is a freshly
    /// acquired guard (acquisition, optionally chained through
    /// [`PASS_THROUGH`] suffixes, with nothing after it).
    last: Option<usize>,
}

/// Recursive-descent walk of one tokenized fn body.
struct Parser<'a> {
    toks: Vec<LTok>,
    pos: usize,
    path: &'a str,
    fn_name: String,
    /// Lock qualifier: impl type for methods, file stem for free fns.
    qual: String,
    live: Vec<Guard>,
    /// `local name -> field short name` alias stack.
    aliases: Vec<(String, String)>,
    sites: Vec<Site>,
    edges: Vec<Edge>,
    calls: Vec<Call>,
    hits: Vec<(Guard, String, usize)>,
}

/// Extracts [`FnFacts`] for every fn in one file.
fn extract_file(path: &str, s: &Scanned, out: &mut Vec<FnFacts>) {
    for f in &s.fns {
        let qual = f.impl_ty.clone().unwrap_or_else(|| file_stem(path));
        let mut p = Parser {
            toks: tokenize_fn(s, f),
            pos: 0,
            path,
            fn_name: f.name.clone(),
            qual: qual.clone(),
            live: Vec::new(),
            aliases: Vec::new(),
            sites: Vec::new(),
            edges: Vec::new(),
            calls: Vec::new(),
            hits: Vec::new(),
        };
        // Skip the signature: everything up to the first `{`.
        while let Some((t, _)) = p.toks.get(p.pos) {
            if *t == Tok::P('{') {
                p.pos += 1;
                break;
            }
            p.pos += 1;
        }
        p.parse_block();
        let qual_name = match &f.impl_ty {
            Some(t) => format!("{}::{}", t, f.name),
            None => f.name.clone(),
        };
        out.push(FnFacts {
            path: path.to_string(),
            qual_name,
            name: f.name.clone(),
            impl_ty: f.impl_ty.clone(),
            sites: p.sites,
            edges: p.edges,
            calls: p.calls,
            lifetime_hits: p.hits,
        });
    }
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn peek_at(&self, i: usize) -> Option<&Tok> {
        self.toks.get(self.pos + i).map(|(t, _)| t)
    }

    fn is_id(&self, i: usize, s: &str) -> bool {
        matches!(self.peek_at(i), Some(Tok::Id(id)) if id == s)
    }

    fn is_p(&self, i: usize, c: char) -> bool {
        self.peek_at(i) == Some(&Tok::P(c))
    }

    /// One `{ ... }` scope; assumes the `{` is already consumed.
    fn parse_block(&mut self) {
        let live_mark = self.live.len();
        let alias_mark = self.aliases.len();
        loop {
            match self.peek() {
                None => break,
                Some(Tok::P('}')) => {
                    self.pos += 1;
                    break;
                }
                Some(Tok::P('{')) => {
                    self.pos += 1;
                    self.parse_block();
                }
                Some(Tok::Id(id)) => match id.as_str() {
                    "let" => self.parse_let(),
                    "if" => self.parse_if(),
                    "while" => self.parse_while(),
                    "for" => self.parse_for(),
                    "match" => self.parse_match(),
                    "loop" => {
                        self.pos += 1;
                        self.enter_block();
                    }
                    "unsafe" => self.pos += 1,
                    _ => self.parse_expr_stmt(),
                },
                Some(_) => self.parse_expr_stmt(),
            }
        }
        self.live.truncate(live_mark);
        self.aliases.truncate(alias_mark);
    }

    /// Consumes up to and through the next `{ ... }` block.
    fn enter_block(&mut self) {
        while let Some(t) = self.peek() {
            if *t == Tok::P('{') {
                self.pos += 1;
                self.parse_block();
                return;
            }
            self.pos += 1;
        }
    }

    /// An expression statement: temporaries die at the `;`.
    fn parse_expr_stmt(&mut self) {
        let mark = self.live.len();
        let p0 = self.pos;
        self.parse_expr(&[], GKind::StmtTemp);
        if self.peek() == Some(&Tok::P(';')) {
            self.pos += 1;
        }
        if self.pos == p0 {
            self.pos += 1; // forced progress on stray tokens (desync guard)
        }
        self.live.truncate(mark);
    }

    /// Walks one expression, recording acquisitions (with guard kind
    /// `kind`), calls, and `drop(..)` releases. Always stops (without
    /// consuming) at depth-0 `;`, `}`, a closing bracket of an enclosing
    /// group, a statement-starting `let`, and any of `stops`.
    fn parse_expr(&mut self, stops: &[Stop], kind: GKind) -> Scan {
        let start = self.pos;
        let mut depth = 0i32;
        let mut had_acq = false;
        let mut tail: Option<usize> = None;
        while let Some((t, _)) = self.toks.get(self.pos).cloned() {
            if depth == 0 {
                let stop = match &t {
                    Tok::P(';') | Tok::P('}') => true,
                    Tok::P('{') => stops.contains(&Stop::Brace),
                    Tok::P(',') => stops.contains(&Stop::Comma),
                    Tok::Id(s) if s == "else" => stops.contains(&Stop::Else),
                    Tok::Id(s) if s == "in" => stops.contains(&Stop::In),
                    Tok::Id(s) if s == "let" => true,
                    _ => false,
                };
                if stop {
                    break;
                }
            }
            match t {
                Tok::P('(') | Tok::P('[') => {
                    depth += 1;
                    self.pos += 1;
                    tail = None;
                }
                Tok::P(')') | Tok::P(']') => {
                    if depth == 0 {
                        break; // closing an enclosing group
                    }
                    depth -= 1;
                    self.pos += 1;
                    tail = None;
                }
                Tok::P('{') => {
                    // Block expression / struct literal / closure body.
                    self.pos += 1;
                    self.parse_block();
                    tail = None;
                }
                Tok::P('}') => break, // unbalanced: bail out safely
                Tok::Id(id) => {
                    match id.as_str() {
                        // Construct keywords delegate only at depth 0: a
                        // depth-0 `if` here really starts an if-expression,
                        // while inside parens/brackets the token is far
                        // more likely a match-arm guard (`matches!(x,
                        // Some(k) if k == y)`) whose "body" brace does not
                        // exist — delegating there mangles the walk. At
                        // depth > 0 any real block still parses via the
                        // `{` arm.
                        "if" if depth == 0 => self.parse_if(),
                        "match" if depth == 0 => self.parse_match(),
                        "while" if depth == 0 => self.parse_while(),
                        "for" if depth == 0 => self.parse_for(),
                        "loop" if depth == 0 => {
                            self.pos += 1;
                            self.enter_block();
                        }
                        "drop" if self.is_drop_release() => self.handle_drop(),
                        _ => {
                            if self.is_acquisition() {
                                let idx = self.handle_acquisition(kind);
                                self.consume_passthroughs();
                                had_acq = true;
                                tail = idx;
                                continue;
                            }
                            self.maybe_record_call();
                            self.pos += 1;
                            tail = None;
                            continue;
                        }
                    }
                    tail = None;
                }
                Tok::P(_) => {
                    self.pos += 1;
                    tail = None;
                }
            }
        }
        Scan { start, end: self.pos, had_acq, last: tail }
    }

    /// `drop ( ident )` — an early guard release.
    fn is_drop_release(&self) -> bool {
        self.is_p(1, '(') && matches!(self.peek_at(2), Some(Tok::Id(_))) && self.is_p(3, ')')
    }

    fn handle_drop(&mut self) {
        if let Some(Tok::Id(name)) = self.peek_at(2).cloned() {
            self.live.retain(|g| g.name.as_deref() != Some(name.as_str()));
        }
        self.pos += 4;
    }

    /// True when `pos` sits on `.op()` with an [`ACQUIRE_OPS`] method and
    /// *empty* argument list (`.write(buf)` on an io sink never matches),
    /// and the receiver is not bare `self` (that is a method call).
    fn is_acquisition(&self) -> bool {
        let Some(Tok::Id(op)) = self.peek() else {
            return false;
        };
        if !ACQUIRE_OPS.contains(&op.as_str()) || !self.is_p(1, '(') || !self.is_p(2, ')') {
            return false;
        }
        if self.pos == 0 || self.toks[self.pos - 1].0 != Tok::P('.') {
            return false;
        }
        // Bare `self.lock()` is a method call, not a field acquisition.
        !(self.pos >= 2
            && self.toks[self.pos - 2].0 == Tok::Id("self".to_string())
            && (self.pos < 3 || self.toks[self.pos - 3].0 != Tok::P('.')))
    }

    /// Resolves the receiver of the `.op()` at `pos` into a lock key.
    /// Returns `(key, short)`.
    fn receiver_key(&self, line: usize) -> (String, String) {
        // Index of the token before the `.`.
        let mut j = self.pos as i64 - 2;
        // Skip trailing `[..]` / `(..)` groups backwards (indexing chains
        // like `self.index[shard]`).
        while j >= 0 {
            let close = match self.toks[j as usize].0 {
                Tok::P(']') => ('[', ']'),
                Tok::P(')') => ('(', ')'),
                _ => break,
            };
            let mut depth = 0i32;
            while j >= 0 {
                match &self.toks[j as usize].0 {
                    Tok::P(c) if *c == close.1 => depth += 1,
                    Tok::P(c) if *c == close.0 => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j -= 1;
            }
            j -= 1; // token before the opening bracket
            // A `(..)` group preceded by an identifier is a call result:
            // the receiver is opaque.
            if close.0 == '(' {
                if let Some((Tok::Id(_), _)) = (j >= 0).then(|| &self.toks[j as usize]) {
                    j = -1;
                }
                break;
            }
        }
        if j >= 0 {
            if let Tok::Id(name) = &self.toks[j as usize].0 {
                let prev_dot = j >= 1 && self.toks[j as usize - 1].0 == Tok::P('.');
                if prev_dot {
                    // Field access through any chain: `{qual}.{field}`.
                    return (format!("{}.{}", self.qual, name), name.clone());
                }
                // Bare local: alias to a field, or per-fn local key.
                if let Some((_, field)) =
                    self.aliases.iter().rev().find(|(n, _)| n == name)
                {
                    return (format!("{}.{}", self.qual, field), field.clone());
                }
                return (
                    format!("{}::{}::{}", self.path, self.fn_name, name),
                    name.clone(),
                );
            }
        }
        // Opaque receiver (call result, parenthesized expr, ...).
        (
            format!("{}::{}::<expr:{}>", self.path, self.fn_name, line),
            "<expr>".to_string(),
        )
    }

    /// Records the acquisition at `pos` (`.op()`), emitting hold edges
    /// and guard-lifetime hits against every live guard, then pushes the
    /// new guard with lifetime `kind`. Consumes `op ( )`.
    fn handle_acquisition(&mut self, kind: GKind) -> Option<usize> {
        let Some((Tok::Id(op), line)) = self.toks.get(self.pos).cloned() else {
            return None;
        };
        let (key, short) = self.receiver_key(line);
        let blocking = !op.starts_with("try_");
        for g in &self.live {
            if let GKind::Scrut(_) = g.kind {
                self.hits.push((g.clone(), short.clone(), line));
            }
            if g.key != key {
                self.edges.push(Edge {
                    from: g.key.clone(),
                    from_short: g.short.clone(),
                    to: key.clone(),
                    to_short: short.clone(),
                    line,
                    blocking,
                    via: None,
                });
            }
        }
        self.sites.push(Site {
            key: key.clone(),
            short: short.clone(),
            op: op.clone(),
        });
        self.live.push(Guard {
            key,
            short,
            line,
            kind,
            name: None,
        });
        self.pos += 3; // op ( )
        Some(self.live.len() - 1)
    }

    /// Consumes a chain of [`PASS_THROUGH`] suffixes after an
    /// acquisition: `.unwrap()`, `.expect(..)`, `.unwrap_or_else(..)`.
    fn consume_passthroughs(&mut self) {
        loop {
            let is_pass = self.is_p(0, '.')
                && matches!(self.peek_at(1), Some(Tok::Id(p)) if PASS_THROUGH.contains(&p.as_str()))
                && self.is_p(2, '(');
            if !is_pass {
                return;
            }
            self.pos += 3; // . name (
            let mut depth = 1i32;
            while depth > 0 {
                match self.peek() {
                    Some(Tok::P('(')) => depth += 1,
                    Some(Tok::P(')')) => depth -= 1,
                    None => return,
                    _ => {}
                }
                self.pos += 1;
            }
        }
    }

    /// Records `self.m(..)`, `Type::m(..)` / `Self::m(..)`, and free
    /// `f(..)` call sites, with the guards currently held.
    fn maybe_record_call(&mut self) {
        let Some((Tok::Id(name), line)) = self.toks.get(self.pos).cloned() else {
            return;
        };
        if !self.is_p(1, '(') {
            return;
        }
        let prev = (self.pos >= 1).then(|| &self.toks[self.pos - 1].0);
        let callee = match prev {
            Some(Tok::P('.')) => {
                // Method call: only `self.m(..)` resolves.
                let bare_self = self.pos >= 2
                    && self.toks[self.pos - 2].0 == Tok::Id("self".to_string())
                    && (self.pos < 3 || self.toks[self.pos - 3].0 != Tok::P('.'));
                if !bare_self {
                    return;
                }
                Callee::SelfM(name)
            }
            Some(Tok::P(':')) if self.pos >= 3 && self.toks[self.pos - 2].0 == Tok::P(':') => {
                match &self.toks[self.pos - 3].0 {
                    Tok::Id(t) => Callee::Typed(t.clone(), name),
                    _ => return,
                }
            }
            Some(Tok::P(':')) => return,
            _ => {
                const KEYWORDS: &[&str] = &[
                    "if", "match", "while", "for", "loop", "return", "move", "as", "in",
                    "let", "else", "break", "continue", "unsafe", "drop", "fn", "dyn",
                ];
                if KEYWORDS.contains(&name.as_str())
                    || !name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                {
                    return;
                }
                Callee::Free(name)
            }
        };
        self.calls.push(Call {
            callee,
            line,
            held: self.live.clone(),
        });
    }

    /// Consumes pattern tokens up to (not through) a depth-0 `=`;
    /// returns the `[start, end)` range. Also stops at `;`/closing
    /// brackets so malformed input cannot run away.
    fn scan_pattern_to_eq(&mut self) -> (usize, usize) {
        let ps = self.pos;
        let mut depth = 0i32;
        loop {
            match self.peek() {
                None => break,
                Some(Tok::P(c)) => {
                    let c = *c;
                    match c {
                        '(' | '[' | '{' => depth += 1,
                        ')' | ']' | '}' => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        '=' | ';' if depth == 0 => break,
                        _ => {}
                    }
                    self.pos += 1;
                }
                Some(Tok::Id(_)) => self.pos += 1,
            }
        }
        (ps, self.pos)
    }

    /// `[mut] ident` (with an optional `: Type` annotation cut off) — a
    /// plain binding pattern.
    fn plain_binding(&self, ps: usize, pe: usize) -> Option<String> {
        let toks = &self.toks[ps..pe.min(self.toks.len())];
        let cut = toks
            .iter()
            .position(|(t, _)| *t == Tok::P(':'))
            .unwrap_or(toks.len());
        let t: Vec<&Tok> = toks[..cut]
            .iter()
            .map(|(t, _)| t)
            .filter(|x| !matches!(x, Tok::Id(s) if s == "mut" || s == "ref"))
            .collect();
        match t.as_slice() {
            [Tok::Id(n)]
                if n.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                    && n.as_str() != "_" =>
            {
                Some((*n).clone())
            }
            _ => None,
        }
    }

    /// `Some([mut] ident)` / `Ok([mut] ident)` — a pattern that moves the
    /// matched guard out of the scrutinee into a binding.
    fn wrapped_binding(&self, ps: usize, pe: usize) -> Option<String> {
        let t: Vec<&Tok> = self.toks[ps..pe.min(self.toks.len())]
            .iter()
            .map(|(t, _)| t)
            .filter(|x| !matches!(x, Tok::Id(s) if s == "mut" || s == "ref"))
            .collect();
        match t.as_slice() {
            [Tok::Id(w), Tok::P('('), Tok::Id(n), Tok::P(')')]
                if (w.as_str() == "Some" || w.as_str() == "Ok")
                    && n.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                    && n.as_str() != "_" =>
            {
                Some((*n).clone())
            }
            _ => None,
        }
    }

    /// All lowercase identifiers bound by a pattern (for aliasing).
    fn pattern_idents(&self, ps: usize, pe: usize) -> Vec<String> {
        self.toks[ps..pe.min(self.toks.len())]
            .iter()
            .filter_map(|(t, _)| match t {
                Tok::Id(s)
                    if s.starts_with(|c: char| c.is_ascii_lowercase())
                        && !matches!(
                            s.as_str(),
                            "mut" | "ref" | "box" | "self" | "if" | "in" | "as"
                        ) =>
                {
                    Some(s.clone())
                }
                _ => None,
            })
            .collect()
    }

    /// When an acquisition-free RHS is a reference/chain rooted at a
    /// lock field (`&self.index`, `self.index[i]`, `self.index.iter()`,
    /// or an already-aliased local), returns the final field segment so
    /// the bound/iterated name can alias it.
    fn rhs_alias(&self, start: usize, end: usize) -> Option<String> {
        let toks: Vec<&Tok> = self.toks[start..end.min(self.toks.len())]
            .iter()
            .map(|(t, _)| t)
            .collect();
        let mut i = 0;
        while i < toks.len() {
            match toks[i] {
                Tok::P('&') => i += 1,
                Tok::Id(s) if s == "mut" => i += 1,
                _ => break,
            }
        }
        let mut field: Option<String> = None;
        match toks.get(i) {
            Some(Tok::Id(s)) if s.as_str() == "self" => {}
            Some(Tok::Id(s)) => {
                field = self
                    .aliases
                    .iter()
                    .rev()
                    .find(|(n, _)| n == s)
                    .map(|(_, f)| f.clone());
                field.as_ref()?;
            }
            _ => return None,
        }
        i += 1;
        while i < toks.len() {
            match toks[i] {
                Tok::P('.') => match toks.get(i + 1) {
                    Some(Tok::Id(f)) => {
                        // `.field` updates the alias target; `.method(..)`
                        // does not (iter/get/etc. still yield field items).
                        if toks.get(i + 2) != Some(&&Tok::P('(')) {
                            field = Some(f.clone());
                        }
                        i += 2;
                    }
                    _ => i += 1,
                },
                Tok::P('[') | Tok::P('(') => {
                    let (open, close) = if *toks[i] == Tok::P('[') {
                        ('[', ']')
                    } else {
                        ('(', ')')
                    };
                    let mut depth = 0i32;
                    while i < toks.len() {
                        match toks[i] {
                            Tok::P(c) if *c == open => depth += 1,
                            Tok::P(c) if *c == close => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                    i += 1;
                }
                _ => break,
            }
        }
        field
    }

    fn parse_let(&mut self) {
        self.pos += 1; // `let`
        let (ps, pe) = self.scan_pattern_to_eq();
        if self.peek() != Some(&Tok::P('=')) {
            // `let x;` or malformed — nothing to track.
            if self.peek() == Some(&Tok::P(';')) {
                self.pos += 1;
            }
            return;
        }
        let plain = self.plain_binding(ps, pe);
        let wrapped = self.wrapped_binding(ps, pe);
        self.pos += 1; // `=`
        let mark = self.live.len();
        let scan = self.parse_expr(&[Stop::Else], GKind::StmtTemp);
        if self.is_id(0, "else") {
            // let-else: a diverging no-match arm; `Some(g)`/`Ok(g)`
            // patterns move the guard out into a binding.
            self.pos += 1;
            self.enter_block();
            if self.peek() == Some(&Tok::P(';')) {
                self.pos += 1;
            }
            let kept = scan.last.zip(wrapped).map(|(idx, name)| {
                let mut g = self.live[idx].clone();
                g.kind = GKind::Bound;
                g.name = Some(name);
                g
            });
            self.live.truncate(mark);
            self.live.extend(kept);
            return;
        }
        if self.peek() == Some(&Tok::P(';')) {
            self.pos += 1;
        }
        if let Some((idx, name)) = scan.last.zip(plain.clone()) {
            let mut g = self.live[idx].clone();
            g.kind = GKind::Bound;
            g.name = Some(name);
            self.live.truncate(mark);
            self.live.push(g);
            return;
        }
        self.live.truncate(mark);
        if !scan.had_acq {
            if let Some((name, field)) = plain.zip(self.rhs_alias(scan.start, scan.end)) {
                self.aliases.push((name, field));
            }
        }
    }

    fn parse_if(&mut self) {
        self.pos += 1; // `if`
        let alias_mark = self.aliases.len();
        let mark = self.live.len();
        if self.is_id(0, "let") {
            self.pos += 1;
            let (ps, pe) = self.scan_pattern_to_eq();
            let wrapped = self.wrapped_binding(ps, pe);
            let idents = self.pattern_idents(ps, pe);
            if self.peek() == Some(&Tok::P('=')) {
                self.pos += 1;
            }
            let scan = self.parse_expr(&[Stop::Brace], GKind::Scrut("if let"));
            let mut moved: Option<(String, usize)> = None;
            if let Some((idx, name)) = scan.last.zip(wrapped) {
                self.live[idx].kind = GKind::Bound;
                self.live[idx].name = Some(name.clone());
                moved = Some((name, self.live[idx].line));
            }
            if !scan.had_acq {
                if let Some(field) = self.rhs_alias(scan.start, scan.end) {
                    for id in idents {
                        self.aliases.push((id, field.clone()));
                    }
                }
            }
            self.enter_block();
            // A moved-out binding exists only inside the then-block.
            if let Some((name, gline)) = moved {
                if let Some(p) = self
                    .live
                    .iter()
                    .position(|g| g.name.as_deref() == Some(name.as_str()) && g.line == gline)
                {
                    self.live.remove(p);
                }
            }
            self.parse_else();
            // Scrutinee temporaries die at the end of the whole construct.
            self.live.truncate(mark);
        } else {
            self.parse_expr(&[Stop::Brace], GKind::CondTemp);
            // Plain-condition temporaries die before the body runs.
            self.live.truncate(mark);
            self.enter_block();
            self.parse_else();
        }
        self.aliases.truncate(alias_mark);
    }

    fn parse_else(&mut self) {
        if self.is_id(0, "else") {
            self.pos += 1;
            if self.is_id(0, "if") {
                self.parse_if();
            } else {
                self.enter_block();
            }
        }
    }

    fn parse_while(&mut self) {
        self.pos += 1; // `while`
        let alias_mark = self.aliases.len();
        let mark = self.live.len();
        if self.is_id(0, "let") {
            self.pos += 1;
            let (ps, pe) = self.scan_pattern_to_eq();
            let wrapped = self.wrapped_binding(ps, pe);
            let idents = self.pattern_idents(ps, pe);
            if self.peek() == Some(&Tok::P('=')) {
                self.pos += 1;
            }
            let scan = self.parse_expr(&[Stop::Brace], GKind::Scrut("while let"));
            if let Some((idx, name)) = scan.last.zip(wrapped) {
                self.live[idx].kind = GKind::Bound;
                self.live[idx].name = Some(name);
            }
            if !scan.had_acq {
                if let Some(field) = self.rhs_alias(scan.start, scan.end) {
                    for id in idents {
                        self.aliases.push((id, field.clone()));
                    }
                }
            }
            self.enter_block();
        } else {
            self.parse_expr(&[Stop::Brace], GKind::CondTemp);
            self.live.truncate(mark);
            self.enter_block();
        }
        self.live.truncate(mark);
        self.aliases.truncate(alias_mark);
    }

    fn parse_for(&mut self) {
        self.pos += 1; // `for`
        let alias_mark = self.aliases.len();
        let ps = self.pos;
        let mut depth = 0i32;
        loop {
            match self.peek() {
                None => break,
                Some(Tok::Id(s)) if s == "in" && depth == 0 => break,
                Some(Tok::P(c)) => {
                    let c = *c;
                    match c {
                        '(' | '[' | '{' => depth += 1,
                        ')' | ']' | '}' => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        _ => {}
                    }
                    self.pos += 1;
                }
                Some(Tok::Id(_)) => self.pos += 1,
            }
        }
        let pe = self.pos;
        let idents = self.pattern_idents(ps, pe);
        if self.is_id(0, "in") {
            self.pos += 1;
        }
        let mark = self.live.len();
        let scan = self.parse_expr(&[Stop::Brace], GKind::IterTemp);
        if !scan.had_acq {
            if let Some(field) = self.rhs_alias(scan.start, scan.end) {
                for id in idents {
                    self.aliases.push((id, field.clone()));
                }
            }
        }
        self.enter_block();
        // The iterable temporary lives for the whole loop; it dies here.
        self.live.truncate(mark);
        self.aliases.truncate(alias_mark);
    }

    fn parse_match(&mut self) {
        self.pos += 1; // `match`
        let alias_mark = self.aliases.len();
        let mark = self.live.len();
        let scan = self.parse_expr(&[Stop::Brace], GKind::Scrut("match"));
        let scrut_field = if scan.had_acq {
            None
        } else {
            self.rhs_alias(scan.start, scan.end)
        };
        if self.peek() != Some(&Tok::P('{')) {
            self.live.truncate(mark);
            self.aliases.truncate(alias_mark);
            return;
        }
        self.pos += 1;
        loop {
            let p0 = self.pos;
            match self.peek() {
                None => break,
                Some(Tok::P('}')) => {
                    self.pos += 1;
                    break;
                }
                _ => {}
            }
            // Arm pattern (with optional `if` guard) up to depth-0 `=>`.
            let ps = self.pos;
            let mut depth = 0i32;
            loop {
                match self.peek() {
                    None => break,
                    Some(Tok::P('=')) if depth == 0 && self.is_p(1, '>') => break,
                    Some(Tok::P(c)) => {
                        let c = *c;
                        match c {
                            '(' | '[' | '{' => depth += 1,
                            ')' | ']' | '}' => {
                                if depth == 0 {
                                    break;
                                }
                                depth -= 1;
                            }
                            _ => {}
                        }
                        self.pos += 1;
                    }
                    Some(Tok::Id(_)) => self.pos += 1,
                }
            }
            let pe = self.pos;
            if self.is_p(0, '=') && self.is_p(1, '>') {
                self.pos += 2;
                let amark = self.aliases.len();
                if let Some(f) = &scrut_field {
                    for id in self.pattern_idents(ps, pe) {
                        self.aliases.push((id, f.clone()));
                    }
                }
                let bmark = self.live.len();
                if self.peek() == Some(&Tok::P('{')) {
                    self.pos += 1;
                    self.parse_block();
                } else {
                    self.parse_expr(&[Stop::Comma], GKind::StmtTemp);
                }
                if self.peek() == Some(&Tok::P(',')) {
                    self.pos += 1;
                }
                self.live.truncate(bmark);
                self.aliases.truncate(amark);
            }
            if self.pos == p0 {
                self.pos += 1; // forced progress on malformed input
            }
        }
        // Scrutinee temporaries die at the end of the whole `match`.
        self.live.truncate(mark);
        self.aliases.truncate(alias_mark);
    }
}

// ---------------------------------------------------------------------------
// Second pass: call graph, composed edges, cycle detection.
// ---------------------------------------------------------------------------

/// A lock set acquired (transitively) by a fn: key -> (short, blocking).
type LockSet = BTreeMap<String, (String, bool)>;

/// Transitive lock closure of fn `i` with memoization and an on-stack
/// recursion cutoff (recursive cycles contribute what their first
/// traversal saw — a sound under-then-over approximation for a linter).
fn closure_of(
    i: usize,
    fns: &[FnFacts],
    targets: &[Vec<Vec<usize>>],
    memo: &mut Vec<Option<LockSet>>,
    stack: &mut Vec<bool>,
) -> LockSet {
    if let Some(m) = &memo[i] {
        return m.clone();
    }
    if stack[i] {
        return LockSet::new();
    }
    stack[i] = true;
    let mut acc = LockSet::new();
    for s in &fns[i].sites {
        let e = acc.entry(s.key.clone()).or_insert((s.short.clone(), false));
        e.1 |= !s.op.starts_with("try_");
    }
    for tgt in &targets[i] {
        for &t in tgt {
            for (k, (sh, b)) in closure_of(t, fns, targets, memo, stack) {
                let e = acc.entry(k).or_insert((sh, false));
                e.1 |= b;
            }
        }
    }
    stack[i] = false;
    memo[i] = Some(acc.clone());
    acc
}

/// One concrete source location backing a lock-order edge.
#[derive(Debug, Clone)]
struct Witness {
    path: String,
    line: usize,
    func: String,
    via: Option<String>,
    from_short: String,
    to_short: String,
}

fn diag(rule: &'static str, path: &str, line: usize, msg: String, hint: &str) -> Diagnostic {
    Diagnostic { rule, path: path.to_string(), line, msg, hint: hint.to_string() }
}

/// The global pass over all extracted fn facts.
fn check(fns: &[FnFacts]) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // --- Call-graph resolution maps.
    let mut by_type: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut by_file: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut by_crate: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        match &f.impl_ty {
            Some(t) => by_type.entry((t.clone(), f.name.clone())).or_default().push(i),
            None => {
                by_file.entry((f.path.clone(), f.name.clone())).or_default().push(i);
                by_crate
                    .entry((crate_key(&f.path), f.name.clone()))
                    .or_default()
                    .push(i);
            }
        }
    }
    let resolve = |caller: &FnFacts, c: &Callee| -> Vec<usize> {
        match c {
            Callee::SelfM(m) => caller
                .impl_ty
                .as_ref()
                .and_then(|t| by_type.get(&(t.clone(), m.clone())))
                .cloned()
                .unwrap_or_default(),
            Callee::Typed(t, m) => {
                let t = if t == "Self" {
                    match &caller.impl_ty {
                        Some(x) => x.clone(),
                        None => return Vec::new(),
                    }
                } else {
                    t.clone()
                };
                by_type.get(&(t, m.clone())).cloned().unwrap_or_default()
            }
            Callee::Free(n) => by_file
                .get(&(caller.path.clone(), n.clone()))
                .or_else(|| by_crate.get(&(crate_key(&caller.path), n.clone())))
                .cloned()
                .unwrap_or_default(),
        }
    };
    let targets: Vec<Vec<Vec<usize>>> = fns
        .iter()
        .map(|f| f.calls.iter().map(|c| resolve(f, &c.callee)).collect())
        .collect();
    let mut memo: Vec<Option<LockSet>> = vec![None; fns.len()];
    let mut stack = vec![false; fns.len()];

    // --- Compose acquisition sequences across calls.
    let mut fn_edges: Vec<Vec<Edge>> = Vec::with_capacity(fns.len());
    let mut fn_hits: Vec<Vec<(Guard, String, usize)>> = Vec::with_capacity(fns.len());
    for (i, f) in fns.iter().enumerate() {
        let mut edges = f.edges.clone();
        let mut hits = f.lifetime_hits.clone();
        for (ci, call) in f.calls.iter().enumerate() {
            if call.held.is_empty() || targets[i][ci].is_empty() {
                continue;
            }
            let mut acq = LockSet::new();
            for &t in &targets[i][ci] {
                for (k, (sh, b)) in closure_of(t, fns, &targets, &mut memo, &mut stack) {
                    let e = acq.entry(k).or_insert((sh, false));
                    e.1 |= b;
                }
            }
            let callee_name = match &call.callee {
                Callee::SelfM(m) => format!("self.{}", m),
                Callee::Typed(t, m) => format!("{}::{}", t, m),
                Callee::Free(n) => n.clone(),
            };
            for (k, (sh, blocking)) in acq {
                for g in &call.held {
                    if let GKind::Scrut(_) = g.kind {
                        hits.push((g.clone(), sh.clone(), call.line));
                    }
                    if g.key != k {
                        edges.push(Edge {
                            from: g.key.clone(),
                            from_short: g.short.clone(),
                            to: k.clone(),
                            to_short: sh.clone(),
                            line: call.line,
                            blocking,
                            via: Some(callee_name.clone()),
                        });
                    }
                }
            }
        }
        fn_edges.push(edges);
        fn_hits.push(hits);
    }

    // --- L-GUARD-LIFETIME.
    let mut seen_hits = BTreeSet::new();
    for (i, f) in fns.iter().enumerate() {
        for (g, to_short, ln2) in &fn_hits[i] {
            let construct = match g.kind {
                GKind::Scrut(c) => c,
                _ => continue,
            };
            if !seen_hits.insert((f.path.clone(), g.line, *ln2)) {
                continue;
            }
            out.push(diag(
                "L-GUARD-LIFETIME",
                &f.path,
                g.line,
                format!(
                    "guard `{}` acquired in this `{}` scrutinee is still live at the acquisition of `{}` on line {} (Rust 2021 keeps scrutinee temporaries alive to the end of the whole construct)",
                    g.short, construct, to_short, ln2
                ),
                "copy what you need out of the guard through a plain `let` so it drops before the second acquisition",
            ));
        }
    }

    // --- Global cycle detection over blocking edges.
    let mut graph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut witness: BTreeMap<(String, String), Vec<Witness>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        for e in &fn_edges[i] {
            if !e.blocking {
                // A `try_*` target cannot block, so it cannot close a
                // deadlock cycle.
                continue;
            }
            graph.entry(e.from.clone()).or_default().insert(e.to.clone());
            witness
                .entry((e.from.clone(), e.to.clone()))
                .or_default()
                .push(Witness {
                    path: f.path.clone(),
                    line: e.line,
                    func: f.qual_name.clone(),
                    via: e.via.clone(),
                    from_short: e.from_short.clone(),
                    to_short: e.to_short.clone(),
                });
        }
    }
    for ws in witness.values_mut() {
        ws.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in graph.keys() {
        // BFS for the shortest path that closes back on `start`.
        let mut pred: BTreeMap<String, String> = BTreeMap::new();
        let mut visited: BTreeSet<String> = BTreeSet::new();
        let mut queue = std::collections::VecDeque::new();
        visited.insert(start.clone());
        queue.push_back(start.clone());
        let mut closer: Option<String> = None;
        while let Some(u) = queue.pop_front() {
            let Some(nbrs) = graph.get(&u) else { continue };
            if nbrs.contains(start) {
                closer = Some(u);
                break;
            }
            for v in nbrs {
                if visited.insert(v.clone()) {
                    pred.insert(v.clone(), u.clone());
                    queue.push_back(v.clone());
                }
            }
        }
        let Some(closer) = closer else { continue };
        let mut path = vec![closer.clone()];
        let mut c = closer;
        while &c != start {
            c = pred[&c].clone();
            path.push(c.clone());
        }
        path.reverse(); // start .. closer
        let min_i = path
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.as_str().to_string())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let canon: Vec<String> =
            path[min_i..].iter().chain(path[..min_i].iter()).cloned().collect();
        if !seen_cycles.insert(canon.clone()) {
            continue;
        }
        let m = canon.len();
        let mut chain = Vec::new();
        let mut wit_lines = Vec::new();
        for ei in 0..m {
            let a = &canon[ei];
            let b = &canon[(ei + 1) % m];
            let w = &witness[&(a.clone(), b.clone())][0];
            chain.push(w.from_short.clone());
            let via = w
                .via
                .as_ref()
                .map(|v| format!(" via call to `{}`", v))
                .unwrap_or_default();
            wit_lines.push(format!(
                "{} -> {} at {}:{} in `{}`{}",
                w.from_short, w.to_short, w.path, w.line, w.func, via
            ));
        }
        chain.push(chain[0].clone());
        let anchor = &witness[&(canon[0].clone(), canon[1 % m].clone())][0];
        out.push(diag(
            "L-DEADLOCK",
            &anchor.path.clone(),
            anchor.line,
            format!(
                "lock-order cycle: {}\n      witness: {}",
                chain.join(" -> "),
                wit_lines.join("\n      witness: ")
            ),
            "pick one global acquisition order: copy what you need out of the first guard and drop it before taking the second lock",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let s = crate::lexer::scan(src);
        analyze(&[("crates/x/src/test.rs".to_string(), s)])
    }

    fn rules(d: &[Diagnostic]) -> Vec<&str> {
        d.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn unresolved_callee_acquires_nothing() {
        // `f` holds `a` across a call the workspace cannot resolve, and `g`
        // takes `b` then `a`. Were the callee assumed to acquire anything,
        // `a -> b` would close a cycle with `g`; the analysis deliberately
        // assumes it acquires NOTHING, so the file is clean.
        let d = run(
            "fn f(s: &S) {\n\
             \x20   let g = s.a.lock();\n\
             \x20   some_external_crate_helper(&g);\n\
             }\n\
             fn g(s: &S) {\n\
             \x20   let x = s.b.lock();\n\
             \x20   let y = s.a.lock();\n\
             }\n",
        );
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn recursion_cutoff_terminates_and_still_finds_the_cycle() {
        // `ping` and `pong` call each other forever; the closure walk must
        // cut off on the recursive back-edge rather than diverge, while
        // still composing each fn's direct acquisition into the other's
        // held set — which here closes a real ABBA cycle.
        let d = run(
            "fn ping(s: &S) {\n\
             \x20   let g = s.la.lock();\n\
             \x20   pong(s);\n\
             }\n\
             fn pong(s: &S) {\n\
             \x20   let g = s.lb.lock();\n\
             \x20   ping(s);\n\
             }\n",
        );
        assert_eq!(rules(&d), vec!["L-DEADLOCK"], "{d:#?}");
        assert!(d[0].msg.contains("la -> lb -> la"), "{}", d[0].msg);
    }

    #[test]
    fn trait_method_ambiguity_unions_all_candidates() {
        // Two impl blocks of `W` both define `flush` (inherent vs trait —
        // the scanner cannot tell which one a call binds to), so
        // `self.flush()` composes the UNION of both bodies: holding `a`
        // across the call observes a -> c through the second impl, which
        // closes a cycle with `back`'s c -> a.
        let d = run(
            "impl W {\n\
             \x20   fn go(&self) {\n\
             \x20       let g = self.a.lock();\n\
             \x20       self.flush();\n\
             \x20   }\n\
             \x20   fn flush(&self) {\n\
             \x20       let g = self.b.lock();\n\
             \x20   }\n\
             \x20   fn back(&self) {\n\
             \x20       let g = self.c.lock();\n\
             \x20       let h = self.a.lock();\n\
             \x20   }\n\
             }\n\
             impl Flushable for W {\n\
             \x20   fn flush(&self) {\n\
             \x20       let g = self.c.lock();\n\
             \x20   }\n\
             }\n",
        );
        assert_eq!(rules(&d), vec!["L-DEADLOCK"], "{d:#?}");
        assert!(d[0].msg.contains("a -> c -> a"), "{}", d[0].msg);
        assert!(d[0].msg.contains("via call to `self.flush`"), "{}", d[0].msg);
    }

    #[test]
    fn plain_if_condition_temp_drops_before_the_body() {
        // Unlike an `if let` scrutinee, a plain `if` condition temporary
        // is dropped before the body runs (Rust 2021), so `f` never holds
        // `a` while taking `b`, and `g`'s b -> a closes no cycle.
        let d = run(
            "fn f(s: &S) {\n\
             \x20   if s.a.lock().is_empty() {\n\
             \x20       let g = s.b.lock();\n\
             \x20       g.refill();\n\
             \x20   }\n\
             }\n\
             fn g(s: &S) {\n\
             \x20   let x = s.b.lock();\n\
             \x20   let y = s.a.lock();\n\
             }\n",
        );
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn try_lock_target_cannot_close_a_cycle() {
        // Both orders exist, but `g2`'s inverted second acquisition is a
        // `try_lock` — it cannot block, so no deadlock.
        let d = run(
            "fn g1(s: &S) {\n\
             \x20   let x = s.a.lock();\n\
             \x20   let y = s.b.lock();\n\
             \x20   x.touch(y);\n\
             }\n\
             fn g2(s: &S) {\n\
             \x20   let x = s.b.lock();\n\
             \x20   let y = s.a.try_lock();\n\
             \x20   x.touch(y);\n\
             }\n",
        );
        assert!(d.is_empty(), "{d:#?}");
    }
}
