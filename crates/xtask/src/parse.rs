//! Item-level parsing: one file → [`FileFacts`].
//!
//! The second analysis layer (see [`analyze`](crate::analyze)) needs
//! more structure than the token-scan lint rules: which functions
//! exist, what they call, which locks they take and still hold at each
//! call site, which enum variants are constructed vs. matched, where
//! counters are declared, mutated and rendered. This module extracts
//! exactly those facts from the [`lexer`](crate::lexer) token stream —
//! a lightweight item parser, not a real Rust front end. Known
//! approximations are documented in DESIGN.md §"Cross-file analysis";
//! the guiding rule is: *over*-approximate lock lifetimes (safe for
//! deadlock detection) and *under*-approximate name resolution (an
//! unresolved call produces no edge, never a wrong one).

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::lint::{item_end, match_forward, test_region_mask, FileClass};

/// Time units the `unit_flow` rule distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    Micros,
    Nanos,
    Millis,
    Seconds,
}

impl Unit {
    /// Short human name, used in findings.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Micros => "µs",
            Unit::Nanos => "ns",
            Unit::Millis => "ms",
            Unit::Seconds => "s",
        }
    }

    /// Classifies an identifier by its naming convention, the same
    /// convention the workspace already uses (`ts_micros`, `idle_us`,
    /// `ts_usec`, `if_tsresol` nanosecond fields, …).
    pub fn of_ident(name: &str) -> Option<Unit> {
        let is = |suffixes: &[&str], whole: &[&str]| {
            whole.contains(&name) || suffixes.iter().any(|s| name.ends_with(s))
        };
        if is(&["_micros", "_us", "_usec", "_usecs"], &["micros"]) {
            Some(Unit::Micros)
        } else if is(&["_nanos", "_ns", "_nsec", "_nsecs"], &["nanos"]) {
            Some(Unit::Nanos)
        } else if is(&["_millis", "_ms", "_msec", "_msecs"], &["millis"]) {
            Some(Unit::Millis)
        } else if is(&["_secs", "_seconds", "_sec"], &["secs", "seconds"]) {
            Some(Unit::Seconds)
        } else {
            None
        }
    }

    /// Classifies a `from_*`/`as_*` conversion method by name.
    pub fn of_conversion(name: &str) -> Option<Unit> {
        match name {
            "from_micros" | "as_micros" => Some(Unit::Micros),
            "from_nanos" | "as_nanos" => Some(Unit::Nanos),
            "from_millis" | "as_millis" => Some(Unit::Millis),
            "from_secs" | "as_secs" => Some(Unit::Seconds),
            _ => None,
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq)]
pub struct CallFacts {
    /// `Foo` in `Foo::bar(..)`, if path-qualified.
    pub qualifier: Option<String>,
    /// The called name (`bar`); for method calls, the method name.
    pub name: String,
    /// `true` for `.name(..)` method-call syntax.
    pub is_method: bool,
    /// 1-based line of the call.
    pub line: usize,
    /// Lock ids (see [`FnFacts::acquires`]) held at this call site.
    pub held: Vec<String>,
}

/// Everything the graph rules need to know about one function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FnFacts {
    /// `name` for free functions, `Type::name` for impl methods.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Calls made in the body, with locks held at each site.
    pub calls: Vec<CallFacts>,
    /// Lock acquisition sites: `(lock id, line)`. A lock id is the
    /// receiver's final field/binding name (`rx` in `ctx.rx.lock()`),
    /// crate-qualified by the analyzer.
    pub acquires: Vec<(String, usize)>,
    /// `(held, then_acquired, line)` — intra-function acquisition
    /// order observed while the first lock's guard was live.
    pub ordered: Vec<(String, String, usize)>,
    /// `(lock, blocking call, line)` — a blocking primitive reached
    /// while the lock's guard was live.
    pub blocking_holding: Vec<(String, String, usize)>,
    /// Blocking primitives reached anywhere in the body.
    pub blocking: Vec<(String, usize)>,
}

/// A `// conserve(<family>): <members>` declaration: the named
/// counters form one conservation ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct ConserveDecl {
    pub family: String,
    pub members: Vec<String>,
    pub line: usize,
}

/// All facts extracted from one file. Test regions (`#[test]` items,
/// `#[cfg(test)]` modules) contribute nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileFacts {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Crate directory under `crates/`, or `"root"`.
    pub crate_dir: String,
    pub fns: Vec<FnFacts>,
    /// Metric names registered on a telemetry registry: `(name, line,
    /// is_counter)`.
    pub metric_names: Vec<(String, usize, bool)>,
    /// Conservation-ledger declarations.
    pub conserves: Vec<ConserveDecl>,
    /// Counter mutation sites: `(counter name, line)` for
    /// `.inc()/.add()/.fetch_add()/.set()/+=` and friends.
    pub mutations: Vec<(String, usize)>,
    /// Mixed-unit findings, computed per file: `(line, message)`.
    pub unit_findings: Vec<(usize, String)>,
    /// `// lint: allow(<rule>) <reason>` waivers: `(line, rule)`.
    pub allows: Vec<(usize, String)>,
}

impl FileFacts {
    /// `true` when a waiver for `rule` covers `line` (same line or the
    /// line above, matching the lint pass's convention).
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|(l, r)| r == rule && (*l == line || *l + 1 == line))
    }
}

/// Methods that acquire a lock guard when called with no arguments.
const LOCK_METHODS: [&str; 6] = ["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Counter/gauge mutation method names.
const MUTATORS: [&str; 8] = [
    "inc",
    "dec",
    "add",
    "sub",
    "fetch_add",
    "fetch_sub",
    "set",
    "observe",
];

/// Registry registration method names; the leading `counter` variants
/// register monotone counters (the ones conservation sweeps care
/// about).
const REGISTRATIONS: [&str; 5] = [
    "counter",
    "counter_with",
    "gauge",
    "gauge_with",
    "histogram",
];

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "let", "fn", "move", "as", "in", "ref",
    "break", "else",
];

/// Parses one file into its fact set.
pub fn parse_file(class: &FileClass, src: &str) -> FileFacts {
    let lexed = lex(src);
    let mask = test_region_mask(&lexed.toks);
    let mut facts = FileFacts {
        rel_path: class.rel_path.clone(),
        crate_dir: class.crate_dir.clone(),
        ..FileFacts::default()
    };
    collect_comments(&lexed, &mut facts);
    let toks = &lexed.toks;
    let pattern = pattern_mask(toks, &mask);
    collect_items(toks, &mask, &pattern, &mut facts);
    collect_counters(toks, &mask, &mut facts);
    collect_unit_findings(toks, &mask, &mut facts);
    facts
}

/// Waivers and `conserve(..)` declarations live in comments.
fn collect_comments(lexed: &Lexed, facts: &mut FileFacts) {
    for (line, text) in &lexed.comments {
        if let Some(at) = text.find("lint: allow(") {
            let rest = &text[at + "lint: allow(".len()..];
            if let Some(close) = rest.find(')') {
                let rule = rest[..close].trim().to_string();
                if !rest[close + 1..].trim().is_empty() && !rule.is_empty() {
                    facts.allows.push((*line, rule));
                }
            }
        }
        if let Some(at) = text.find("conserve(") {
            let rest = &text[at + "conserve(".len()..];
            if let (Some(close), Some(colon)) = (rest.find(')'), rest.find(':')) {
                if close < colon {
                    let family = rest[..close].trim().to_string();
                    let members: Vec<String> = rest[colon + 1..]
                        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .filter(|m| !m.is_empty())
                        .map(str::to_string)
                        .collect();
                    if !family.is_empty() && !members.is_empty() {
                        facts.conserves.push(ConserveDecl {
                            family,
                            members,
                            line: *line,
                        });
                    }
                }
            }
        }
    }
}

/// Marks every token in pattern position — `match` arm patterns (up to
/// each `=>`), `if let`/`while let` patterns (up to the `=`), and the
/// pattern argument of `matches!`.
fn pattern_mask(toks: &[Tok], mask: &[bool]) -> Vec<bool> {
    let mut pat = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("match") && !mask[i] {
            if let Some(body) = match_body_open(toks, i) {
                let close = match_forward(toks, body, '{', '}');
                mark_match_arms(toks, body, close, &mut pat);
                i += 1;
                continue;
            }
        }
        // `if let PAT =` / `while let PAT =`: mark up to the `=`.
        if toks[i].is_ident("let")
            && i > 0
            && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while"))
        {
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct('=') {
                    break;
                }
                pat[j] = true;
                j += 1;
            }
            i = j;
            continue;
        }
        // `matches!(expr, PAT)`: mark from the top-level `,` on.
        if toks[i].is_ident("matches")
            && toks.get(i + 1).map(|t| t.is_punct('!')) == Some(true)
            && toks.get(i + 2).map(|t| t.is_punct('(')) == Some(true)
        {
            let close = match_forward(toks, i + 2, '(', ')');
            let mut depth = 0i32;
            let mut in_pat = false;
            for j in i + 3..close.min(toks.len()) {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct(',') && !in_pat {
                    in_pat = true;
                    continue;
                }
                if in_pat {
                    pat[j] = true;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    pat
}

/// Finds the `{` opening a `match` body: the first `{` after the
/// scrutinee at bracket/paren depth 0. Scrutinee struct literals are
/// not supported (Rust itself requires parens there).
fn match_body_open(toks: &[Tok], match_kw: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(match_kw + 1) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            return Some(j);
        } else if depth == 0 && t.is_punct(';') {
            return None;
        }
    }
    None
}

/// Walks the arms of one `match` body, marking pattern tokens.
fn mark_match_arms(toks: &[Tok], body: usize, close: usize, pat: &mut [bool]) {
    let mut j = body + 1;
    while j < close {
        // Pattern region: from `j` to the `=>` at depth 0.
        let start = j;
        let mut depth = 0i32;
        let mut arrow = None;
        while j < close {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0
                && t.is_punct('=')
                && toks.get(j + 1).map(|n| n.is_punct('>')) == Some(true)
            {
                arrow = Some(j);
                break;
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        // Guards (`PAT if cond =>`) are expression, not pattern; stop
        // the pattern region at a depth-0 `if`.
        let mut pat_end = arrow;
        for (k, t) in toks.iter().enumerate().take(arrow).skip(start) {
            if t.is_ident("if") {
                pat_end = k;
                break;
            }
        }
        for slot in pat.iter_mut().take(pat_end).skip(start) {
            *slot = true;
        }
        // Skip the arm expression: a block, or tokens to the next
        // depth-0 `,`.
        j = arrow + 2;
        let mut depth = 0i32;
        while j < close {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth == 0 && t.is_punct('}') {
                    j += 1;
                    break;
                }
            } else if depth == 0 && t.is_punct(',') {
                j += 1;
                break;
            }
            j += 1;
        }
        // Skip a trailing comma after a block arm.
        if j < close && toks[j].is_punct(',') {
            j += 1;
        }
    }
}

/// Uppercase-initial identifiers are treated as type/enum names.
fn is_type_like(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_uppercase())
}

/// Per-function lock/call/blocking facts.
fn collect_items(toks: &[Tok], mask: &[bool], pattern: &[bool], facts: &mut FileFacts) {
    // Impl spans, so methods get `Type::name` symbols.
    let mut impls: Vec<(String, usize, usize)> = Vec::new(); // (type, open, close)
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("impl") && !mask[i] {
            let mut ty = None;
            let mut angle = 0i32;
            let mut j = i + 1;
            let mut after_for = false;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle -= 1;
                } else if angle == 0 && t.is_punct('{') {
                    break;
                } else if angle == 0 && t.is_punct(';') {
                    j = toks.len();
                    break;
                } else if angle == 0 && t.is_ident("for") {
                    after_for = true;
                    ty = None;
                } else if angle == 0
                    && t.kind == TokKind::Ident
                    && is_type_like(&t.text)
                    && (ty.is_none() || after_for)
                {
                    ty = Some(t.text.clone());
                    after_for = false;
                }
                j += 1;
            }
            if j < toks.len() {
                let close = match_forward(toks, j, '{', '}');
                if let Some(ty) = ty {
                    impls.push((ty, j, close));
                }
            }
        }
        i += 1;
    }

    // Functions. Each `fn` is parsed independently; nested fn bodies
    // are excluded from the enclosing function's facts below.
    let mut fn_spans: Vec<(usize, usize, usize)> = Vec::new(); // (kw, open, close)
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && !mask[i]
            && toks.get(i + 1).map(|t| t.kind == TokKind::Ident) == Some(true)
        {
            if let Some(end) = item_end(toks, i) {
                if let Some(open) = (i..=end).find(|&j| toks[j].is_punct('{')) {
                    if toks[end].is_punct('}') {
                        fn_spans.push((i, open, end));
                    }
                }
            }
        }
        i += 1;
    }
    for &(kw, open, close) in &fn_spans {
        let name = &toks[kw + 1].text;
        let qualified = impls
            .iter()
            .find(|(_, io, ic)| kw > *io && close <= *ic)
            .map(|(ty, _, _)| format!("{ty}::{name}"))
            .unwrap_or_else(|| name.clone());
        let nested: Vec<(usize, usize)> = fn_spans
            .iter()
            .filter(|&&(k, _, c)| k > kw && c < close)
            .map(|&(k, _, c)| (k, c))
            .collect();
        let mut f = FnFacts {
            name: qualified,
            line: toks[kw].line,
            ..FnFacts::default()
        };
        scan_fn_body(toks, mask, pattern, open, close, &nested, &mut f);
        facts.fns.push(f);
    }
}

/// A live lock guard while scanning a function body.
struct Guard {
    lock: String,
    /// Brace depth at acquisition; the guard dies when the depth drops
    /// below this (end of enclosing block).
    depth: usize,
    /// Temporary guards (no binding) die at the next `;` at or below
    /// their depth instead.
    temp: bool,
    /// The binding name, so `drop(name)` releases it.
    binding: Option<String>,
}

/// Blocking primitives: `(name, requires_empty_parens)`. Empty-parens
/// gating keeps `Vec::join(", ")`-style false positives out.
const BLOCKING: [(&str, bool); 9] = [
    ("recv", true),
    ("recv_timeout", false),
    ("sleep", false),
    ("park", true),
    ("wait", false),
    ("wait_timeout", false),
    ("join", true),
    ("read_from", false),
    ("read_frame", false),
];

fn scan_fn_body(
    toks: &[Tok],
    mask: &[bool],
    pattern: &[bool],
    open: usize,
    close: usize,
    nested: &[(usize, usize)],
    f: &mut FnFacts,
) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut i = open;
    while i <= close {
        if let Some(&(_, nc)) = nested.iter().find(|&&(k, _)| k == i) {
            i = nc + 1;
            continue;
        }
        let t = &toks[i];
        if mask[i] || pattern[i] {
            // Patterns and test code contribute no body facts, but
            // braces inside them still shape scopes.
        }
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            guards.retain(|g| !(g.temp && g.depth >= depth));
            i += 1;
            continue;
        }
        if mask[i] || pattern[i] || t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text.as_str();

        // `drop(binding)` releases a named guard early.
        if name == "drop"
            && toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
            && toks.get(i + 3).map(|n| n.is_punct(')')) == Some(true)
        {
            if let Some(arg) = toks.get(i + 2) {
                guards.retain(|g| g.binding.as_deref() != Some(arg.text.as_str()));
            }
        }

        // Lock acquisition: `.lock()` / `.read()` / `.write()` etc.
        // with empty parens (argument-taking `read`/`write` are I/O).
        if LOCK_METHODS.contains(&name)
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
            && toks.get(i + 2).map(|n| n.is_punct(')')) == Some(true)
        {
            if let Some(lock) = receiver_tail(toks, i - 1) {
                let line = t.line;
                for g in &guards {
                    f.ordered.push((g.lock.clone(), lock.clone(), line));
                }
                f.acquires.push((lock.clone(), line));
                let (temp, binding) = statement_binding(toks, open, i);
                guards.push(Guard {
                    lock,
                    depth,
                    temp,
                    binding,
                });
                i += 3;
                continue;
            }
        }

        // Blocking primitives.
        if let Some(&(bname, needs_empty)) = BLOCKING.iter().find(|(b, _)| *b == name) {
            let called = toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true);
            let empty_ok = !needs_empty || toks.get(i + 2).map(|n| n.is_punct(')')) == Some(true);
            if called && empty_ok {
                let line = t.line;
                f.blocking.push((bname.to_string(), line));
                for g in &guards {
                    f.blocking_holding
                        .push((g.lock.clone(), bname.to_string(), line));
                }
            }
        }

        // Call sites (for the call graph). Skip keywords, macros, the
        // lock/blocking primitives just handled, and definitions.
        let is_def = i > 0 && toks[i - 1].is_ident("fn");
        if toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !NON_CALL_KEYWORDS.contains(&name)
            && !is_def
            && !LOCK_METHODS.contains(&name)
        {
            let is_method = i > 0 && toks[i - 1].is_punct('.');
            let qualifier = if i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].kind == TokKind::Ident
            {
                Some(toks[i - 3].text.clone())
            } else {
                None
            };
            f.calls.push(CallFacts {
                qualifier,
                name: name.to_string(),
                is_method,
                line: t.line,
                held: guards.iter().map(|g| g.lock.clone()).collect(),
            });
        }
        i += 1;
    }
}

/// The receiver's final field/binding name for the method call whose
/// `.` sits at `dot` — `rx` in `ctx.rx.lock()`, `entries` in
/// `self.entries.lock()`.
fn receiver_tail(toks: &[Tok], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let mut k = dot - 1;
    // Skip a trailing call/index group: `shards[i].lock()`.
    while toks[k].is_punct(')') || toks[k].is_punct(']') {
        let (open_c, close_c) = if toks[k].is_punct(')') {
            ('(', ')')
        } else {
            ('[', ']')
        };
        let mut depth = 0usize;
        loop {
            if toks[k].is_punct(close_c) {
                depth += 1;
            } else if toks[k].is_punct(open_c) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return None;
            }
            k -= 1;
        }
        if k == 0 {
            return None;
        }
        k -= 1;
    }
    if toks[k].kind == TokKind::Ident && !toks[k].is_ident("self") {
        Some(toks[k].text.clone())
    } else {
        None
    }
}

/// Whether the statement containing token `at` binds its value
/// (`let g = …` / `match …` / `if let` / `while let`) — a scoped
/// guard — or discards it at the next `;` (a temporary). Returns
/// `(temp, binding_name)`.
fn statement_binding(toks: &[Tok], body_open: usize, at: usize) -> (bool, Option<String>) {
    let mut j = at;
    while j > body_open {
        let t = &toks[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("match") || t.is_ident("if") || t.is_ident("while") {
            return (false, None);
        }
        if t.is_ident("let") {
            let mut k = j + 1;
            while k < at && toks[k].is_ident("mut") {
                k += 1;
            }
            let binding = toks
                .get(k)
                .filter(|b| b.kind == TokKind::Ident)
                .map(|b| b.text.clone());
            return (false, binding);
        }
        j -= 1;
    }
    (true, None)
}

/// Counter registrations and mutations.
fn collect_counters(toks: &[Tok], mask: &[bool], facts: &mut FileFacts) {
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        // Registration: `.counter("name", ..)` and friends — record
        // the first string literal inside the call.
        if REGISTRATIONS.contains(&name)
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
        {
            let close = match_forward(toks, i + 1, '(', ')');
            if let Some(lit) = toks[i + 2..close.min(toks.len())]
                .iter()
                .find(|t| t.kind == TokKind::Lit && t.text.starts_with('"'))
            {
                let metric = lit.text.trim_matches('"').to_string();
                facts
                    .metric_names
                    .push((metric, toks[i].line, name.starts_with("counter")));
            }
        }
        // Mutation: `.inc()` etc. on a named receiver.
        if MUTATORS.contains(&name)
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
        {
            if let Some(tail) = receiver_tail(toks, i - 1) {
                facts.mutations.push((tail, toks[i].line));
            }
        }
        // Mutation: `name += …` / `name -= …`.
        if toks.get(i + 1).map(|n| n.is_punct('+') || n.is_punct('-')) == Some(true)
            && toks.get(i + 2).map(|n| n.is_punct('=')) == Some(true)
        {
            facts.mutations.push((name.to_string(), toks[i].line));
        }
    }
}

/// Mixed-unit arithmetic, computed per file. Purely lexical: an
/// identifier carries the unit its name declares; direct `a op b`
/// between different units is flagged, as are `from_X(y)` / `as_X()`
/// conversions whose operand names a different unit. `ident op
/// literal` is left alone — that is how intentional conversions
/// (`ts_sec * 1_000_000`) are written.
fn collect_unit_findings(toks: &[Tok], mask: &[bool], facts: &mut FileFacts) {
    let unit_of = |t: &Tok| -> Option<Unit> {
        if t.kind == TokKind::Ident {
            Unit::of_ident(&t.text)
        } else {
            None
        }
    };
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        // `a_us + b_ns`, `a_us < b_ms`, `a_us == b_ns`, `a_us <= b_ns`.
        if let Some(ua) = unit_of(&toks[i]) {
            let (op_len, op_text): (usize, Option<String>) = match toks.get(i + 1) {
                Some(op) if op.is_punct('+') || op.is_punct('-') => (1, Some(op.text.clone())),
                Some(op) if op.is_punct('<') || op.is_punct('>') => {
                    if toks.get(i + 2).map(|n| n.is_punct('=')) == Some(true) {
                        (2, Some(format!("{}=", op.text)))
                    } else {
                        (1, Some(op.text.clone()))
                    }
                }
                Some(op)
                    if op.is_punct('=')
                        && toks.get(i + 2).map(|n| n.is_punct('=')) == Some(true) =>
                {
                    (2, Some("==".to_string()))
                }
                _ => (0, None),
            };
            if let Some(op) = op_text {
                if let Some(other) = toks.get(i + 1 + op_len) {
                    if let Some(ub) = unit_of(other) {
                        if ua != ub {
                            facts.unit_findings.push((
                                toks[i].line,
                                format!(
                                    "mixed-unit arithmetic: `{}` ({}) {op} `{}` ({})",
                                    toks[i].text,
                                    ua.name(),
                                    other.text,
                                    ub.name()
                                ),
                            ));
                        }
                    }
                }
            }
        }
        // `from_micros(x_ns …)` — conversion fed an operand whose name
        // declares a different unit.
        if toks[i].kind == TokKind::Ident {
            if let Some(uc) = Unit::of_conversion(&toks[i].text) {
                if toks[i].text.starts_with("from_")
                    && toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
                {
                    if let Some(arg) = toks.get(i + 2) {
                        if let Some(ua) = unit_of(arg) {
                            if ua != uc {
                                facts.unit_findings.push((
                                    toks[i].line,
                                    format!(
                                        "unit mismatch: `{}` expects {} but `{}` is {}",
                                        toks[i].text,
                                        uc.name(),
                                        arg.text,
                                        ua.name()
                                    ),
                                ));
                            }
                        }
                    }
                }
                // `….as_micros() op x_ns`.
                if toks[i].text.starts_with("as_")
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
                    && toks.get(i + 2).map(|n| n.is_punct(')')) == Some(true)
                {
                    let after = toks.get(i + 3);
                    let is_cmp_or_arith = after.map(|t| {
                        t.is_punct('+') || t.is_punct('-') || t.is_punct('<') || t.is_punct('>')
                    }) == Some(true);
                    if is_cmp_or_arith {
                        if let Some(operand) = toks.get(i + 4) {
                            if let Some(ua) = unit_of(operand) {
                                if ua != uc {
                                    facts.unit_findings.push((
                                        toks[i].line,
                                        format!(
                                            "unit mismatch: `{}()` ({}) combined with `{}` ({})",
                                            toks[i].text,
                                            uc.name(),
                                            operand.text,
                                            ua.name()
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(path: &str) -> FileClass {
        crate::workspace::classify(path)
    }

    fn parse(src: &str) -> FileFacts {
        parse_file(&class("crates/monitor/src/demo.rs"), src)
    }

    #[test]
    fn extracts_fns_with_impl_qualification() {
        let src = "struct S;\n\
                   impl S {\n\
                       fn method(&self) { helper(); }\n\
                   }\n\
                   fn helper() {}\n";
        let facts = parse(src);
        let names: Vec<_> = facts.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["S::method", "helper"]);
        assert_eq!(facts.fns[0].calls.len(), 1);
        assert_eq!(facts.fns[0].calls[0].name, "helper");
    }

    #[test]
    fn lock_acquisition_and_ordering() {
        let src = "fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                       let ga = a.lock().unwrap();\n\
                       let gb = b.lock().unwrap();\n\
                   }\n";
        let facts = parse(src);
        let f = &facts.fns[0];
        assert_eq!(f.acquires.len(), 2);
        assert_eq!(f.ordered, vec![("a".to_string(), "b".to_string(), 3)]);
    }

    #[test]
    fn temporary_guards_die_at_the_statement() {
        let src = "fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                       *a.lock().unwrap() += 1;\n\
                       let gb = b.lock().unwrap();\n\
                   }\n";
        let facts = parse(src);
        assert!(facts.fns[0].ordered.is_empty());
    }

    #[test]
    fn dropped_guards_stop_ordering() {
        let src = "fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                       let ga = a.lock().unwrap();\n\
                       drop(ga);\n\
                       let gb = b.lock().unwrap();\n\
                   }\n";
        let facts = parse(src);
        assert!(facts.fns[0].ordered.is_empty());
    }

    #[test]
    fn scoped_guards_end_with_their_block() {
        let src = "fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                       { let ga = a.lock().unwrap(); }\n\
                       let gb = b.lock().unwrap();\n\
                   }\n";
        let facts = parse(src);
        assert!(facts.fns[0].ordered.is_empty());
    }

    #[test]
    fn blocking_while_holding_is_recorded() {
        let src = "fn f(rx: &Mutex<Receiver<u8>>) {\n\
                       let guard = rx.lock().unwrap();\n\
                       let job = guard.recv();\n\
                   }\n";
        let facts = parse(src);
        let f = &facts.fns[0];
        assert_eq!(
            f.blocking_holding,
            vec![("rx".to_string(), "recv".to_string(), 3)]
        );
    }

    #[test]
    fn join_with_arguments_is_not_blocking() {
        let src = "fn f(v: Vec<String>) -> String { v.join(\", \") }\n";
        let facts = parse(src);
        assert!(facts.fns[0].blocking.is_empty());
    }

    #[test]
    fn io_read_with_arguments_is_not_a_lock() {
        let src = "fn f(r: &mut impl Read, buf: &mut [u8]) { r.read(buf); }\n";
        let facts = parse(src);
        assert!(facts.fns[0].acquires.is_empty());
    }

    #[test]
    fn patterns_are_not_calls() {
        let src = "fn f(m: Message) {\n\
                       if let Message::Ping(seq) = m { use_seq(seq); }\n\
                       match m { Message::Hello(w) => greet(w), _ => {} }\n\
                   }\n";
        let facts = parse(src);
        let calls: Vec<&str> = facts.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, vec!["use_seq", "greet"]);
    }

    #[test]
    fn metric_registration_and_mutations() {
        let src = "fn wire(r: &Registry, stats: &mut Stats) {\n\
                       let c = r.counter(\"ingest_batches_sent_total\", \"help\");\n\
                       let g = r.gauge(\"ingest_depth\", \"help\");\n\
                       c.inc();\n\
                       stats.batches_sent += 1;\n\
                   }\n";
        let facts = parse(src);
        assert_eq!(facts.metric_names.len(), 2);
        assert!(facts.metric_names[0].2, "counter registration");
        assert!(!facts.metric_names[1].2, "gauge registration");
        assert!(facts.mutations.iter().any(|(m, _)| m == "batches_sent"));
        assert!(facts.mutations.iter().any(|(m, _)| m == "c"));
    }

    #[test]
    fn conserve_declarations_parse() {
        let src = "// conserve(shard_queue): enqueued = dequeued + depth; dropped\n\
                   fn f() {}\n";
        let facts = parse(src);
        assert_eq!(facts.conserves.len(), 1);
        assert_eq!(facts.conserves[0].family, "shard_queue");
        assert_eq!(
            facts.conserves[0].members,
            vec!["enqueued", "dequeued", "depth", "dropped"]
        );
    }

    #[test]
    fn unit_findings_flag_mixed_arithmetic_only() {
        let src = "fn f(ts_micros: i64, skew_ns: i64, lag_ms: i64) -> i64 {\n\
                       let bad = ts_micros + skew_ns;\n\
                       let also_bad = ts_micros < lag_ms;\n\
                       let fine = ts_micros + ts_micros;\n\
                       let conversion = skew_ns / 1_000;\n\
                       bad\n\
                   }\n";
        let facts = parse(src);
        assert_eq!(facts.unit_findings.len(), 2, "{:?}", facts.unit_findings);
        assert_eq!(facts.unit_findings[0].0, 2);
        assert_eq!(facts.unit_findings[1].0, 3);
    }

    #[test]
    fn unit_findings_flag_conversion_mismatches() {
        let src = "fn f(skew_ns: i64) -> TimeDelta { TimeDelta::from_micros(skew_ns) }\n";
        let facts = parse(src);
        assert_eq!(facts.unit_findings.len(), 1);
    }

    #[test]
    fn test_regions_contribute_no_facts() {
        let src = "fn live() { real_call(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper(a: &Mutex<u8>) { let g = a.lock().unwrap(); }\n\
                       #[test]\n\
                       fn t() { Message::Ping(1); }\n\
                   }\n";
        let facts = parse(src);
        assert_eq!(facts.fns.len(), 1);
        assert_eq!(facts.fns[0].calls.len(), 1);
    }
}
