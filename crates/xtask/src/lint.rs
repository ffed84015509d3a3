//! Token-level lint rules enforcing the workspace invariants.
//!
//! Seven rules, each with a machine-readable id (stable — CI and the
//! allowlist mechanism key on them):
//!
//! | id | invariant |
//! |----|-----------|
//! | `no_panic` | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in non-test library code |
//! | `micros_math` | no raw integer arithmetic on microsecond values outside `flow::time` |
//! | `ordering_comment` | every atomic `Ordering::*` use carries an `// ordering:` justification |
//! | `bounded_queue` | no unbounded channels in `monitor`; `#[bounded]`-tagged queues grow only through their choke-point method |
//! | `heartbeat_touch` | every `loop` in a `monitor` worker function refreshes the shard heartbeat at the top of each iteration |
//! | `forbid_unsafe` | every crate root declares `#![forbid(unsafe_code)]` |
//! | `bounded_ipc` | boundary-input code (`cluster` IPC, the `scenario` DSL, the `experiments` serve layer) never allocates or reads unboundedly from outside input: no unbounded channels, no `read_to_end`-style reads, every `with_capacity` carries a `.min(..)`/`MAX_*` cap witness |
//!
//! A finding on line `L` is suppressed by a comment on `L` or `L-1` of
//! the form `// lint: allow(<rule>) <reason>` — the reason is
//! mandatory; an empty reason keeps the finding. DESIGN.md §"Static
//! analysis & invariants" documents each rule's rationale.

use crate::lexer::{Lexed, Tok, TokKind};

/// The stable ids of every lint rule, in report order.
pub const RULES: [&str; 7] = [
    "no_panic",
    "micros_math",
    "ordering_comment",
    "bounded_queue",
    "heartbeat_touch",
    "forbid_unsafe",
    "bounded_ipc",
];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// How a file participates in the lint pass, derived from its path.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Directory name of the owning crate under `crates/`, or `"root"`
    /// for the facade crate.
    pub crate_dir: String,
    /// `true` for code reachable from the crate's library target
    /// (under `src/`, not `main.rs`/`src/bin`); panics and raw µs math
    /// are only forbidden here.
    pub is_library: bool,
    /// `true` for `src/lib.rs` / `src/main.rs` — the files that must
    /// carry `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
}

/// Runs every applicable rule over one file. The driver binary lexes
/// once and calls [`run_rule`] per rule instead (for timing); this
/// wrapper keeps the unit tests' entry point.
#[cfg(test)]
pub fn lint_file(class: &FileClass, src: &str) -> Vec<Finding> {
    let lexed = crate::lexer::lex(src);
    let test_mask = test_region_mask(&lexed.toks);
    let mut findings = Vec::new();
    for rule in RULES {
        run_rule(rule, class, &lexed, &test_mask, &mut findings);
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup();
    findings
}

/// Runs one rule (by id) over a pre-lexed file, applying the same
/// file-class gating as `lint_file`. Lets the driver lex each file
/// once and time rules individually. Unknown ids are a no-op.
pub fn run_rule(
    rule: &str,
    class: &FileClass,
    lexed: &Lexed,
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    match rule {
        "no_panic" if class.is_library => rule_no_panic(class, lexed, test_mask, findings),
        "micros_math" if class.is_library && class.rel_path != "crates/flow/src/time.rs" => {
            rule_micros_math(class, lexed, test_mask, findings)
        }
        "ordering_comment" => rule_ordering_comment(class, lexed, findings),
        "bounded_queue" if class.crate_dir == "monitor" && class.rel_path.contains("/src/") => {
            rule_bounded_queue(class, lexed, test_mask, findings)
        }
        "heartbeat_touch" if class.crate_dir == "monitor" && class.rel_path.contains("/src/") => {
            rule_heartbeat_touch(class, lexed, test_mask, findings)
        }
        "bounded_ipc" if bounded_ipc_scope(class) => {
            rule_bounded_ipc(class, lexed, test_mask, findings)
        }
        "forbid_unsafe" if class.is_crate_root => rule_forbid_unsafe(class, lexed, findings),
        _ => {}
    }
}

/// Library files whose inputs cross a process or trust boundary and so
/// fall under [`rule_bounded_ipc`]: the `cluster` IPC layer (worker
/// stdout frames), the `scenario` crate (DSL text from files and HTTP
/// bodies), and the `experiments` serve layer (HTTP request bodies,
/// snapshot files, session channels).
fn bounded_ipc_scope(class: &FileClass) -> bool {
    (matches!(class.crate_dir.as_str(), "cluster" | "scenario") && class.rel_path.contains("/src/"))
        || class.rel_path.starts_with("crates/experiments/src/serve")
}

/// `true` when a `// lint: allow(<rule>) <reason>` comment with a
/// non-empty reason covers `line` (same line or the line above).
fn allowed(lexed: &Lexed, rule: &str, line: usize) -> bool {
    let marker = format!("lint: allow({rule})");
    lexed.comments.iter().any(|(l, text)| {
        (*l == line || *l + 1 == line)
            && text
                .find(&marker)
                .map(|at| !text[at + marker.len()..].trim().is_empty())
                == Some(true)
    })
}

fn push(
    findings: &mut Vec<Finding>,
    lexed: &Lexed,
    rule: &'static str,
    class: &FileClass,
    line: usize,
    message: String,
) {
    if !allowed(lexed, rule, line) {
        findings.push(Finding {
            rule,
            path: class.rel_path.clone(),
            line,
            message,
        });
    }
}

/// Marks every token inside a `#[test]` item or `#[cfg(test)]` item
/// body (the attribute's item extends to the matching `}`, or to the
/// first `;` for bodiless items). `#[cfg(not(test))]` is real code and
/// is not masked.
pub(crate) fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let close = match_forward(toks, i + 1, '[', ']');
            let attr = &toks[i + 2..close.min(toks.len())];
            let is_test =
                attr.iter().any(|t| t.is_ident("test")) && !attr.iter().any(|t| t.is_ident("not"));
            if is_test {
                if let Some(end) = item_end(toks, close + 1) {
                    for m in mask.iter_mut().take(end + 1).skip(i) {
                        *m = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index of the closing delimiter matching the opener at `open`.
/// Returns `toks.len() - 1` for unbalanced input.
pub(crate) fn match_forward(toks: &[Tok], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Finds where the item starting at `from` ends: the matching `}` of
/// its body, or the first top-level `;` for bodiless items. Leading
/// extra attributes are skipped.
pub(crate) fn item_end(toks: &[Tok], mut from: usize) -> Option<usize> {
    while from < toks.len() {
        if toks[from].is_punct('#') && from + 1 < toks.len() && toks[from + 1].is_punct('[') {
            from = match_forward(toks, from + 1, '[', ']') + 1;
            continue;
        }
        break;
    }
    let mut j = from;
    while j < toks.len() {
        if toks[j].is_punct('{') {
            return Some(match_forward(toks, j, '{', '}'));
        }
        if toks[j].is_punct(';') {
            return Some(j);
        }
        // Skip parenthesised/bracketed groups so a `;` or `{` inside
        // them (e.g. in an array length expression) is not mistaken
        // for the item's own.
        if toks[j].is_punct('(') {
            j = match_forward(toks, j, '(', ')') + 1;
            continue;
        }
        if toks[j].is_punct('[') {
            j = match_forward(toks, j, '[', ']') + 1;
            continue;
        }
        j += 1;
    }
    None
}

const PANIC_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

fn rule_no_panic(class: &FileClass, lexed: &Lexed, mask: &[bool], findings: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let is_method = PANIC_METHODS.contains(&name)
            && i > 0
            && toks[i - 1].is_punct('.')
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('(');
        let is_macro =
            PANIC_MACROS.contains(&name) && i + 1 < toks.len() && toks[i + 1].is_punct('!');
        if is_method || is_macro {
            let call = if is_macro {
                format!("{name}!")
            } else {
                format!(".{name}()")
            };
            push(
                findings,
                lexed,
                "no_panic",
                class,
                toks[i].line,
                format!(
                    "`{call}` in non-test library code; return a Result/Option or \
                     justify with `// lint: allow(no_panic) <reason>`"
                ),
            );
        }
    }
}

const ARITH: [char; 5] = ['+', '-', '*', '/', '%'];

fn is_arith(t: &Tok) -> bool {
    ARITH.iter().any(|&c| t.is_punct(c))
}

fn rule_micros_math(class: &FileClass, lexed: &Lexed, mask: &[bool], findings: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    let msg = "raw integer arithmetic on a microsecond value outside `flow::time`; \
               use `Timestamp`/`TimeDelta` operators or justify with \
               `// lint: allow(micros_math) <reason>`";
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        // `<expr>.as_micros()` adjacent to an arithmetic operator.
        if toks[i].is_ident("as_micros")
            && i > 0
            && toks[i - 1].is_punct('.')
            && i + 2 < toks.len()
            && toks[i + 1].is_punct('(')
            && toks[i + 2].is_punct(')')
        {
            let after = toks.get(i + 3);
            let operand_after = after.map(is_arith) == Some(true);
            let start = receiver_start(toks, i - 1);
            let operand_before = start > 0 && is_arith(&toks[start - 1]);
            if operand_after || operand_before {
                push(
                    findings,
                    lexed,
                    "micros_math",
                    class,
                    toks[i].line,
                    msg.to_string(),
                );
            }
        }
        // `from_micros(<expr with top-level arithmetic>)`.
        if toks[i].is_ident("from_micros") && i + 1 < toks.len() && toks[i + 1].is_punct('(') {
            let close = match_forward(toks, i + 1, '(', ')');
            let mut depth = 0usize;
            for (j, tok) in toks.iter().enumerate().take(close).skip(i + 1) {
                match () {
                    _ if tok.is_punct('(') => depth += 1,
                    _ if tok.is_punct(')') => depth -= 1,
                    // A leading unary minus is a sign, not arithmetic.
                    _ if depth == 1 && is_arith(tok) && !(j == i + 2 && tok.is_punct('-')) => {
                        push(
                            findings,
                            lexed,
                            "micros_math",
                            class,
                            tok.line,
                            msg.to_string(),
                        );
                        break;
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Walks a method-call chain backwards from the `.` at `dot` to the
/// first token of the receiver expression, e.g. from the final `.` of
/// `c * s.timestamp(i).as_micros()` back to `s`.
fn receiver_start(toks: &[Tok], dot: usize) -> usize {
    let mut j = dot;
    loop {
        if j == 0 {
            return 0;
        }
        let mut k = j - 1;
        // Trailing call/index groups of this chain component.
        while toks[k].is_punct(')') || toks[k].is_punct(']') {
            let open = if toks[k].is_punct(')') {
                match_backward(toks, k, '(', ')')
            } else {
                match_backward(toks, k, '[', ']')
            };
            if open == 0 {
                return 0;
            }
            k = open - 1;
        }
        if matches!(toks[k].kind, TokKind::Ident | TokKind::Lit) {
            // The component's name, possibly `path::qualified`.
            let mut s = k;
            while s >= 3
                && toks[s - 1].is_punct(':')
                && toks[s - 2].is_punct(':')
                && toks[s - 3].kind == TokKind::Ident
            {
                s -= 3;
            }
            j = s;
        } else {
            // Bare parenthesised receiver such as `(a + b)`.
            return k + 1;
        }
        if j >= 1 && toks[j - 1].is_punct('.') {
            j -= 1;
            continue;
        }
        return j;
    }
}

/// Index of the opening delimiter matching the closer at `close`.
fn match_backward(toks: &[Tok], close: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    let mut j = close;
    loop {
        if toks[j].is_punct(close_c) {
            depth += 1;
        } else if toks[j].is_punct(open_c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        if j == 0 {
            return 0;
        }
        j -= 1;
    }
}

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn rule_ordering_comment(class: &FileClass, lexed: &Lexed, findings: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if !toks[i].is_ident("Ordering") || i + 3 >= toks.len() {
            continue;
        }
        if !(toks[i + 1].is_punct(':') && toks[i + 2].is_punct(':')) {
            continue;
        }
        let variant = &toks[i + 3];
        if variant.kind != TokKind::Ident || !ATOMIC_ORDERINGS.contains(&variant.text.as_str()) {
            continue;
        }
        let line = toks[i].line;
        let justified =
            (line.saturating_sub(2)..=line).any(|l| lexed.comment_on_line_contains(l, "ordering:"));
        if !justified {
            push(
                findings,
                lexed,
                "ordering_comment",
                class,
                line,
                format!(
                    "`Ordering::{}` without an `// ordering:` justification comment \
                     (same line or up to two lines above)",
                    variant.text
                ),
            );
        }
    }
}

fn rule_bounded_queue(
    class: &FileClass,
    lexed: &Lexed,
    mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    let toks = &lexed.toks;
    // (a) Unbounded `mpsc::channel` — monitor queues must be
    // `sync_channel` (bounded) or carry a justification.
    for i in 0..toks.len() {
        if mask[i] || !toks[i].is_ident("channel") {
            continue;
        }
        let call_like = toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
            || (toks.get(i + 1).map(|t| t.is_punct(':')) == Some(true)
                && toks.get(i + 2).map(|t| t.is_punct(':')) == Some(true));
        if call_like {
            push(
                findings,
                lexed,
                "bounded_queue",
                class,
                toks[i].line,
                "unbounded `mpsc::channel` in the monitor crate; use a bounded \
                 `sync_channel` or justify with `// lint: allow(bounded_queue) <reason>`"
                    .to_string(),
            );
        }
    }
    // Collect `#[bounded(via = "method")]` tag comments and the field
    // each one annotates (the first identifier on a following line).
    let mut tags: Vec<(String, String, usize)> = Vec::new(); // (field, via, tag_line)
    for (line, text) in &lexed.comments {
        let Some(at) = text.find("#[bounded(via") else {
            continue;
        };
        let rest = &text[at..];
        let via = rest.split('"').nth(1).unwrap_or_default().to_string();
        let field = toks
            .iter()
            .find(|t| t.kind == TokKind::Ident && t.line > *line && t.line <= *line + 2)
            .map(|t| t.text.clone());
        if let (Some(field), false) = (field, via.is_empty()) {
            tags.push((field, via, *line));
        }
    }
    // (b) Pushes into tagged queue fields outside their choke point.
    let mut fn_stack: Vec<(String, usize)> = Vec::new(); // (fn name, depth of its `{`)
    let mut pending_fn: Option<String> = None;
    let mut depth = 0usize;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("fn") {
            if let Some(name) = toks.get(i + 1) {
                if name.kind == TokKind::Ident {
                    pending_fn = Some(name.text.clone());
                }
            }
        } else if t.is_punct('{') {
            depth += 1;
            if let Some(name) = pending_fn.take() {
                fn_stack.push((name, depth));
            }
        } else if t.is_punct('}') {
            if fn_stack.last().map(|(_, d)| *d) == Some(depth) {
                fn_stack.pop();
            }
            depth = depth.saturating_sub(1);
        } else if !mask[i]
            && t.is_ident("self")
            && i + 5 < toks.len()
            && toks[i + 1].is_punct('.')
            && toks[i + 3].is_punct('.')
            && toks[i + 5].is_punct('(')
        {
            let field = &toks[i + 2];
            let method = &toks[i + 4];
            const GROW: [&str; 6] = [
                "push",
                "push_back",
                "push_front",
                "extend",
                "append",
                "insert",
            ];
            if field.kind == TokKind::Ident && GROW.contains(&method.text.as_str()) {
                let tag = tags.iter().find(|(f, _, _)| *f == field.text);
                if let Some((_, via, _)) = tag {
                    if fn_stack.last().map(|(n, _)| n.as_str()) != Some(via.as_str()) {
                        push(
                            findings,
                            lexed,
                            "bounded_queue",
                            class,
                            t.line,
                            format!(
                                "`self.{}.{}(..)` outside `{via}`, the choke point declared \
                                 by its `#[bounded(via = \"{via}\")]` tag",
                                field.text, method.text
                            ),
                        );
                    }
                }
            }
        }
    }
    // (c) Every VecDeque field must carry a tag (or an allow).
    for i in 0..toks.len() {
        if mask[i] || !toks[i].is_ident("struct") {
            continue;
        }
        // Find the struct body `{`, skipping generics; `(` or `;`
        // means a tuple/unit struct with no named fields.
        let mut j = i + 1;
        let mut angle = 0i32;
        let body = loop {
            if j >= toks.len() {
                break None;
            }
            let t = &toks[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle == 0 && t.is_punct('{') {
                break Some(j);
            } else if angle == 0 && (t.is_punct('(') || t.is_punct(';')) {
                break None;
            }
            j += 1;
        };
        let Some(open) = body else { continue };
        let close = match_forward(toks, open, '{', '}');
        let mut k = open + 1;
        let mut brace = 1i32;
        while k < close {
            let t = &toks[k];
            if t.is_punct('{') {
                brace += 1;
            } else if t.is_punct('}') {
                brace -= 1;
            } else if brace == 1
                && t.kind == TokKind::Ident
                && toks.get(k + 1).map(|n| n.is_punct(':')) == Some(true)
                && toks.get(k + 2).map(|n| n.is_punct(':')) != Some(true)
            {
                // Field `t.text` — scan its type up to the next
                // top-level comma or the struct's closing brace.
                let mut m = k + 2;
                let mut inner = 0i32;
                let mut has_deque = false;
                while m < close {
                    let u = &toks[m];
                    if u.is_punct('<') || u.is_punct('(') || u.is_punct('[') {
                        inner += 1;
                    } else if u.is_punct('>') || u.is_punct(')') || u.is_punct(']') {
                        inner -= 1;
                    } else if inner == 0 && u.is_punct(',') {
                        break;
                    } else if u.is_ident("VecDeque") {
                        has_deque = true;
                    }
                    m += 1;
                }
                if has_deque {
                    let tagged = tags.iter().any(|(f, _, _)| *f == t.text)
                        || (t.line.saturating_sub(2)..=t.line)
                            .any(|l| lexed.comment_on_line_contains(l, "#[bounded(via"));
                    if !tagged {
                        push(
                            findings,
                            lexed,
                            "bounded_queue",
                            class,
                            t.line,
                            format!(
                                "queue field `{}: VecDeque<..>` has no `#[bounded(via = \
                                 \"<method>\")]` tag naming its choke-point method",
                                t.text
                            ),
                        );
                    }
                }
                k = m;
                continue;
            }
            k += 1;
        }
    }
}

/// Boundary-input code decodes bytes that originate outside the
/// process — worker stdout frames in `crates/cluster`, DSL text and
/// HTTP bodies in `crates/scenario`, request bodies and snapshot files
/// in the `experiments` serve layer — and must treat them as hostile
/// (a corrupted or wedged peer must not take the host with it). Three
/// unboundedness vectors are forbidden in that scope (see
/// [`bounded_ipc_scope`]): unbounded `mpsc::channel` (a dead
/// coordinator loop lets a reader thread buffer without limit),
/// `read_to_end`/`read_to_string` (a stuck peer pins memory until the
/// pipe closes, which may be never), and `with_capacity` calls whose
/// size expression shows no `.min(..)` or `MAX_*` cap witness (a forged
/// length prefix must not size an allocation).
fn rule_bounded_ipc(class: &FileClass, lexed: &Lexed, mask: &[bool], findings: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if name == "channel" {
            let call_like = toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
                || (toks.get(i + 1).map(|t| t.is_punct(':')) == Some(true)
                    && toks.get(i + 2).map(|t| t.is_punct(':')) == Some(true));
            if call_like {
                push(
                    findings,
                    lexed,
                    "bounded_ipc",
                    class,
                    toks[i].line,
                    "unbounded `mpsc::channel` in boundary-input code; use a bounded \
                     `sync_channel` or justify with `// lint: allow(bounded_ipc) <reason>`"
                        .to_string(),
                );
            }
        }
        if (name == "read_to_end" || name == "read_to_string")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
        {
            push(
                findings,
                lexed,
                "bounded_ipc",
                class,
                toks[i].line,
                format!(
                    "`.{name}()` reads unboundedly from the pipe; read length-prefixed \
                     frames into fixed-size buffers or justify with \
                     `// lint: allow(bounded_ipc) <reason>`"
                ),
            );
        }
        if name == "with_capacity" && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true) {
            let close = match_forward(toks, i + 1, '(', ')');
            let witnessed = toks[i + 2..close.min(toks.len())].iter().any(|t| {
                t.is_ident("min") || (t.kind == TokKind::Ident && t.text.contains("MAX_"))
            });
            if !witnessed {
                push(
                    findings,
                    lexed,
                    "bounded_ipc",
                    class,
                    toks[i].line,
                    "`with_capacity` sized without a `.min(..)`/`MAX_*` cap witness; a \
                     wire-derived length must be clamped before it sizes an allocation, \
                     or justify with `// lint: allow(bounded_ipc) <reason>`"
                        .to_string(),
                );
            }
        }
    }
}

/// A stall watchdog is only as honest as the heartbeats feeding it: a
/// worker iteration path that forgets to refresh its shard heartbeat
/// shows up as a false "stalled" flag under load. Every `loop` inside a
/// `fn worker*` in the monitor crate must therefore call
/// `touch_heartbeat` *as its first statement*, so each arm of the loop
/// body — dequeue, fault handling, decode — passes through the refresh
/// on every iteration.
fn rule_heartbeat_touch(
    class: &FileClass,
    lexed: &Lexed,
    mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    let toks = &lexed.toks;
    let mut i = 0;
    while i < toks.len() {
        let named_worker = toks[i].is_ident("fn")
            && toks
                .get(i + 1)
                .map(|t| t.kind == TokKind::Ident && t.text.starts_with("worker"))
                == Some(true);
        if mask[i] || !named_worker {
            i += 1;
            continue;
        }
        let Some(body_end) = item_end(toks, i) else {
            i += 1;
            continue;
        };
        let Some(open) = (i..body_end).find(|&j| toks[j].is_punct('{')) else {
            i = body_end + 1;
            continue;
        };
        for j in open + 1..body_end {
            if !(toks[j].is_ident("loop") && toks.get(j + 1).map(|t| t.is_punct('{')) == Some(true))
            {
                continue;
            }
            let close = match_forward(toks, j + 1, '{', '}');
            // The refresh must come before the first statement boundary
            // (`;`) or nested block (`{`) — i.e. be the loop's first
            // statement — so no iteration path can skip it.
            let touched = toks[j + 2..close]
                .iter()
                .take_while(|t| !t.is_punct(';') && !t.is_punct('{'))
                .any(|t| t.is_ident("touch_heartbeat"));
            if !touched {
                push(
                    findings,
                    lexed,
                    "heartbeat_touch",
                    class,
                    toks[j].line,
                    "worker loop does not refresh its shard heartbeat; call \
                     `touch_heartbeat()` as the loop's first statement or justify \
                     with `// lint: allow(heartbeat_touch) <reason>`"
                        .to_string(),
                );
            }
        }
        i = body_end + 1;
    }
}

fn rule_forbid_unsafe(class: &FileClass, lexed: &Lexed, findings: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    let present = (0..toks.len()).any(|i| {
        toks[i].is_ident("forbid")
            && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
            && toks.get(i + 2).map(|t| t.is_ident("unsafe_code")) == Some(true)
    });
    if !present {
        push(
            findings,
            lexed,
            "forbid_unsafe",
            class,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_class() -> FileClass {
        FileClass {
            rel_path: "crates/demo/src/lib.rs".to_string(),
            crate_dir: "demo".to_string(),
            is_library: true,
            is_crate_root: true,
        }
    }

    fn monitor_class() -> FileClass {
        FileClass {
            rel_path: "crates/monitor/src/engine.rs".to_string(),
            crate_dir: "monitor".to_string(),
            is_library: true,
            is_crate_root: false,
        }
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn no_panic_flags_unwrap_expect_and_macros() {
        let src = "#![forbid(unsafe_code)]\n\
                   pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   pub fn g(x: Option<u8>) -> u8 { x.expect(\"msg\") }\n\
                   pub fn h() { panic!(\"boom\") }\n\
                   pub fn t() { todo!() }\n";
        let findings = lint_file(&lib_class(), src);
        assert_eq!(rules_of(&findings), vec!["no_panic"; 4]);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn no_panic_respects_allow_and_tests() {
        let src = "#![forbid(unsafe_code)]\n\
                   // lint: allow(no_panic) capacity checked two lines up\n\
                   pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { Some(1).unwrap(); panic!(\"fine in tests\"); }\n\
                   }\n";
        assert!(lint_file(&lib_class(), src).is_empty());
    }

    #[test]
    fn no_panic_requires_a_reason() {
        let src = "#![forbid(unsafe_code)]\n\
                   pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint: allow(no_panic)\n";
        assert_eq!(rules_of(&lint_file(&lib_class(), src)), vec!["no_panic"]);
    }

    #[test]
    fn no_panic_ignores_unwrap_or_variants() {
        let src = "#![forbid(unsafe_code)]\n\
                   pub fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
                   pub fn g(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }\n";
        assert!(lint_file(&lib_class(), src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#![forbid(unsafe_code)]\n\
                   #[cfg(not(test))]\n\
                   pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules_of(&lint_file(&lib_class(), src)), vec!["no_panic"]);
    }

    #[test]
    fn micros_math_flags_raw_arithmetic() {
        let src = "#![forbid(unsafe_code)]\n\
                   pub fn f(a: TimeDelta, step: i64) -> i64 { a.as_micros() * step / 12 }\n\
                   pub fn g(a: TimeDelta, b: TimeDelta) -> i64 { a.as_micros() + b.as_micros() }\n\
                   pub fn h(x: i64) -> TimeDelta { TimeDelta::from_micros(x * 1000) }\n";
        let findings = lint_file(&lib_class(), src);
        assert_eq!(
            findings.iter().filter(|f| f.rule == "micros_math").count(),
            3
        );
    }

    #[test]
    fn micros_math_allows_plain_reads_and_negative_literals() {
        let src = "#![forbid(unsafe_code)]\n\
                   pub fn f(a: TimeDelta) -> i64 { a.as_micros() }\n\
                   pub fn g() -> TimeDelta { TimeDelta::from_micros(-7_000) }\n\
                   pub fn h(a: TimeDelta) -> f64 { a.as_micros() as f64 }\n\
                   pub fn k(r: &mut Rng, j: TimeDelta) -> i64 { r.gen_range(0..=j.as_micros()) }\n";
        assert!(lint_file(&lib_class(), src).is_empty());
    }

    #[test]
    fn micros_math_sees_operand_before_a_chain() {
        let src = "#![forbid(unsafe_code)]\n\
                   pub fn f(c: i64, s: &Flow, i: usize) -> i64 { c * s.timestamp(i).as_micros() }\n";
        assert_eq!(rules_of(&lint_file(&lib_class(), src)), vec!["micros_math"]);
    }

    #[test]
    fn ordering_requires_justification() {
        let src = "#![forbid(unsafe_code)]\n\
                   pub fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n\
                   // ordering: independent counter, no other memory is published\n\
                   pub fn g(a: &AtomicU64) -> u64 { a.load(Ordering::Acquire) }\n\
                   pub fn h(a: &AtomicU64) { a.store(1, Ordering::SeqCst); // ordering: total order needed\n\
                   }\n";
        let findings = lint_file(&lib_class(), src);
        assert_eq!(rules_of(&findings), vec!["ordering_comment"]);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn cmp_ordering_is_exempt() {
        let src = "#![forbid(unsafe_code)]\n\
                   pub fn f(a: u8, b: u8) -> Ordering { if a < b { Ordering::Less } else { Ordering::Greater } }\n";
        assert!(lint_file(&lib_class(), src).is_empty());
    }

    #[test]
    fn bounded_queue_flags_unbounded_channel() {
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }\n\
                   fn g() { let (tx, rx) = channel(); }\n\
                   fn h(cap: usize) { let (tx, rx) = sync_channel::<u8>(cap); }\n";
        let findings = lint_file(&monitor_class(), src);
        assert_eq!(rules_of(&findings), vec!["bounded_queue"; 2]);
    }

    #[test]
    fn bounded_queue_enforces_choke_point() {
        let src = "struct Q {\n\
                       // #[bounded(via = \"emit\")] drained by the caller\n\
                       verdicts: VecDeque<u8>,\n\
                   }\n\
                   impl Q {\n\
                       fn emit(&mut self, v: u8) { self.verdicts.push_back(v); }\n\
                       fn sneak(&mut self, v: u8) { self.verdicts.push_back(v); }\n\
                   }\n";
        let findings = lint_file(&monitor_class(), src);
        assert_eq!(rules_of(&findings), vec!["bounded_queue"]);
        assert_eq!(findings[0].line, 7);
    }

    #[test]
    fn bounded_queue_requires_tag_on_vecdeque_fields() {
        let src = "struct Q { backlog: VecDeque<u8>, names: Vec<String> }\n";
        let findings = lint_file(&monitor_class(), src);
        assert_eq!(rules_of(&findings), vec!["bounded_queue"]);
        assert!(findings[0].message.contains("backlog"));
    }

    #[test]
    fn bounded_queue_only_applies_to_monitor() {
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }\n";
        assert!(lint_file(
            &FileClass {
                rel_path: "crates/flow/src/x.rs".to_string(),
                crate_dir: "flow".to_string(),
                is_library: true,
                is_crate_root: false,
            },
            src
        )
        .is_empty());
    }

    fn cluster_class() -> FileClass {
        FileClass {
            rel_path: "crates/cluster/src/wire.rs".to_string(),
            crate_dir: "cluster".to_string(),
            is_library: true,
            is_crate_root: false,
        }
    }

    #[test]
    fn bounded_ipc_flags_unbounded_channel_and_reads() {
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }\n\
                   fn g(r: &mut impl Read) { let mut b = Vec::new(); r.read_to_end(&mut b); }\n\
                   fn h(cap: usize) { let (tx, rx) = sync_channel::<u8>(cap); }\n";
        let findings = lint_file(&cluster_class(), src);
        assert_eq!(rules_of(&findings), vec!["bounded_ipc"; 2]);
    }

    #[test]
    fn bounded_ipc_requires_a_cap_witness_on_with_capacity() {
        let src = "fn f(len: u32) -> Vec<u8> { Vec::with_capacity(len as usize) }\n\
                   fn g(len: u32) -> Vec<u8> { Vec::with_capacity((len as usize).min(1024)) }\n\
                   fn h(len: u32) -> Vec<u8> { Vec::with_capacity(len.min(MAX_FRAME) as usize) }\n";
        let findings = lint_file(&cluster_class(), src);
        assert_eq!(rules_of(&findings), vec!["bounded_ipc"]);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn bounded_ipc_respects_allow_and_other_crates() {
        let src = "// lint: allow(bounded_ipc) reads a local spec file, not the pipe\n\
                   fn f(r: &mut impl Read) { let mut b = Vec::new(); r.read_to_end(&mut b); }\n";
        assert!(lint_file(&cluster_class(), src).is_empty());
        let src = "fn f(len: u32) -> Vec<u8> { Vec::with_capacity(len as usize) }\n";
        assert!(lint_file(&monitor_class(), src).is_empty());
    }

    #[test]
    fn bounded_ipc_covers_scenario_and_serve_sources() {
        let src = "fn f(len: u32) -> Vec<u8> { Vec::with_capacity(len as usize) }\n";
        for (rel_path, crate_dir) in [
            ("crates/scenario/src/spec.rs", "scenario"),
            ("crates/experiments/src/serve/mod.rs", "experiments"),
            ("crates/experiments/src/serve/snapshot.rs", "experiments"),
        ] {
            let class = FileClass {
                rel_path: rel_path.to_string(),
                crate_dir: crate_dir.to_string(),
                is_library: true,
                is_crate_root: false,
            };
            assert_eq!(
                rules_of(&lint_file(&class, src)),
                vec!["bounded_ipc"],
                "{rel_path} must be in scope"
            );
        }
        // The rest of `experiments` (one-shot CLI paths reading local
        // files the operator named) stays out of scope.
        let class = FileClass {
            rel_path: "crates/experiments/src/matrix.rs".to_string(),
            crate_dir: "experiments".to_string(),
            is_library: true,
            is_crate_root: false,
        };
        assert!(lint_file(&class, src).is_empty());
    }

    #[test]
    fn heartbeat_touch_flags_a_loop_that_skips_the_beat() {
        let src = "fn worker_loop(ctx: &Ctx) {\n\
                       loop {\n\
                           let job = ctx.recv();\n\
                           ctx.touch_heartbeat();\n\
                       }\n\
                   }\n";
        let findings = lint_file(&monitor_class(), src);
        assert_eq!(rules_of(&findings), vec!["heartbeat_touch"]);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn heartbeat_touch_accepts_a_top_of_loop_refresh() {
        let src = "fn worker_loop(ctx: &Ctx) {\n\
                       loop {\n\
                           ctx.touch_heartbeat();\n\
                           let job = ctx.recv();\n\
                       }\n\
                   }\n";
        assert!(lint_file(&monitor_class(), src).is_empty());
    }

    #[test]
    fn heartbeat_touch_only_audits_worker_functions() {
        let src = "fn control_loop(ctx: &Ctx) { loop { ctx.step(); } }\n";
        assert!(lint_file(&monitor_class(), src).is_empty());
    }

    #[test]
    fn heartbeat_touch_respects_allow() {
        let src = "// lint: allow(heartbeat_touch) drains a closed queue, no watchdog armed\n\
                   fn worker_drain(ctx: &Ctx) { loop { ctx.step(); } }\n";
        assert!(lint_file(&monitor_class(), src).is_empty());
    }

    #[test]
    fn heartbeat_touch_only_applies_to_monitor() {
        let src = "fn worker_loop(ctx: &Ctx) { loop { ctx.step(); } }\n";
        assert!(lint_file(
            &FileClass {
                rel_path: "crates/flow/src/x.rs".to_string(),
                crate_dir: "flow".to_string(),
                is_library: true,
                is_crate_root: false,
            },
            src
        )
        .is_empty());
    }

    #[test]
    fn forbid_unsafe_missing_is_flagged() {
        let src = "pub fn f() {}\n";
        let findings = lint_file(
            &FileClass {
                rel_path: "crates/demo/src/lib.rs".to_string(),
                crate_dir: "demo".to_string(),
                is_library: false,
                is_crate_root: true,
            },
            src,
        );
        assert_eq!(rules_of(&findings), vec!["forbid_unsafe"]);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn non_library_files_skip_panic_rules() {
        let src = "fn main() { std::env::args().next().unwrap(); }\n";
        let findings = lint_file(
            &FileClass {
                rel_path: "crates/demo/src/main.rs".to_string(),
                crate_dir: "demo".to_string(),
                is_library: false,
                is_crate_root: true,
            },
            src,
        );
        assert_eq!(rules_of(&findings), vec!["forbid_unsafe"]);
    }
}
