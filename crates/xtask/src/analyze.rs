//! Cross-file workspace analysis: the `cargo xtask analyze` pass.
//!
//! Three rules, each with a machine-readable id (stable — CI, the
//! baseline and the waiver mechanism key on them):
//!
//! | id | invariant |
//! |----|-----------|
//! | `lock_order` | the workspace lock acquisition-order graph is acyclic, and no lock guard is held across a blocking call (`recv`, `sleep`, `wait`, frame reads) |
//! | `unit_flow` | no arithmetic or comparison mixes time units (µs/ns/ms/s as declared by binding names), and no `from_*`/`as_*` conversion is fed an operand of a different unit |
//! | `counter_pairing` | every counter family declared with `// conserve(<family>): <members>` has all members mutated in the declaring crate and rendered on `/metrics`; every registered ledger-suffixed counter belongs to a declared family |
//!
//! Where `lint` checks one file at a time, this pass parses every
//! `src/` file of the analyzed crates into [`FileFacts`], links them
//! into a workspace symbol graph ([`crate::graph::Graph`]), and
//! evaluates graph-level rules. Every run parses every file: the
//! whole pass takes tens of milliseconds. Findings are ratcheted against the
//! checked-in `analyze-baseline.json`: only findings *not* in the
//! baseline fail the pass, and `--update-baseline` rewrites it.
//! Waivers use the same `// lint: allow(<rule>) <reason>` comments as
//! the lint pass.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use crate::graph::{lock_cycles, Graph};
use crate::json::{self, obj, Value};
use crate::lint::Finding;
use crate::parse::{parse_file, FileFacts};
use crate::workspace;

/// The stable ids of every analyze rule, in report order.
pub const ANALYZE_RULES: [&str; 3] = ["lock_order", "unit_flow", "counter_pairing"];

/// Crates whose `src/` trees feed the analysis.
pub const ANALYZED_CRATES: [&str; 3] = ["ingest", "monitor", "telemetry"];

/// Registered counter name tokens that mark a conservation ledger
/// side; any counter carrying one must belong to a `conserve()`
/// family.
const LEDGER_TOKENS: [&str; 7] = [
    "_sent",
    "_acked",
    "_enqueued",
    "_dequeued",
    "_dropped",
    "_lost",
    "_rejected",
];

/// The outcome of one analysis run.
pub struct Analysis {
    /// Every finding, sorted by path/line/rule.
    pub findings: Vec<Finding>,
    /// Findings absent from the baseline — these fail the pass.
    pub new_findings: Vec<Finding>,
    /// Baseline entries that matched a current finding.
    pub baselined: usize,
    /// Baseline entries no current finding matches (ratchet fodder).
    pub stale_baseline: Vec<(String, String, String)>,
    /// Files in scope.
    pub files: usize,
    /// `(rule id, wall micros)` for every rule evaluated.
    pub rule_times_us: Vec<(String, u128)>,
}

/// Runs the analysis over the workspace at `root`: every rule, or only
/// the rule `only` names.
pub fn run(root: &Path, only: Option<&str>) -> Result<Analysis, String> {
    let all = workspace::workspace_files(root)
        .map_err(|err| format!("failed to walk {}: {err}", root.display()))?;
    let files: Vec<_> = all
        .into_iter()
        .filter(|(class, _)| {
            ANALYZED_CRATES.contains(&class.crate_dir.as_str()) && class.rel_path.contains("/src/")
        })
        .collect();

    let mut facts_list: Vec<FileFacts> = Vec::new();
    for (class, path) in &files {
        let src = std::fs::read_to_string(path)
            .map_err(|err| format!("failed to read {}: {err}", path.display()))?;
        facts_list.push(parse_file(class, &src));
    }

    let mut findings = Vec::new();
    let mut rule_times_us = Vec::new();
    for rule in ANALYZE_RULES {
        if only.is_some_and(|id| id != rule) {
            continue;
        }
        let t0 = Instant::now();
        let mut batch = match rule {
            "lock_order" => rule_lock_order(&facts_list),
            "unit_flow" => rule_unit_flow(&facts_list),
            "counter_pairing" => rule_counter_pairing(&facts_list),
            _ => Vec::new(),
        };
        rule_times_us.push((rule.to_string(), t0.elapsed().as_micros()));
        findings.append(&mut batch);
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings.dedup();

    let baseline = load_baseline(&root.join("analyze-baseline.json"));
    let current: BTreeSet<(String, String, String)> = findings
        .iter()
        .map(|f| (f.rule.to_string(), f.path.clone(), f.message.clone()))
        .collect();
    let new_findings: Vec<Finding> = findings
        .iter()
        .filter(|f| !baseline.contains(&(f.rule.to_string(), f.path.clone(), f.message.clone())))
        .cloned()
        .collect();
    let stale_baseline: Vec<_> = baseline
        .iter()
        .filter(|e| !current.contains(e))
        .cloned()
        .collect();
    let baselined = findings.len() - new_findings.len();

    Ok(Analysis {
        findings,
        new_findings,
        baselined,
        stale_baseline,
        files: files.len(),
        rule_times_us,
    })
}

/// Rewrites `analyze-baseline.json` to contain exactly `findings`.
pub fn write_baseline(root: &Path, findings: &[Finding]) -> std::io::Result<()> {
    let entries: Vec<Value> = findings
        .iter()
        .map(|f| {
            obj(vec![
                ("rule", Value::Str(f.rule.to_string())),
                ("path", Value::Str(f.path.clone())),
                ("message", Value::Str(f.message.clone())),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("schema", Value::Num(1)),
        ("findings", Value::Arr(entries)),
    ]);
    std::fs::write(root.join("analyze-baseline.json"), doc.render() + "\n")
}

/// Baseline entries as `(rule, path, message)` keys. Line numbers are
/// deliberately not part of the key so unrelated edits above a
/// baselined finding do not resurrect it.
fn load_baseline(path: &Path) -> BTreeSet<(String, String, String)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return BTreeSet::new();
    };
    let Some(doc) = json::parse(&text) else {
        return BTreeSet::new();
    };
    doc.get("findings")
        .and_then(Value::as_arr)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| {
                    Some((
                        e.get("rule")?.as_str()?.to_string(),
                        e.get("path")?.as_str()?.to_string(),
                        e.get("message")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn rule_id(name: &str) -> &'static str {
    ANALYZE_RULES
        .iter()
        .find(|r| **r == name)
        .copied()
        .unwrap_or("lock_order")
}

fn finding(rule: &str, path: &str, line: usize, message: String) -> Finding {
    Finding {
        rule: rule_id(rule),
        path: path.to_string(),
        line,
        message,
    }
}

fn facts_for<'a>(files: &'a [FileFacts], path: &str) -> Option<&'a FileFacts> {
    files.iter().find(|f| f.rel_path == path)
}

// ---------------------------------------------------------------------
// lock_order
// ---------------------------------------------------------------------

fn rule_lock_order(files: &[FileFacts]) -> Vec<Finding> {
    let g = Graph::build(files);
    let mut out = Vec::new();

    for cycle in lock_cycles(&g.lock_edges()) {
        // A waiver on any acquisition site in the cycle breaks it.
        let waived = cycle.iter().any(|e| {
            facts_for(files, &e.rel_path).is_some_and(|f| f.allowed("lock_order", e.line))
        });
        if waived {
            continue;
        }
        let chain = cycle
            .iter()
            .map(|e| match &e.via {
                Some(via) => format!("{} -> {} (via {via})", e.held, e.acquired),
                None => format!("{} -> {}", e.held, e.acquired),
            })
            .collect::<Vec<_>>()
            .join(", ");
        let anchor = &cycle[0];
        out.push(finding(
            "lock_order",
            &anchor.rel_path,
            anchor.line,
            format!("lock acquisition-order cycle (potential deadlock): {chain}"),
        ));
    }

    let mut seen = BTreeSet::new();
    for (lock, block, path, line, via) in g.blocking_while_held() {
        if !seen.insert((lock.clone(), block.clone(), path.clone(), line)) {
            continue;
        }
        if facts_for(files, &path).is_some_and(|f| f.allowed("lock_order", line)) {
            continue;
        }
        let how = match via {
            Some(via) => format!("through `{via}`"),
            None => "directly".to_string(),
        };
        out.push(finding(
            "lock_order",
            &path,
            line,
            format!(
                "lock `{lock}` is held across blocking `{block}()` {how}; \
                 drop the guard before blocking or waive with a reason"
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------
// unit_flow
// ---------------------------------------------------------------------

fn rule_unit_flow(files: &[FileFacts]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        for (line, message) in &f.unit_findings {
            if !f.allowed("unit_flow", *line) {
                out.push(finding("unit_flow", &f.rel_path, *line, message.clone()));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// counter_pairing
// ---------------------------------------------------------------------

fn rule_counter_pairing(files: &[FileFacts]) -> Vec<Finding> {
    let mut out = Vec::new();
    // Registered metric names across every analyzed crate (the
    // "rendered on /metrics" witness).
    let all_metrics: Vec<&(String, usize, bool)> =
        files.iter().flat_map(|f| &f.metric_names).collect();
    // Mutations and declared members, per crate.
    let mut mutated: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut members: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for f in files {
        for (m, _) in &f.mutations {
            mutated.entry(&f.crate_dir).or_default().insert(m);
        }
        for decl in &f.conserves {
            for m in &decl.members {
                members.entry(&f.crate_dir).or_default().insert(m);
            }
        }
    }

    for f in files {
        for decl in &f.conserves {
            if f.allowed("counter_pairing", decl.line) {
                continue;
            }
            for member in &decl.members {
                let is_mutated = mutated.get(f.crate_dir.as_str()).is_some_and(|set| {
                    set.iter()
                        .any(|m| *m == member || m.contains(member.as_str()))
                });
                if !is_mutated {
                    out.push(finding(
                        "counter_pairing",
                        &f.rel_path,
                        decl.line,
                        format!(
                            "conserve({}) member `{member}` is never incremented in \
                             crate `{}` — one side of the ledger can drift silently",
                            decl.family, f.crate_dir
                        ),
                    ));
                }
                let is_rendered = all_metrics
                    .iter()
                    .any(|(name, _, _)| name.contains(member.as_str()));
                if !is_rendered {
                    out.push(finding(
                        "counter_pairing",
                        &f.rel_path,
                        decl.line,
                        format!(
                            "conserve({}) member `{member}` is not rendered on /metrics \
                             (no registered metric name contains it)",
                            decl.family
                        ),
                    ));
                }
            }
        }
    }

    // Sweep: registered counters that look like ledger sides must be
    // covered by a conserve() declaration in their crate.
    for f in files {
        for (name, line, is_counter) in &f.metric_names {
            if !is_counter {
                continue;
            }
            let Some(token) = LEDGER_TOKENS.iter().find(|t| name.contains(*t)) else {
                continue;
            };
            let covered = members
                .get(f.crate_dir.as_str())
                .is_some_and(|set| set.iter().any(|m| name.contains(*m)));
            if !covered && !f.allowed("counter_pairing", *line) {
                out.push(finding(
                    "counter_pairing",
                    &f.rel_path,
                    *line,
                    format!(
                        "counter `{name}` carries ledger token `{token}` but no \
                         conserve() declaration in crate `{}` covers it — declare \
                         the family or waive with a reason",
                        f.crate_dir
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::classify;

    fn facts(path: &str, src: &str) -> FileFacts {
        parse_file(&classify(path), src)
    }

    #[test]
    fn lock_order_flags_cycles_and_blocking() {
        let files = vec![
            facts(
                "crates/monitor/src/a.rs",
                "fn ab(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                     let ga = a.lock().unwrap();\n\
                     let gb = b.lock().unwrap();\n\
                 }\n\
                 fn holds(rx: &Mutex<Receiver<u8>>) {\n\
                     let g = rx.lock().unwrap();\n\
                     let item = g.recv();\n\
                 }\n",
            ),
            facts(
                "crates/monitor/src/b.rs",
                "fn ba(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                     let gb = b.lock().unwrap();\n\
                     let ga = a.lock().unwrap();\n\
                 }\n",
            ),
        ];
        let found = rule_lock_order(&files);
        assert!(
            found.iter().any(|f| f.message.contains("cycle")),
            "{found:?}"
        );
        assert!(found
            .iter()
            .any(|f| f.message.contains("held across blocking `recv()`")));
    }

    #[test]
    fn lock_order_waiver_suppresses() {
        let files = vec![facts(
            "crates/monitor/src/a.rs",
            "fn holds(rx: &Mutex<Receiver<u8>>) {\n\
                 let g = rx.lock().unwrap();\n\
                 // lint: allow(lock_order) shared hand-off; watchdog covers stalls\n\
                 let item = g.recv();\n\
             }\n",
        )];
        assert!(rule_lock_order(&files).is_empty());
    }

    #[test]
    fn counter_pairing_catches_missing_increment_and_render() {
        let files = vec![facts(
            "crates/monitor/src/m.rs",
            "// conserve(queue): enqueued = dequeued + depth\n\
             fn wire(r: &Registry) {\n\
                 r.counter(\"m_enqueued_total\", \"h\");\n\
                 r.counter(\"m_dequeued_total\", \"h\");\n\
             }\n\
             fn bump(s: &S) { s.enqueued.inc(); s.dequeued.inc(); }\n",
        )];
        let found = rule_counter_pairing(&files);
        // `depth` is neither mutated nor rendered: two findings.
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|f| f.message.contains("`depth`")));
    }

    #[test]
    fn counter_pairing_sweep_catches_undeclared_ledger_counter() {
        let files = vec![facts(
            "crates/ingest/src/m.rs",
            "fn wire(r: &Registry) {\n\
                 let c = r.counter(\"ingest_frames_dropped_total\", \"h\");\n\
                 c.inc();\n\
             }\n",
        )];
        let found = rule_counter_pairing(&files);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("_dropped"));
    }

    #[test]
    fn counter_pairing_clean_family_is_silent() {
        let files = vec![facts(
            "crates/ingest/src/m.rs",
            "// conserve(frames): frames_sent = frames_acked + frames_dropped\n\
             fn wire(r: &Registry, s: &mut S) {\n\
                 r.counter(\"ingest_frames_sent_total\", \"h\");\n\
                 r.counter(\"ingest_frames_acked_total\", \"h\");\n\
                 r.counter(\"ingest_frames_dropped_total\", \"h\");\n\
                 s.frames_sent += 1;\n\
                 s.frames_acked += 1;\n\
                 s.frames_dropped += 1;\n\
             }\n",
        )];
        assert!(rule_counter_pairing(&files).is_empty());
    }

    #[test]
    fn baseline_round_trips() {
        let dir = std::env::temp_dir().join(format!("xtask-analyze-bl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let f = finding("unit_flow", "crates/monitor/src/x.rs", 7, "msg".into());
        write_baseline(&dir, std::slice::from_ref(&f)).unwrap();
        let loaded = load_baseline(&dir.join("analyze-baseline.json"));
        assert!(loaded.contains(&(
            "unit_flow".to_string(),
            "crates/monitor/src/x.rs".to_string(),
            "msg".to_string()
        )));
        std::fs::remove_dir_all(&dir).ok();
    }
}
