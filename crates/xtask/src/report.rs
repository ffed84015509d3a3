//! Finding output: human text, machine-readable JSON, and SARIF.
//!
//! Shared by `cargo xtask lint` and `cargo xtask analyze` — both
//! passes produce [`Finding`]s and differ only in the tool name, the
//! rule list, and the summary counters. The JSON schema is stable
//! (`"schema": 1`) so CI tooling can parse it without tracking this
//! crate's internals:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "tool": "lint",
//!   "files_scanned": 93,
//!   "counts": {"no_panic": 0, ...},
//!   "rule_times_us": {"no_panic": 1432, ...},
//!   "findings": [
//!     {"rule": "no_panic", "path": "crates/flow/src/fifo.rs",
//!      "line": 110, "message": "..."}
//!   ]
//! }
//! ```
//!
//! The SARIF output is minimal SARIF 2.1.0 — one run, one driver, one
//! result per finding — enough for GitHub code-scanning annotations.

use std::collections::BTreeMap;

use crate::json::{obj, Value};
use crate::lint::Finding;

/// Renders findings as `path:line: [rule] message` lines, matching
/// compiler-diagnostic conventions so editors can jump to them.
pub fn finding_lines(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.path, f.line, f.rule, f.message
        ));
    }
    out
}

/// Renders findings plus the standard one-line summary.
pub fn text(tool: &str, findings: &[Finding], files_scanned: usize) -> String {
    let mut out = finding_lines(findings);
    out.push_str(&format!(
        "xtask {tool}: {} finding(s) across {} file(s) scanned\n",
        findings.len(),
        files_scanned
    ));
    out
}

/// Renders findings as the schema-1 JSON document. `extra` entries
/// become additional top-level numeric fields (e.g. the analyze
/// pass's baseline counters).
pub fn json(
    tool: &str,
    rules: &[&str],
    findings: &[Finding],
    files_scanned: usize,
    rule_times_us: &[(String, u128)],
    extra: &[(&str, usize)],
) -> String {
    let mut counts: BTreeMap<&str, usize> = rules.iter().map(|r| (*r, 0)).collect();
    for f in findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    let counts_json = counts
        .iter()
        .map(|(rule, n)| format!("{}: {}", quote(rule), n))
        .collect::<Vec<_>>()
        .join(", ");
    let times_json = rule_times_us
        .iter()
        .map(|(rule, us)| format!("{}: {}", quote(rule), us))
        .collect::<Vec<_>>()
        .join(", ");
    let extra_json: String = extra
        .iter()
        .map(|(key, n)| format!("  {}: {},\n", quote(key), n))
        .collect();
    let findings_json = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}",
                quote(f.rule),
                quote(&f.path),
                f.line,
                quote(&f.message)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    format!(
        "{{\n  \"schema\": 1,\n  \"tool\": {},\n  \"files_scanned\": {},\n{}  \
         \"counts\": {{{}}},\n  \"rule_times_us\": {{{}}},\n  \
         \"findings\": [\n    {}\n  ]\n}}\n",
        quote(tool),
        files_scanned,
        extra_json,
        counts_json,
        times_json,
        if findings.is_empty() {
            String::new()
        } else {
            findings_json
        }
    )
}

/// Renders findings as a minimal SARIF 2.1.0 document (one run, one
/// result per finding) for GitHub code-scanning upload.
pub fn sarif(tool: &str, rules: &[&str], findings: &[Finding]) -> String {
    let rule_objs: Vec<Value> = rules
        .iter()
        .map(|r| {
            obj(vec![
                ("id", Value::Str((*r).to_string())),
                (
                    "name",
                    Value::Str(r.split('_').map(capitalize).collect::<String>()),
                ),
            ])
        })
        .collect();
    let results: Vec<Value> = findings
        .iter()
        .map(|f| {
            obj(vec![
                ("ruleId", Value::Str(f.rule.to_string())),
                ("level", Value::Str("error".to_string())),
                (
                    "message",
                    obj(vec![("text", Value::Str(f.message.clone()))]),
                ),
                (
                    "locations",
                    Value::Arr(vec![obj(vec![(
                        "physicalLocation",
                        obj(vec![
                            (
                                "artifactLocation",
                                obj(vec![("uri", Value::Str(f.path.clone()))]),
                            ),
                            (
                                "region",
                                obj(vec![("startLine", Value::Num(f.line as i64))]),
                            ),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    let doc = obj(vec![
        (
            "$schema",
            Value::Str("https://json.schemastore.org/sarif-2.1.0.json".to_string()),
        ),
        ("version", Value::Str("2.1.0".to_string())),
        (
            "runs",
            Value::Arr(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", Value::Str(format!("xtask-{tool}"))),
                            ("rules", Value::Arr(rule_objs)),
                        ]),
                    )]),
                ),
                ("results", Value::Arr(results)),
            ])]),
        ),
    ]);
    doc.render() + "\n"
}

fn capitalize(word: &str) -> String {
    let mut chars = word.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// JSON string escaping (RFC 8259: quote, backslash, control chars).
fn quote(s: &str) -> String {
    crate::json::quote(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::RULES;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: "no_panic",
            path: "crates/flow/src/fifo.rs".to_string(),
            line: 110,
            message: "`.unwrap()` with a \"quoted\" reason\tand tab".to_string(),
        }]
    }

    #[test]
    fn text_is_compiler_style() {
        let t = text("lint", &sample(), 3);
        assert!(t.starts_with("crates/flow/src/fifo.rs:110: [no_panic]"));
        assert!(t.contains("xtask lint: 1 finding(s) across 3 file(s)"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let times = vec![("no_panic".to_string(), 1234u128)];
        let j = json("lint", &RULES, &sample(), 3, &times, &[]);
        assert!(j.contains("\"schema\": 1"));
        assert!(j.contains("\"tool\": \"lint\""));
        assert!(j.contains("\"files_scanned\": 3"));
        assert!(j.contains("\"no_panic\": 1"));
        assert!(j.contains("\"no_panic\": 1234"));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\\t"));
        // Every rule appears in counts, even at zero.
        for rule in RULES {
            assert!(j.contains(&format!("\"{rule}\"")));
        }
    }

    #[test]
    fn json_extra_fields_are_top_level() {
        let j = json(
            "analyze",
            &["lock_order"],
            &[],
            7,
            &[],
            &[("new_findings", 2)],
        );
        assert!(j.contains("\"new_findings\": 2,"));
        assert!(crate::json::parse(&j).is_some(), "valid JSON: {j}");
    }

    #[test]
    fn empty_findings_is_valid_json_shape() {
        let j = json("lint", &RULES, &[], 93, &[], &[]);
        assert!(j.contains("\"findings\": [\n    \n  ]"));
    }

    #[test]
    fn sarif_is_valid_and_locates_findings() {
        let s = sarif("analyze", &["lock_order", "unit_flow"], &sample());
        let doc = crate::json::parse(&s).expect("valid JSON");
        assert_eq!(doc.get("version").and_then(Value::as_str), Some("2.1.0"));
        let runs = doc.get("runs").and_then(Value::as_arr).expect("runs");
        let run = &runs[0];
        assert_eq!(
            run.get("tool")
                .and_then(|t| t.get("driver"))
                .and_then(|d| d.get("name"))
                .and_then(Value::as_str),
            Some("xtask-analyze")
        );
        let results = run.get("results").and_then(Value::as_arr).expect("results");
        assert_eq!(results.len(), 1);
        let loc = results[0]
            .get("locations")
            .and_then(Value::as_arr)
            .and_then(|l| l.first())
            .and_then(|l| l.get("physicalLocation"))
            .expect("location");
        assert_eq!(
            loc.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Value::as_str),
            Some("crates/flow/src/fifo.rs")
        );
        assert_eq!(
            loc.get("region").and_then(|r| r.get("startLine")),
            Some(&Value::Num(110))
        );
    }
}
