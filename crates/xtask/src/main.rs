//! `cargo xtask` — workspace automation.
//!
//! ```text
//! cargo xtask lint    [--format text|json|sarif] [--root DIR] [--rule ID]
//! cargo xtask analyze [--format text|json|sarif] [--root DIR] [--rule ID]
//!                     [--update-baseline]
//! ```
//!
//! `lint` runs the six per-file invariant rules (see [`lint`] module
//! docs and DESIGN.md §"Static analysis & invariants") over every Rust
//! source file in the workspace. `analyze` runs the three cross-file
//! rules (see [`analyze`] module docs and DESIGN.md §"Cross-file
//! analysis") over the `monitor`, `telemetry` and `ingest` crates
//! against a checked-in finding baseline. Exit codes for both: 0
//! clean, 1 findings (for `analyze`: findings not in the baseline), 2
//! usage or I/O error. There is deliberately no `--fix`: CI runs
//! deny-by-default and violations are fixed (or justified inline) by
//! hand.

#![forbid(unsafe_code)]

mod analyze;
mod graph;
mod json;
mod lexer;
mod lint;
mod parse;
mod report;
mod workspace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

const USAGE: &str = "usage: cargo xtask <lint|analyze> [--format text|json|sarif] \
                     [--root DIR] [--rule ID] [--update-baseline]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint_cmd(&args[1..]),
        Some("analyze") => analyze_cmd(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Flags shared by both subcommands, parsed from `args`.
struct CommonArgs {
    format: Format,
    root: Option<PathBuf>,
    rule: Option<String>,
    update_baseline: bool,
}

fn parse_args(args: &[String], allow_baseline_flags: bool) -> Result<CommonArgs, String> {
    let mut parsed = CommonArgs {
        format: Format::Text,
        root: None,
        rule: None,
        update_baseline: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => parsed.format = Format::Text,
                Some("json") => parsed.format = Format::Json,
                Some("sarif") => parsed.format = Format::Sarif,
                other => {
                    return Err(format!(
                        "--format expects `text`, `json` or `sarif`, got {other:?}"
                    ))
                }
            },
            "--root" => match it.next() {
                Some(dir) => parsed.root = Some(PathBuf::from(dir)),
                None => return Err("--root expects a directory".to_string()),
            },
            "--rule" => match it.next() {
                Some(id) => parsed.rule = Some(id.clone()),
                None => return Err("--rule expects a rule id".to_string()),
            },
            "--update-baseline" if allow_baseline_flags => parsed.update_baseline = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn resolve_root(root: Option<PathBuf>) -> Result<PathBuf, String> {
    match root {
        Some(r) => Ok(r),
        None => default_root()
            .ok_or_else(|| "could not locate the workspace root; pass --root".to_string()),
    }
}

fn lint_cmd(args: &[String]) -> ExitCode {
    let parsed = match parse_args(args, false) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let rules: Vec<&'static str> = match &parsed.rule {
        None => lint::RULES.to_vec(),
        Some(id) => match lint::RULES.iter().find(|r| *r == id) {
            Some(r) => vec![r],
            None => {
                eprintln!(
                    "unknown lint rule {id:?}; known rules: {}",
                    lint::RULES.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    };
    let root = match resolve_root(parsed.root) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let files = match workspace::workspace_files(&root) {
        Ok(files) => files,
        Err(err) => {
            eprintln!("failed to walk {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    // Lex every file once, then run rules one at a time so each can be
    // timed individually.
    let mut lexed_files = Vec::new();
    for (class, path) in &files {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(err) => {
                eprintln!("failed to read {}: {err}", path.display());
                return ExitCode::from(2);
            }
        };
        let lexed = lexer::lex(&src);
        let mask = lint::test_region_mask(&lexed.toks);
        lexed_files.push((class.clone(), lexed, mask));
    }
    let scanned = lexed_files.len();
    let mut findings = Vec::new();
    let mut rule_times_us = Vec::new();
    for rule in &rules {
        let t0 = Instant::now();
        for (class, lexed, mask) in &lexed_files {
            lint::run_rule(rule, class, lexed, mask, &mut findings);
        }
        rule_times_us.push((rule.to_string(), t0.elapsed().as_micros()));
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings.dedup();

    let rendered = match parsed.format {
        Format::Text => report::text("lint", &findings, scanned),
        Format::Json => report::json("lint", &rules, &findings, scanned, &rule_times_us, &[]),
        Format::Sarif => report::sarif("lint", &rules, &findings),
    };
    print!("{rendered}");
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn analyze_cmd(args: &[String]) -> ExitCode {
    let parsed = match parse_args(args, true) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(id) = &parsed.rule {
        if !analyze::ANALYZE_RULES.contains(&id.as_str()) {
            eprintln!(
                "unknown analyze rule {id:?}; known rules: {}",
                analyze::ANALYZE_RULES.join(", ")
            );
            return ExitCode::from(2);
        }
    }
    let root = match resolve_root(parsed.root) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let analysis = match analyze::run(&root, parsed.rule.as_deref()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if parsed.update_baseline {
        if let Err(err) = analyze::write_baseline(&root, &analysis.findings) {
            eprintln!("failed to write analyze-baseline.json: {err}");
            return ExitCode::from(2);
        }
        eprintln!(
            "analyze-baseline.json updated with {} finding(s)",
            analysis.findings.len()
        );
        return ExitCode::SUCCESS;
    }

    for (rule, path, message) in &analysis.stale_baseline {
        eprintln!("warning: stale baseline entry (no longer reported): [{rule}] {path}: {message}");
    }

    let rules: Vec<&'static str> = match &parsed.rule {
        None => analyze::ANALYZE_RULES.to_vec(),
        Some(id) => analyze::ANALYZE_RULES
            .iter()
            .filter(|r| *r == id)
            .copied()
            .collect(),
    };
    let rendered = match parsed.format {
        Format::Text => {
            let mut out = report::finding_lines(&analysis.findings);
            out.push_str(&format!(
                "xtask analyze: {} finding(s) ({} new, {} baselined) across {} file(s)\n",
                analysis.findings.len(),
                analysis.new_findings.len(),
                analysis.baselined,
                analysis.files
            ));
            out
        }
        Format::Json => report::json(
            "analyze",
            &rules,
            &analysis.findings,
            analysis.files,
            &analysis.rule_times_us,
            &[
                ("new_findings", analysis.new_findings.len()),
                ("baselined", analysis.baselined),
            ],
        ),
        Format::Sarif => report::sarif("analyze", &rules, &analysis.findings),
    };
    print!("{rendered}");
    if analysis.new_findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The workspace root: `$CARGO_MANIFEST_DIR/../..` when run via
/// `cargo xtask`, else the nearest ancestor of the current directory
/// whose `Cargo.toml` declares `[workspace]`.
fn default_root() -> Option<PathBuf> {
    if let Ok(manifest_dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let candidate = PathBuf::from(&manifest_dir).join("../..");
        if let Ok(canon) = candidate.canonicalize() {
            return Some(canon);
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
