//! End-to-end checks of `cargo xtask analyze`: each seeded violation
//! of the three cross-file rules must fail the pass, the baseline must
//! ratchet, and the real workspace must be clean modulo its checked-in
//! baseline.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch workspace under the target dir, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create fixture root");
        Self { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("file has a parent"))
            .expect("create fixture dirs");
        std::fs::write(path, content).expect("write fixture file");
    }

    fn analyze(&self, extra: &[&str]) -> (bool, String) {
        let mut args = vec!["analyze", "--root", self.root.to_str().expect("utf-8 path")];
        args.extend_from_slice(extra);
        let output = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(&args)
            .output()
            .expect("run xtask analyze");
        (
            output.status.success(),
            String::from_utf8_lossy(&output.stdout).into_owned(),
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn seeded_lock_order_cycle_is_caught() {
    let fx = Fixture::new("an-lock-cycle");
    fx.write(
        "crates/monitor/src/a.rs",
        "pub fn ab(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
             let ga = a.lock().unwrap();\n\
             let gb = b.lock().unwrap();\n\
         }\n",
    );
    fx.write(
        "crates/monitor/src/b.rs",
        "pub fn ba(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
             let gb = b.lock().unwrap();\n\
             let ga = a.lock().unwrap();\n\
         }\n",
    );
    let (ok, out) = fx.analyze(&[]);
    assert!(!ok, "lock cycle must fail analyze:\n{out}");
    assert!(out.contains("[lock_order]"), "{out}");
    assert!(out.contains("cycle"), "{out}");
}

#[test]
fn seeded_lock_held_across_recv_is_caught() {
    let fx = Fixture::new("an-lock-recv");
    fx.write(
        "crates/monitor/src/w.rs",
        "pub fn worker(rx: &Mutex<Receiver<u8>>) {\n\
             let guard = rx.lock().unwrap();\n\
             let _job = guard.recv();\n\
         }\n",
    );
    let (ok, out) = fx.analyze(&[]);
    assert!(!ok, "{out}");
    assert!(out.contains("held across blocking `recv()`"), "{out}");
}

#[test]
fn seeded_unit_flow_mix_is_caught() {
    let fx = Fixture::new("an-units");
    fx.write(
        "crates/ingest/src/ts.rs",
        "pub fn skewed(ts_micros: i64, skew_nanos: i64) -> i64 {\n\
             ts_micros + skew_nanos\n\
         }\n",
    );
    let (ok, out) = fx.analyze(&[]);
    assert!(!ok, "{out}");
    assert!(out.contains("[unit_flow]"), "{out}");
    assert!(out.contains("mixed-unit"), "{out}");
}

#[test]
fn seeded_counter_pairing_leak_is_caught() {
    let fx = Fixture::new("an-counters");
    // `dropped` is declared as part of the ledger but never
    // incremented and never rendered.
    fx.write(
        "crates/telemetry/src/wire.rs",
        "// conserve(jobs): enqueued = dequeued + dropped\n\
         pub fn wire(r: &Registry, s: &S) {\n\
             r.counter(\"t_jobs_enqueued_total\", \"h\");\n\
             r.counter(\"t_jobs_dequeued_total\", \"h\");\n\
             s.enqueued.inc();\n\
             s.dequeued.inc();\n\
         }\n",
    );
    let (ok, out) = fx.analyze(&[]);
    assert!(!ok, "{out}");
    assert!(out.contains("[counter_pairing]"), "{out}");
    assert!(out.contains("`dropped`"), "{out}");
}

#[test]
fn seeded_undeclared_ledger_counter_is_caught() {
    let fx = Fixture::new("an-ledger");
    fx.write(
        "crates/telemetry/src/m.rs",
        "pub fn wire(r: &Registry) {\n\
             let c = r.counter(\"telemetry_frames_lost_total\", \"h\");\n\
             c.inc();\n\
         }\n",
    );
    let (ok, out) = fx.analyze(&[]);
    assert!(!ok, "{out}");
    assert!(out.contains("no conserve() declaration"), "{out}");
}

#[test]
fn waivers_suppress_analyze_findings() {
    let fx = Fixture::new("an-waive");
    fx.write(
        "crates/monitor/src/w.rs",
        "pub fn worker(rx: &Mutex<Receiver<u8>>) {\n\
             let guard = rx.lock().unwrap();\n\
             // lint: allow(lock_order) single consumer owns the receiver while blocked\n\
             let _job = guard.recv();\n\
         }\n",
    );
    let (ok, out) = fx.analyze(&[]);
    assert!(ok, "waived finding must not fail analyze:\n{out}");
}

#[test]
fn rule_filter_runs_only_that_rule() {
    let fx = Fixture::new("an-filter");
    // Seeds violations of both unit_flow and counter_pairing.
    fx.write(
        "crates/ingest/src/ts.rs",
        "pub fn skewed(ts_micros: i64, skew_nanos: i64) -> i64 { ts_micros + skew_nanos }\n",
    );
    fx.write(
        "crates/telemetry/src/m.rs",
        "pub fn wire(r: &Registry) { let c = r.counter(\"c_lost_total\", \"h\"); c.inc(); }\n",
    );
    let (ok, out) = fx.analyze(&["--rule", "unit_flow"]);
    assert!(!ok, "{out}");
    assert!(out.contains("[unit_flow]"), "{out}");
    assert!(!out.contains("[counter_pairing]"), "{out}");
}

#[test]
fn update_baseline_ratchets_existing_findings() {
    let fx = Fixture::new("an-baseline");
    fx.write(
        "crates/ingest/src/ts.rs",
        "pub fn skewed(ts_micros: i64, skew_nanos: i64) -> i64 { ts_micros + skew_nanos }\n",
    );
    let (ok, out) = fx.analyze(&[]);
    assert!(!ok, "{out}");
    let (ok, _) = fx.analyze(&["--update-baseline"]);
    assert!(ok, "--update-baseline itself succeeds");
    assert!(fx.root.join("analyze-baseline.json").exists());
    // Baselined findings are reported but no longer fail the pass.
    let (ok, out) = fx.analyze(&[]);
    assert!(ok, "baselined finding must not fail:\n{out}");
    assert!(out.contains("(0 new, 1 baselined)"), "{out}");
    // A fresh finding still fails.
    fx.write(
        "crates/ingest/src/more.rs",
        "pub fn worse(a_ms: i64, b_nanos: i64) -> bool { a_ms < b_nanos }\n",
    );
    let (ok, out) = fx.analyze(&[]);
    assert!(!ok, "new finding must fail despite baseline:\n{out}");
    assert!(out.contains("1 new"), "{out}");
}

#[test]
fn sarif_output_is_well_formed() {
    let fx = Fixture::new("an-sarif");
    fx.write(
        "crates/ingest/src/ts.rs",
        "pub fn skewed(ts_micros: i64, skew_nanos: i64) -> i64 { ts_micros + skew_nanos }\n",
    );
    let (ok, out) = fx.analyze(&["--format", "sarif"]);
    assert!(!ok);
    assert!(out.contains("\"version\":\"2.1.0\""), "{out}");
    assert!(out.contains("xtask-analyze"), "{out}");
    assert!(out.contains("\"ruleId\":\"unit_flow\""), "{out}");
    assert!(out.contains("crates/ingest/src/ts.rs"), "{out}");
    assert_eq!(out.matches('{').count(), out.matches('}').count());
    assert_eq!(out.matches('[').count(), out.matches(']').count());
}

#[test]
fn real_workspace_is_analyze_clean_modulo_baseline() {
    // The repo itself must satisfy its own cross-file invariants,
    // modulo the checked-in baseline.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--root", root.to_str().expect("utf-8 path")])
        .output()
        .expect("run xtask analyze");
    assert!(
        output.status.success(),
        "workspace must be analyze-clean modulo baseline:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
}
