//! End-to-end check of the acceptance criterion: the lint binary must
//! exit non-zero when a seeded violation of each of the six rules is
//! introduced (seven seeded cases — `bounded_ipc` is seeded twice in
//! the `scenario` crate, once per unboundedness vector: an uncapped
//! `with_capacity` and a `read_to_end`), report each of them, and emit
//! parseable JSON.

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

    fn lint(&self, format: &str) -> (bool, String) {
        let output = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args([
                "lint",
                "--format",
                format,
                "--root",
                self.root.to_str().expect("utf-8 path"),
            ])
            .output()
            .expect("run xtask lint");
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

const CLEAN_LIB: &str = "#![forbid(unsafe_code)]\npub fn ok() {}\n";

#[test]
fn clean_workspace_exits_zero() {
    let fx = Fixture::new("clean");
    fx.write("crates/good/src/lib.rs", CLEAN_LIB);
    let (ok, out) = fx.lint("text");
    assert!(ok, "expected exit 0 on a clean tree, got:\n{out}");
    assert!(out.contains("0 finding(s)"));
}

#[test]
fn each_seeded_rule_violation_fails_the_lint() {
    // One violation per rule, each on a known line; bounded_ipc is
    // seeded once per vector.
    let cases: [(&str, &str, &str); 7] = [
        (
            "no_panic",
            "crates/a/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        ),
        (
            "micros_math",
            "crates/b/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f(d: TimeDelta) -> i64 { d.as_micros() * 2 }\n",
        ),
        (
            "ordering_comment",
            "crates/c/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n",
        ),
        (
            "bounded_queue",
            "crates/monitor/src/extra.rs",
            "pub fn f() { let (_tx, _rx) = std::sync::mpsc::channel::<u8>(); }\n",
        ),
        (
            "forbid_unsafe",
            "crates/e/src/lib.rs",
            "pub fn f() {}\n",
        ),
        (
            "bounded_ipc",
            "crates/scenario/src/alloc.rs",
            "pub fn f(len: u32) -> Vec<u8> { Vec::with_capacity(len as usize) }\n",
        ),
        (
            "bounded_ipc",
            "crates/scenario/src/extra.rs",
            "pub fn f(r: &mut impl Read) -> Vec<u8> {\n\
             \x20   let mut b = Vec::new();\n\
             \x20   r.read_to_end(&mut b);\n\
             \x20   b\n\
             }\n",
        ),
    ];
    for (i, (rule, path, src)) in cases.into_iter().enumerate() {
        let fx = Fixture::new(&format!("seed-{i}-{rule}"));
        fx.write("crates/good/src/lib.rs", CLEAN_LIB);
        fx.write("crates/monitor/src/lib.rs", "#![forbid(unsafe_code)]\n");
        fx.write(path, src);
        let (ok, out) = fx.lint("text");
        assert!(!ok, "seeded {rule} violation must fail the lint:\n{out}");
        assert!(
            out.contains(&format!("[{rule}]")),
            "output must name {rule}:\n{out}"
        );
    }
}

#[test]
fn json_output_is_well_formed_and_counts_rules() {
    let fx = Fixture::new("json");
    fx.write(
        "crates/a/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    );
    let (ok, out) = fx.lint("json");
    assert!(!ok);
    // Structural spot-checks (no JSON parser in the dep-free build).
    assert!(out.trim_start().starts_with('{'));
    assert!(out.trim_end().ends_with('}'));
    assert!(out.contains("\"schema\": 1"));
    assert!(out.contains("\"no_panic\": 1"));
    assert!(out.contains("\"rule\": \"no_panic\""));
    assert!(out.contains("\"path\": \"crates/a/src/lib.rs\""));
    assert!(out.contains("\"line\": 2"));
    assert_eq!(
        out.matches('{').count(),
        out.matches('}').count(),
        "balanced braces:\n{out}"
    );
    assert_eq!(out.matches('[').count(), out.matches(']').count());
}

#[test]
fn allow_comments_suppress_findings() {
    let fx = Fixture::new("allow");
    fx.write(
        "crates/a/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         // lint: allow(no_panic) invariant: upstream flows are non-empty by construction\n\
         pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    );
    let (ok, out) = fx.lint("text");
    assert!(ok, "justified finding must be suppressed:\n{out}");
}

#[test]
fn real_workspace_is_lint_clean() {
    // The repo itself must satisfy its own invariants: run the linter
    // against the actual workspace this test compiled from.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root", root.to_str().expect("utf-8 path")])
        .output()
        .expect("run xtask lint");
    assert!(
        output.status.success(),
        "workspace must be lint-clean:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
}
