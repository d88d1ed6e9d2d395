//! Per-lint fixtures — fire, no-fire, and pragma-suppressed — plus
//! end-to-end exit-code checks of the CLI binary: a seeded violation of
//! each lint must fail the tool, and the repository as shipped must pass
//! with the committed `CONFORMANCE.json` in sync.

use anomaly_conformance::lints::analyze_source;
use anomaly_conformance::workspace::{analyze_root, check_drift, render_json};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Lint ids fired for `src` at `path` (pragma-filtered, like the tool).
fn fired(path: &str, src: &str) -> Vec<&'static str> {
    let (findings, _) = analyze_source(path, src);
    findings.into_iter().map(|f| f.lint).collect()
}

// ---------------------------------------------------------------- fixtures

#[test]
fn c1_fires_on_panics_not_on_fallible_idioms() {
    let path = "src/pipeline/monitor.rs";
    // Fire: the full panic menu.
    assert_eq!(
        fired(path, "fn f(x: Option<u8>) -> u8 { x.unwrap() }"),
        ["C1"]
    );
    assert_eq!(
        fired(path, "fn f(x: Option<u8>) -> u8 { x.expect(\"set\") }"),
        ["C1"]
    );
    assert_eq!(fired(path, "fn f() { panic!(\"boom\") }"), ["C1"]);
    assert_eq!(fired(path, "fn f() { unreachable!() }"), ["C1"]);
    assert_eq!(fired(path, "fn f() { todo!() }"), ["C1"]);
    assert_eq!(fired(path, "fn f(v: &[u8]) -> u8 { v[0] }"), ["C1"]);
    // No fire: the typed-error idioms the burn-down replaced them with.
    assert_eq!(
        fired(path, "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }"),
        [""; 0]
    );
    assert_eq!(
        fired(
            path,
            "fn f(x: Option<u8>) -> Result<u8, E> { x.ok_or(E::Internal)? }"
        ),
        [""; 0]
    );
    assert_eq!(
        fired(path, "fn f(v: &[u8]) -> Option<u8> { v.get(0).copied() }"),
        [""; 0]
    );
    // Pragma: suppressed and counted.
    let pragmad = "// conformance: allow(C1, reason = \"slot vectors are index-aligned\")\nfn f(v: &[u8]) -> u8 { v[0] }\n";
    let (findings, allows) = analyze_source(path, pragmad);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(allows.len(), 1);
    assert_eq!(allows[0].lint, "C1");
}

#[test]
fn c2_fires_only_in_report_path_modules() {
    let src = "use std::collections::HashMap;\n";
    assert_eq!(fired("src/pipeline/report.rs", src), ["C2"]);
    assert_eq!(fired("crates/eval/src/runner.rs", src), ["C2"]);
    // The trajectory index feeds every verdict's vicinity count.
    assert_eq!(fired("crates/qos/src/grid.rs", src), ["C2"]);
    // Outside the report path, hashing is fine.
    assert_eq!(fired("crates/qos/src/snapshot.rs", src), [""; 0]);
    // The deterministic replacement never fires.
    assert_eq!(
        fired(
            "src/pipeline/report.rs",
            "use std::collections::BTreeMap;\n"
        ),
        [""; 0]
    );
    let pragmad = "// conformance: allow(C2, reason = \"lookup-only; never iterated\")\nuse std::collections::HashMap;\n";
    let (findings, allows) = analyze_source("src/pipeline/report.rs", pragmad);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(allows[0].lint, "C2");
}

#[test]
fn c3_fires_outside_the_designated_timings_module() {
    let src = "fn f() { let _ = std::time::Instant::now(); }";
    assert_eq!(fired("src/pipeline/monitor.rs", src), ["C3"]);
    assert_eq!(fired("src/pipeline/timings.rs", src), [""; 0]);
    assert_eq!(fired("crates/bench/src/bin/engine.rs", src), [""; 0]);
    // SystemTime is banned even without ::now.
    assert_eq!(
        fired(
            "crates/core/src/characterize.rs",
            "use std::time::SystemTime;\n"
        ),
        ["C3"]
    );
    // Duration arithmetic is not wall-clock access.
    assert_eq!(
        fired("src/pipeline/monitor.rs", "use std::time::Duration;\n"),
        [""; 0]
    );
    let pragmad = "// conformance: allow(C3, reason = \"telemetry only\")\nfn f() { let _ = std::time::Instant::now(); }\n";
    let (findings, allows) = analyze_source("src/pipeline/monitor.rs", pragmad);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(allows[0].lint, "C3");
}

#[test]
fn c4_requires_both_hygiene_attributes_on_lib_roots() {
    let both = "#![forbid(unsafe_code)]\n#![deny(warnings)]\npub fn ok() {}\n";
    assert_eq!(fired("crates/qos/src/lib.rs", both), [""; 0]);
    assert_eq!(fired("shims/rand/src/lib.rs", both), [""; 0]);
    assert_eq!(
        fired("crates/qos/src/lib.rs", "#![deny(warnings)]\n"),
        ["C4"]
    );
    assert_eq!(fired("crates/qos/src/lib.rs", ""), ["C4", "C4"]);
    // Only lib roots carry the requirement.
    assert_eq!(fired("crates/qos/src/grid.rs", ""), [""; 0]);
}

#[test]
fn c5_fires_on_unwrapped_partial_cmp_everywhere_but_the_helper() {
    let bad = "fn f(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap() }";
    assert_eq!(fired("crates/analytic/src/stats.rs", bad), ["C5"]);
    let expected =
        "fn f(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).expect(\"no NaN\") }";
    assert_eq!(fired("crates/baselines/src/kmeans.rs", expected), ["C5"]);
    // The replacements: total_cmp, or an un-unwrapped partial_cmp.
    assert_eq!(
        fired(
            "crates/analytic/src/stats.rs",
            "fn f(a: f64, b: f64) -> std::cmp::Ordering { a.total_cmp(&b) }"
        ),
        [""; 0]
    );
    assert_eq!(
        fired(
            "crates/analytic/src/stats.rs",
            "fn f(a: f64, b: f64) -> Option<std::cmp::Ordering> { a.partial_cmp(&b) }"
        ),
        [""; 0]
    );
    // The approved helper module is exempt by charter.
    assert_eq!(fired("crates/analytic/src/order.rs", bad), [""; 0]);
}

// ------------------------------------------------- seeded workspaces + CLI

/// A throwaway workspace root under the system temp dir.
struct TempRoot(PathBuf);

impl TempRoot {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("anomaly-conformance-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempRoot(dir)
    }

    fn write(&self, rel: &str, contents: &str) -> &Self {
        let path = self.0.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, contents).unwrap();
        self
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Runs the actual CLI binary against `root`; returns (exit code, stdout).
fn run_tool(root: &Path, write: bool) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_anomaly-conformance"));
    cmd.arg("--root").arg(root);
    if write {
        cmd.arg("--write");
    }
    let out = cmd.output().unwrap();
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn seeded_c1_violation_fails_the_tool() {
    let root = TempRoot::new("c1");
    root.write(
        "src/pipeline/bad.rs",
        "pub fn f(v: Vec<u32>) -> u32 { v.first().copied().unwrap() }\n",
    );
    let (code, out) = run_tool(root.path(), false);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("[C1]"), "{out}");
}

#[test]
fn seeded_c2_violation_fails_the_tool() {
    let root = TempRoot::new("c2");
    root.write(
        "src/pipeline/bad.rs",
        "use std::collections::HashMap;\npub type Index = HashMap<u64, u32>;\n",
    );
    let (code, out) = run_tool(root.path(), false);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("[C2]"), "{out}");
}

#[test]
fn seeded_c3_violation_fails_the_tool() {
    let root = TempRoot::new("c3");
    root.write(
        "src/pipeline/bad.rs",
        "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let (code, out) = run_tool(root.path(), false);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("[C3]"), "{out}");
}

#[test]
fn seeded_c4_violation_fails_the_tool() {
    let root = TempRoot::new("c4");
    root.write("src/lib.rs", "pub fn ok() {}\n");
    let (code, out) = run_tool(root.path(), false);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("[C4]"), "{out}");
}

#[test]
fn seeded_c5_violation_fails_the_tool() {
    let root = TempRoot::new("c5");
    root.write(
        "crates/core/src/bad.rs",
        "pub fn f(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap() }\n",
    );
    let (code, out) = run_tool(root.path(), false);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("[C5]"), "{out}");
}

#[test]
fn write_then_check_roundtrips_and_detects_drift() {
    let root = TempRoot::new("roundtrip");
    root.write(
        "src/pipeline/ok.rs",
        "// conformance: allow(C2, reason = \"lookup-only index\")\nuse std::collections::HashMap;\n",
    );
    // --write: clean (the pragma suppresses the one finding), exits 0.
    let (code, out) = run_tool(root.path(), true);
    assert_eq!(code, 0, "{out}");
    // Default mode now finds the committed report in sync.
    let (code, out) = run_tool(root.path(), false);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("1 allows"), "{out}");
    // A missing or stale report is drift.
    fs::write(root.path().join("CONFORMANCE.json"), "{}\n").unwrap();
    let (code, _) = run_tool(root.path(), false);
    assert_eq!(code, 1);
    fs::remove_file(root.path().join("CONFORMANCE.json")).unwrap();
    let (code, _) = run_tool(root.path(), false);
    assert_eq!(code, 1);
}

#[test]
fn unused_pragmas_fail_even_a_violation_free_tree() {
    let root = TempRoot::new("stale-pragma");
    root.write(
        "src/pipeline/ok.rs",
        "// conformance: allow(C1, reason = \"nothing here anymore\")\npub fn ok() {}\n",
    );
    let (code, out) = run_tool(root.path(), false);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("[pragma]"), "{out}");
}

// ------------------------------------------------------- the shipped repo

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn the_repository_as_shipped_is_clean_and_in_sync() {
    let root = repo_root();
    let analysis = analyze_root(&root).unwrap();
    assert_eq!(
        analysis.exit_code(),
        0,
        "unexpected findings: {:#?}",
        analysis.findings
    );
    // Every surviving pragma carries a written reason.
    for allow in &analysis.allows {
        assert!(
            !allow.reason.trim().is_empty(),
            "{}:{} has an empty reason",
            allow.file,
            allow.line
        );
    }
    // The committed report matches a fresh render byte-for-byte.
    assert_eq!(check_drift(&root, &analysis).unwrap(), None);
}

#[test]
fn reports_render_deterministically() {
    let root = repo_root();
    let a = analyze_root(&root).unwrap();
    let b = analyze_root(&root).unwrap();
    assert_eq!(render_json(&a), render_json(&b));
}
