//! Fixture-tree acceptance tests for `flipper-lint`: a miniature workspace
//! under `tests/fixtures/mini/` carries arranged violations for every rule
//! — including the workspace-pass rules (an entry-point-reachable panic, a
//! layering back-edge, a duplicated schema tag and a lock-order inversion)
//! — plus an allowed finding, a `mod tests` block and an out-of-line
//! `#[cfg(test)]` module that must stay silent. The analysis must report
//! precisely those diagnostics — same rule, file, line, column — with a
//! byte-stable `flipper-lint/v1` JSON rendering and the documented CLI
//! exit codes. A self-lint test then holds `crates/lint` itself
//! finding-free against the real workspace.

use flipper_lint::report::Baseline;
use flipper_lint::{analyze_workspace, analyze_workspace_full, LintError};
use std::path::Path;
use std::process::Command;

fn fixture_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/mini"))
}

#[test]
fn fixture_findings_are_exact() {
    let report = analyze_workspace(fixture_root()).expect("fixture tree analyzes");
    assert_eq!(
        report.files_scanned, 8,
        "proptests.rs is skipped as test-only"
    );
    let got: Vec<(&str, &str, u32, u32, bool, bool)> = report
        .findings
        .iter()
        .map(|f| {
            (
                f.rule,
                f.file.as_str(),
                f.line,
                f.col,
                f.allowed,
                f.reachable,
            )
        })
        .collect();
    let want = vec![
        (
            "error-hygiene",
            "crates/api/src/lib.rs",
            2,
            43,
            false,
            false,
        ),
        (
            "error-hygiene",
            "crates/api/src/lib.rs",
            6,
            28,
            false,
            false,
        ),
        (
            "wire-format-registry",
            "crates/api/src/lib.rs",
            13,
            5,
            false,
            false,
        ),
        (
            "panic-reachability",
            "crates/api/src/session.rs",
            13,
            7,
            false,
            true,
        ),
        (
            "panic-hygiene",
            "crates/core/src/lib.rs",
            8,
            7,
            false,
            false,
        ),
        (
            "panic-hygiene",
            "crates/core/src/lib.rs",
            13,
            7,
            true,
            false,
        ),
        (
            "lock-ordering",
            "crates/core/src/locks.rs",
            6,
            16,
            false,
            false,
        ),
        (
            "determinism",
            "crates/core/src/miner.rs",
            2,
            23,
            false,
            false,
        ),
        (
            "determinism",
            "crates/core/src/miner.rs",
            6,
            20,
            false,
            false,
        ),
        (
            "concurrency-discipline",
            "crates/data/src/lib.rs",
            3,
            5,
            false,
            false,
        ),
        (
            "concurrency-discipline",
            "crates/data/src/lib.rs",
            3,
            10,
            false,
            false,
        ),
        (
            "layering-discipline",
            "crates/data/src/lib.rs",
            9,
            5,
            false,
            false,
        ),
        (
            "allow-hygiene",
            "crates/measures/src/lib.rs",
            2,
            1,
            false,
            false,
        ),
        (
            "allow-hygiene",
            "crates/measures/src/lib.rs",
            4,
            1,
            false,
            false,
        ),
        (
            "allow-hygiene",
            "crates/measures/src/lib.rs",
            6,
            1,
            false,
            false,
        ),
        (
            "unsafe-audit",
            "crates/store/src/lib.rs",
            3,
            5,
            false,
            false,
        ),
    ];
    assert_eq!(got, want);
}

#[test]
fn json_report_is_byte_stable() {
    let report = analyze_workspace(fixture_root()).expect("fixture tree analyzes");
    let baseline_text = std::fs::read_to_string(fixture_root().join("LINT_BASELINE.json")).unwrap();
    let baseline = Baseline::parse(&baseline_text).unwrap();
    let expected = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/expected.json"
    ))
    .unwrap();
    assert_eq!(
        report.to_json(&baseline),
        expected,
        "flipper-lint/v1 rendering drifted from tests/fixtures/expected.json; \
         regenerate it deliberately if the schema change is intentional"
    );
}

#[test]
fn baseline_round_trips() {
    let report = analyze_workspace(fixture_root()).expect("fixture tree analyzes");
    let blessed = Baseline::bless(&report);
    let reparsed = Baseline::parse(&blessed.to_json()).unwrap();
    assert_eq!(blessed, reparsed);
    assert!(report.violations(&reparsed).is_empty());
}

#[test]
fn self_lint_is_finding_free() {
    // The linter eats its own dogfood: analyzing the real workspace must
    // produce no un-allowed findings inside crates/lint itself.
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let analysis = analyze_workspace_full(root).expect("workspace analyzes");
    let own: Vec<String> = analysis
        .report
        .findings
        .iter()
        .filter(|f| f.file.starts_with("crates/lint/") && !f.allowed)
        .map(|f| format!("{}:{}:{} {} {}", f.file, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(own.is_empty(), "lint flags itself: {own:#?}");
}

#[test]
fn crate_graph_covers_fixture_back_edge() {
    let analysis = analyze_workspace_full(fixture_root()).expect("fixture tree analyzes");
    let g = &analysis.crate_graph;
    assert!(g
        .edges
        .contains_key(&("data".to_string(), "api".to_string())));
    let dot = g.to_dot();
    assert!(dot.starts_with("digraph flipper {"), "{dot}");
    assert!(dot.contains("\"api\" -> \"data\";"), "{dot}");
}

fn lint_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flipper-lint"))
}

#[test]
fn cli_exit_codes_follow_the_ratchet() {
    // At-baseline run: the committed fixture baseline matches the findings.
    let ok = lint_cmd()
        .arg("--root")
        .arg(fixture_root())
        .output()
        .expect("spawn flipper-lint");
    assert_eq!(ok.status.code(), Some(0), "at-baseline run must exit 0");

    // Injected regression: against a zero baseline (absent file) every
    // fixture violation exceeds its permitted count.
    let fail = lint_cmd()
        .arg("--root")
        .arg(fixture_root())
        .arg("--baseline")
        .arg(fixture_root().join("no-such-baseline.json"))
        .output()
        .expect("spawn flipper-lint");
    assert_eq!(fail.status.code(), Some(1), "regressions must exit 1");

    // Usage errors exit 2.
    let usage = lint_cmd()
        .arg("--no-such-flag")
        .output()
        .expect("spawn flipper-lint");
    assert_eq!(usage.status.code(), Some(2), "usage errors must exit 2");
}

#[test]
fn cli_graph_dot_prints_and_exits_zero() {
    let out = lint_cmd()
        .arg("--root")
        .arg(fixture_root())
        .arg("--graph")
        .arg("dot")
        .output()
        .expect("spawn flipper-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "--graph dot ignores the ratchet"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph flipper {"), "{text}");
    assert!(text.contains("\"api\" -> \"data\";"), "{text}");

    // Unknown graph formats are usage errors.
    let bad = lint_cmd()
        .arg("--graph")
        .arg("ascii")
        .output()
        .expect("spawn flipper-lint");
    assert_eq!(bad.status.code(), Some(2));
}

/// A rule scope that names a file the workspace lacks fails the analysis,
/// naming the file, instead of silently scoping nothing. Starting from a
/// bare workspace manifest, the test creates each file the analysis asks
/// for until it passes, then deletes one again. The manifest-less fixture
/// tree above is exempt from the check.
#[test]
fn stale_scope_path_is_an_error() {
    let root = std::env::temp_dir().join(format!("flipper-lint-scope-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates")).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();

    let mut created: Vec<String> = Vec::new();
    let report = loop {
        match analyze_workspace(&root) {
            Ok(report) => break report,
            Err(err) => {
                assert!(matches!(err, LintError::Io { .. }), "{err}");
                let msg = err.to_string();
                let rel = msg.split(',').next().unwrap().to_string();
                assert!(
                    rel.starts_with("crates/") && !created.contains(&rel),
                    "{msg}"
                );
                let path = root.join(&rel);
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, "").unwrap();
                created.push(rel);
            }
        }
    };
    for rel in [
        "crates/core/src/miner.rs",
        "crates/data/src/exec.rs",
        "crates/wire/src/lib.rs",
    ] {
        assert!(created.iter().any(|c| c == rel), "{rel} is in scope");
    }
    assert_eq!(report.files_scanned, created.len());

    std::fs::remove_file(root.join("crates/data/src/exec.rs")).unwrap();
    let msg = analyze_workspace(&root)
        .expect_err("exec.rs is gone")
        .to_string();
    assert!(msg.starts_with("crates/data/src/exec.rs,"), "{msg}");
    let out = lint_cmd()
        .arg("--root")
        .arg(&root)
        .output()
        .expect("spawn flipper-lint");
    assert_eq!(out.status.code(), Some(2), "a stale scope is an I/O error");
    let _ = std::fs::remove_dir_all(&root);
}
