//! # flipper-lint
//!
//! An offline, dependency-free static-analysis pass over the workspace's
//! own sources. `cargo clippy` knows Rust; this knows *Flipper*: the
//! invariants PR 1–5 paid for — byte-pinned `flipper-results/v1` output,
//! bit-identical counts at every thread count, typed errors everywhere —
//! are enforced by project-specific rules instead of reviewer vigilance.
//!
//! The pipeline per file: a hand-rolled lexer ([`lexer`]) that cannot be
//! fooled by string/char literals or nested comments, a test-region
//! tracker ([`regions`]) so rules fire on library code only, and a rule
//! engine ([`rules`]) emitting `file:line:col` diagnostics. Findings
//! aggregate into a [`report::Report`] checked against the committed
//! ratchet baseline (`LINT_BASELINE.json`): existing debt cannot grow, and
//! burned-down counts are locked in by re-blessing.
//!
//! Run it from anywhere in the workspace:
//!
//! ```text
//! cargo run -p flipper-lint --release              # human summary
//! cargo run -p flipper-lint --release -- --json    # flipper-lint/v1 JSON
//! cargo run -p flipper-lint --release -- --bless   # rewrite the baseline
//! ```

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod regions;
pub mod report;
pub mod rules;

use report::Report;
use std::fmt;
use std::path::{Path, PathBuf};

/// Everything one analysis run produces: the findings report plus the
/// observed crate dependency graph (for `--graph dot`).
pub struct Analysis {
    /// Aggregated findings, checked against the ratchet baseline.
    pub report: Report,
    /// The observed crate dependency graph.
    pub crate_graph: graph::CrateGraph,
}

/// Errors from the analysis driver (I/O and baseline problems; rule
/// findings are data, not errors).
#[derive(Debug)]
pub enum LintError {
    /// Filesystem access failed.
    Io {
        /// What was being accessed.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The baseline file is malformed.
    Baseline {
        /// Path of the offending file.
        path: PathBuf,
        /// Parser message.
        message: String,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { context, source } => write!(f, "{context}: {source}"),
            LintError::Baseline { path, message } => {
                write!(f, "malformed baseline {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LintError::Io { source, .. } => Some(source),
            LintError::Baseline { .. } => None,
        }
    }
}

fn io_err(context: impl Into<String>, source: std::io::Error) -> LintError {
    LintError::Io {
        context: context.into(),
        source,
    }
}

/// Analyze every crate source under `root` (the workspace directory) and
/// aggregate the findings.
///
/// Scanned: `crates/<name>/src/**/*.rs`. Test directories, examples,
/// fixtures and `target/` are out of scope by construction — and files
/// declared as `#[cfg(test)] mod <name>;` by a sibling are skipped as
/// test-only in their entirety.
///
/// When `root` is a Cargo workspace (its `Cargo.toml` declares
/// `[workspace]`), every file a rule scope names by path must exist under
/// it: a missing one is a [`LintError::Io`] naming the file, not a file
/// silently out of scope. A tree without a workspace manifest, such as a
/// test fixture, is checked against the rules alone.
pub fn analyze_workspace(root: &Path) -> Result<Report, LintError> {
    analyze_workspace_full(root).map(|a| a.report)
}

/// Full analysis: per-file rules plus the workspace pass (symbol table,
/// call graph, crate graph). Per-file findings at panic sites that are
/// transitively reachable from a mining/serialization entry point are
/// re-ruled to `panic-reachability` — the hard-zero variant — unless an
/// explicit `lint:allow(panic-hygiene, …)` covers them.
pub fn analyze_workspace_full(root: &Path) -> Result<Analysis, LintError> {
    if is_workspace_root(root) {
        for rel in rules::scope_files() {
            std::fs::metadata(root.join(rel)).map_err(|e| {
                io_err(
                    format!("{rel}, named by a rule scope in crates/lint/src/rules.rs"),
                    e,
                )
            })?;
        }
    }
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs = read_dir_sorted(&crates_dir)?;
    crate_dirs.retain(|p| p.is_dir());
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();

    // Pass 1: lex everything, recording per-directory test-only modules.
    let mut lexed = Vec::with_capacity(files.len());
    let mut test_only: Vec<PathBuf> = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| io_err(format!("read {}", path.display()), e))?;
        let lx = lexer::lex(&text);
        let rg = regions::analyze(&lx.tokens);
        if let Some(dir) = path.parent() {
            for name in &rg.cfg_test_mods {
                test_only.push(dir.join(format!("{name}.rs")));
                test_only.push(dir.join(name).join("mod.rs"));
            }
        }
        lexed.push((path.clone(), lx, rg));
    }

    // Pass 2: run the per-file rules on every live file, and hand the
    // same lexed files to the workspace pass.
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    let mut live = Vec::new();
    for (path, lx, rg) in &lexed {
        if test_only.contains(path) {
            continue;
        }
        scanned += 1;
        let rel = relative_unix(root, path);
        findings.extend(rules::check_file(&rel, lx, rg));
        live.push(graph::SourceFile { rel, lx, rg });
    }

    // Pass 3: workspace analysis — crate graph, call graph, locks.
    let wg = graph::analyze(root, &live);
    for f in &mut findings {
        if f.tok == rules::NO_TOK {
            continue;
        }
        f.reachable = wg.reachable_at(&f.file, f.tok);
        // A panic site on the hot result path is not ratchetable debt; an
        // explicit allow (already folded into `allowed`) still stands.
        if f.rule == "panic-hygiene" && f.reachable && !f.allowed {
            f.rule = "panic-reachability";
        }
    }
    findings.extend(wg.findings);

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok(Analysis {
        report: Report {
            files_scanned: scanned,
            findings,
        },
        crate_graph: wg.crate_graph,
    })
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|d| is_workspace_root(d))
        .map(Path::to_path_buf)
}

/// Whether `dir` holds a `Cargo.toml` that declares `[workspace]`.
fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let rd = std::fs::read_dir(dir).map_err(|e| io_err(format!("read {}", dir.display()), e))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| io_err(format!("read {}", dir.display()), e))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes, for stable diagnostics
/// across platforms.
fn relative_unix(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
