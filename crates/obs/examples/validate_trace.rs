//! Validate a `flipper-trace/v1` file: parses the JSON with the workspace
//! parser (`flipper_wire::json`), checks per-lane span nesting, and
//! optionally asserts that a set of span names is present.
//!
//! ```text
//! cargo run -p flipper-obs --example validate_trace -- TRACE.json [--expect name1,name2,...]
//! ```
//!
//! Exit code 0 when the trace is valid (and all expected names are
//! present), 1 otherwise. Used by `scripts/verify.sh` on the trace
//! emitted by a smoke `flipper mine --trace`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut expect: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--expect" => {
                if i + 1 >= args.len() {
                    eprintln!("--expect needs a comma-separated name list");
                    return ExitCode::FAILURE;
                }
                expect.extend(args[i + 1].split(',').map(|s| s.trim().to_string()));
                i += 2;
            }
            other => {
                if path.replace(other.to_string()).is_some() {
                    eprintln!("usage: validate_trace TRACE.json [--expect a,b,c]");
                    return ExitCode::FAILURE;
                }
                i += 1;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: validate_trace TRACE.json [--expect a,b,c]");
        return ExitCode::FAILURE;
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("validate_trace: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let stats = match flipper_obs::validate_trace(&text) {
        Ok(stats) => stats,
        Err(err) => {
            eprintln!("validate_trace: {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let missing: Vec<&String> = expect
        .iter()
        .filter(|n| !stats.names.contains(n.as_str()))
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "validate_trace: {path}: missing expected span names: {}",
            missing
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::FAILURE;
    }
    println!(
        "validate_trace: {path}: OK ({} events, {} lanes, {} span names)",
        stats.events,
        stats.lanes,
        stats.names.len()
    );
    ExitCode::SUCCESS
}
