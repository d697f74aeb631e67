#!/usr/bin/env bash
# Tier-1 verification: the workspace must build in release mode and pass the
# full test suite offline (no network, no external crates). Extra release-
# mode gates (optimized codegen has caught UB-adjacent bugs debug builds
# miss):
#
#   * the thread-count equivalence suite,
#   * the prefix-group counting sweep (the support-counting kernel
#     bit-identical to the naive per-candidate reference, counts and stats,
#     at every storage density and thread count),
#   * the FBIN storage suite (text↔fbin round-trip idempotence, streamed-
#     vs-loaded mining equivalence, truncation/corruption behavior),
#   * the façade acceptance suite (Session/Sweep bit-identical to the
#     single-shot paths, flipper-results/v1 golden bytes, repeated-run
#     byte identity),
#   * flipper-lint (crates/lint): project-specific static analysis — the
#     ratchet against LINT_BASELINE.json must hold (no rule above its
#     committed count; see README "Static analysis"),
#   * the quickstart example (the library-API walkthrough must run green),
#   * the observability suite plus a traced smoke mine: `flipper mine
#     --trace` on a planted dataset must emit a `flipper-trace/v1` document
#     that parses, nests per lane and covers the pipeline's span names
#     (checked by the flipper-obs `validate_trace` example),
#   * the fault-injection suite (crates/integration/tests/fault_injection.rs),
#     run five times in a row: seeded flipper-guard faults at every
#     instrumented site across thread counts must surface as typed errors or
#     quarantine-flagged degraded results — never a panic, never silent
#     corruption — and the inert guard must be byte-invisible in
#     flipper-results/v1. Repeating it catches plans leaking between
#     concurrently running tests,
#   * a cancelled-sweep-then-resume smoke: a checkpointed `flipper sweep`
#     killed by a tiny `--timeout` must exit 3 (cancelled/timeout), leave a
#     readable flipper-sweep-ckpt/v1 journal, and complete under `--resume`.
#
# Documentation is a gate too: `cargo doc --no-deps` must build with
# RUSTDOCFLAGS="-D warnings" — a public API change that breaks its own
# docs fails verification.
#
#   ./scripts/verify.sh
#
# Performance is measured by the standalone benchmark in perfbench/ (see
# BENCHMARK.json), not here. Two advisory, non-blocking steps ride along at
# the end: clippy and rustfmt. Their findings are printed but never fail
# verification.
set -uo pipefail

cd "$(dirname "$0")/.."

set -e
echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

echo "== execution layer: thread equivalence suite under --release"
cargo test --release -q -p flipper-integration --test equivalence

echo "== counting kernel: prefix-group equivalence sweep under --release"
cargo test --release -q -p flipper-integration --test prefix_groups

echo "== storage: fbin round-trip + streamed-vs-loaded equivalence under --release"
cargo test --release -q -p flipper-integration --test store_roundtrip

echo "== api façade: session/sweep equivalence + results/v1 golden under --release"
cargo test --release -q -p flipper-integration --test facade

echo "== static analysis: flipper-lint against LINT_BASELINE.json"
cargo run --release -q -p flipper-lint -- --json

echo "== static analysis: crate dependency graph is acyclic (--graph dot)"
DOT_OUT="$(cargo run --release -q -p flipper-lint -- --graph dot)"
echo "$DOT_OUT" | grep -q '^digraph flipper {' || {
    echo "flipper-lint --graph dot did not emit a DOT document" >&2
    exit 1
}
if command -v tsort >/dev/null 2>&1; then
    # Each DOT edge `"to" -> "from";` becomes a `to from` pair; tsort fails
    # loudly on any cycle. The layering rule already forbids back-edges, so
    # this is a belt-and-braces check on the observed graph itself.
    echo "$DOT_OUT" | sed -n 's/^  "\([a-z]*\)" -> "\([a-z]*\)";$/\1 \2/p' \
        | tsort >/dev/null || {
        echo "crate dependency graph has a cycle" >&2
        exit 1
    }
else
    echo "tsort unavailable; acyclicity still enforced by the layering rule"
fi

echo "== docs: cargo doc --no-deps with -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "== examples: quickstart (release)"
cargo run --release -q -p flipper-integration --example quickstart >/dev/null

echo "== observability: obs suite + traced smoke mine under --release"
cargo test --release -q -p flipper-integration --test obs_trace
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
cargo run --release -q -p flipper-cli -- generate --kind planted \
    --out "$OBS_TMP/planted.fbin" >/dev/null
cargo run --release -q -p flipper-cli -- mine --input "$OBS_TMP/planted.fbin" \
    --threads 2 --trace "$OBS_TMP/trace.json" --timings >/dev/null
cargo run --release -q -p flipper-obs --example validate_trace -- \
    "$OBS_TMP/trace.json" \
    --expect session.ingest,view.build,mine.run,mine.cell,mine.count

echo "== robustness: fault-injection suite under --release, 5 runs in a row"
for run in 1 2 3 4 5; do
    echo "-- fault-injection run $run/5"
    cargo test --release -q -p flipper-integration --test fault_injection
done

echo "== robustness: cancelled-sweep-then-resume smoke (checkpoint journal)"
set +e
cargo run --release -q -p flipper-cli -- sweep --input "$OBS_TMP/planted.fbin" \
    --gammas 0.6,0.5,0.4 --epsilons 0.35,0.2 \
    --checkpoint "$OBS_TMP/sweep.ckpt" --timeout 0.000000001 >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "cancelled sweep: expected the cancelled/timeout exit code 3, got $rc" >&2
    exit 1
fi
head -1 "$OBS_TMP/sweep.ckpt" | grep -q '^flipper-sweep-ckpt/v1$' || {
    echo "cancelled sweep left no readable flipper-sweep-ckpt/v1 journal" >&2
    exit 1
}
cargo run --release -q -p flipper-cli -- sweep --input "$OBS_TMP/planted.fbin" \
    --gammas 0.6,0.5,0.4 --epsilons 0.35,0.2 \
    --checkpoint "$OBS_TMP/sweep.ckpt" --resume >/dev/null

set +e

echo "== advisory: cargo clippy --all-targets -- -D warnings (non-blocking)"
if cargo clippy --all-targets -- -D warnings; then
    echo "clippy: clean"
else
    echo "clippy: findings above are advisory only; tier-1 still PASSED"
fi

echo "== advisory: cargo fmt --check (non-blocking)"
if cargo fmt --check; then
    echo "fmt: clean"
else
    echo "fmt: drift above is advisory only; tier-1 still PASSED"
fi

echo "== tier-1 verification PASSED"
