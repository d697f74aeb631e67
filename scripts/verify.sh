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
#   * the flipper-data unit suite (the bitmap AND/filter kernels, the
#     view's once-per-level bitmap tables and the property test pinning
#     the storage rule `64 · support ≥ N` and its memory bound),
#   * the flipper-core unit suite (the fixed-stride candidate rows and
#     cells, the candidate sources against their reference joins, and the
#     miner's invariants: the stride slicing these rest on is the kind of
#     code the optimizer has bitten before),
#   * the FBIN storage suites: the integration round-trip suite (text↔fbin
#     round-trip idempotence, streamed-vs-loaded mining equivalence,
#     truncation/corruption behavior) and the flipper-store unit suite (the
#     chunk decoder's own checks pinned by exact error, the slice-by-8
#     CRC-32 against its bytewise reference, FBIN bytes pinned by hash),
#   * the façade acceptance suite (Session/Sweep bit-identical to
#     flipper_core::mine_with_view over a fresh memo, flipper-results/v1
#     golden bytes, repeated-run byte identity),
#   * flipper-lint (crates/lint): project-specific static analysis — the
#     ratchet against LINT_BASELINE.json must hold (no rule above its
#     committed count; see README "Static analysis"),
#   * every runnable example (quickstart, groceries, census, medline,
#     threshold_tuning, topk): each library-API walkthrough must run green
#     in release; together they take well under a second,
#   * the observability suite and the flipper-cli unit suite, three runs
#     in a row, plus a traced smoke mine: `flipper mine --trace` on a
#     planted dataset must emit a `flipper-trace/v1` document that parses,
#     nests per lane and covers the pipeline's span names (checked by the
#     flipper-obs `validate_trace` example). Both suites trace from several
#     tests at once, so repeating them catches captures leaking between
#     concurrently running tests,
#   * the fault-injection suite (crates/integration/tests/fault_injection.rs),
#     run five times in a row: seeded flipper-guard faults at every
#     instrumented site across thread counts must surface as typed errors or
#     quarantine-flagged degraded results — never a panic, never silent
#     corruption — and the inert guard must be byte-invisible in
#     flipper-results/v1. Repeating it catches plans leaking between
#     concurrently running tests,
#   * a timed-out-sweep smoke: a `flipper sweep` stopped by a tiny
#     `--timeout` must exit 3 (cancelled/timeout) and leave the report an
#     earlier sweep wrote to the same `--output-json` file byte-identical;
#     stopped the same way on a fresh `--output-json` path, it must exit 3
#     and leave no file there,
#   * the paper-reproduction suite (crates/integration/tests/reproduction.rs:
#     Fig. 8 and Fig. 9 as asserted equalities and orderings),
#   * the README's Table-4 GROCERIES recipe as a CLI smoke: `flipper
#     generate` then `flipper sweep --variants basic,flipping,full` must
#     report 12 flips on every variant row,
#   * a vertical-memo CLI smoke: a 3×3 FULL `flipper sweep` over a small
#     Quest file (3 000 transactions), once at `--threads 2` and once at
#     `--threads 1`; each point replays the points before it, in order,
#     and at `--threads 2` counts its batches sharded around the replayed
#     rows. `flipper results-diff` must report the two reports identical. That a
#     replayed sweep equals the same points mined over cold memos is
#     pinned byte for byte by the `cache_equivalence` integration suite.
#   * a BASIC CLI smoke: `flipper mine --variant basic` on the same small
#     Quest file at `--threads 1` and `--threads 2`; its sparse prefix
#     groups are counted by projection (the `--timings` counter line must
#     report `projected=` above 0), and `flipper results-diff` must report
#     the two reports identical.
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

echo "== bitmaps: flipper-data unit suite under --release"
cargo test --release -q -p flipper-data

echo "== flat rows: flipper-core unit suite under --release"
cargo test --release -q -p flipper-core

echo "== storage: fbin round-trip + streamed-vs-loaded equivalence, decoder and CRC pins under --release"
cargo test --release -q -p flipper-integration --test store_roundtrip
cargo test --release -q -p flipper-store

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

echo "== examples: every flipper-integration example (release)"
for example in quickstart groceries census medline threshold_tuning topk; do
    echo "-- example $example"
    cargo run --release -q -p flipper-integration --example "$example" >/dev/null
done

echo "== observability: obs suite + CLI suite under --release, 3 runs in a row"
for run in 1 2 3; do
    echo "-- observability run $run/3"
    cargo test --release -q -p flipper-integration --test obs_trace
    cargo test --release -q -p flipper-cli
done

echo "== observability: traced smoke mine under --release"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
cargo run --release -q -p flipper-cli -- generate --kind planted \
    --out "$OBS_TMP/planted.fbin" >/dev/null
cargo run --release -q -p flipper-cli -- mine --input "$OBS_TMP/planted.fbin" \
    --threads 2 --trace "$OBS_TMP/trace.json" --timings >/dev/null
cargo run --release -q -p flipper-obs --example validate_trace -- \
    "$OBS_TMP/trace.json" \
    --expect session.ingest,view.build,store.decode,mine.run,mine.cell,mine.count,mine.enumerate

echo "== robustness: fault-injection suite under --release, 5 runs in a row"
for run in 1 2 3 4 5; do
    echo "-- fault-injection run $run/5"
    cargo test --release -q -p flipper-integration --test fault_injection
done

echo "== robustness: timed-out-sweep smoke (an existing report stays intact, a fresh path stays empty)"
cargo run --release -q -p flipper-cli -- sweep --input "$OBS_TMP/planted.fbin" \
    --gammas 0.6,0.5,0.4 --epsilons 0.35,0.2 \
    --output-json "$OBS_TMP/sweep.json" >/dev/null 2>&1
cp "$OBS_TMP/sweep.json" "$OBS_TMP/sweep.before.json"
set +e
cargo run --release -q -p flipper-cli -- sweep --input "$OBS_TMP/planted.fbin" \
    --gammas 0.6,0.5,0.4 --epsilons 0.35,0.2 \
    --output-json "$OBS_TMP/sweep.json" --timeout 0.000000001 >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "timed-out sweep: expected the cancelled/timeout exit code 3, got $rc" >&2
    exit 1
fi
cmp -s "$OBS_TMP/sweep.json" "$OBS_TMP/sweep.before.json" || {
    echo "timed-out sweep changed the existing --output-json report" >&2
    exit 1
}
set +e
cargo run --release -q -p flipper-cli -- sweep --input "$OBS_TMP/planted.fbin" \
    --gammas 0.6,0.5,0.4 --epsilons 0.35,0.2 \
    --output-json "$OBS_TMP/fresh.json" --timeout 0.000000001 >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "timed-out sweep (fresh path): expected exit code 3, got $rc" >&2
    exit 1
fi
if [ -e "$OBS_TMP/fresh.json" ]; then
    echo "timed-out sweep left a file at a fresh --output-json path" >&2
    exit 1
fi

echo "== paper reproduction: reproduction suite under --release"
cargo test --release -q -p flipper-integration --test reproduction

echo "== paper reproduction: Table 4 GROCERIES recipe through the CLI"
cargo run --release -q -p flipper-cli -- generate --kind groceries --seed 42 \
    --out "$OBS_TMP/groceries.txt" >/dev/null
TABLE4="$(cargo run --release -q -p flipper-cli -- sweep \
    --input "$OBS_TMP/groceries.txt" --gamma 0.15 --epsilon 0.1 \
    --minsup 0.001,0.0005,0.0002 --variants basic,flipping,full 2>/dev/null)"
echo "$TABLE4"
# Skip the header; column 2 of each variant row is its flip count.
echo "$TABLE4" | awk 'NR > 1 { rows++; if ($2 != 12) bad++ }
    END { exit !(rows == 3 && bad == 0) }' || {
    echo "Table 4 recipe: expected 12 flips on each of the 3 variant rows" >&2
    exit 1
}

echo "== vertical memo: replay under sharded counting (--threads 2) equals --threads 1"
cargo run --release -q -p flipper-cli -- generate --kind quest --seed 7 \
    --transactions 3000 --out "$OBS_TMP/quest.fbin" >/dev/null
for threads in 2 1; do
    cargo run --release -q -p flipper-cli -- sweep --input "$OBS_TMP/quest.fbin" \
        --gammas 0.4,0.3,0.2 --epsilons 0.15,0.1,0.05 --variants full \
        --threads "$threads" --output-json "$OBS_TMP/memo-t$threads.json" >/dev/null
done
cargo run --release -q -p flipper-cli -- results-diff \
    "$OBS_TMP/memo-t2.json" "$OBS_TMP/memo-t1.json" || {
    echo "vertical memo: replay at --threads 2 and --threads 1 differ" >&2
    exit 1
}

echo "== prefix projection: BASIC mine at --threads 1 equals --threads 2"
for threads in 1 2; do
    cargo run --release -q -p flipper-cli -- mine --input "$OBS_TMP/quest.fbin" \
        --variant basic --threads "$threads" --timings \
        --output-json "$OBS_TMP/basic-t$threads.json" >"$OBS_TMP/basic-t$threads.txt"
    grep -Eq '^counter: .* projected=[1-9]' "$OBS_TMP/basic-t$threads.txt" || {
        echo "BASIC smoke: no member was counted by projection at --threads $threads" >&2
        exit 1
    }
done
cargo run --release -q -p flipper-cli -- results-diff \
    "$OBS_TMP/basic-t1.json" "$OBS_TMP/basic-t2.json" || {
    echo "prefix projection: BASIC reports differ across thread counts" >&2
    exit 1
}

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
