//! # flipper-wire
//!
//! The single source of truth for every versioned wire-format tag the
//! workspace emits or parses. A schema tag is a string of the shape
//! `flipper-<format>/v<N>`; producers write it into the document header
//! and consumers match on it before trusting any byte that follows.
//!
//! Duplicating these literals at the point of use is how formats drift: a
//! producer bumps its copy, a consumer keeps the old one, and the mismatch
//! only surfaces as a runtime parse error. Centralizing them here makes
//! the compiler enforce agreement — and `flipper-lint`'s
//! `wire-format-registry` rule enforces the centralization itself: any
//! schema-tag string literal in non-test library code *outside this
//! module* is a finding.
//!
//! Next to the tags sit the JSON text primitives every flipper document
//! is read and written with ([`json`]): the workspace's one parser and its
//! one string escaper.
//!
//! The crate is dependency-free and sits at the bottom of the workspace
//! layering, so every producer (`flipper-obs`, `flipper-api`, the CLI)
//! and consumer (including `flipper-lint`
//! itself) can reach it.

pub mod json;

/// Deterministic mining results emitted by `flipper_api::JsonWriter` and
/// consumed by `flipper results-diff`. Byte-pinned by the facade golden.
pub const RESULTS_V1: &str = "flipper-results/v1";

/// Chrome-trace-event span documents written by `flipper mine --trace`.
pub const TRACE_V1: &str = "flipper-trace/v1";

/// `flipper-lint --json` analysis reports.
pub const LINT_V1: &str = "flipper-lint/v1";

/// The lint ratchet baseline (`LINT_BASELINE.json`), v2: per-rule counts
/// split into entry-point-reachable and unreachable findings.
pub const LINT_BASELINE_V2: &str = "flipper-lint-baseline/v2";

/// The retired v1 baseline tag, recognized only to produce a precise
/// "re-bless to v2" migration error.
pub const LINT_BASELINE_V1: &str = "flipper-lint-baseline/v1";

/// Every tag in the registry, for exhaustiveness checks and docs.
pub const ALL: &[&str] = &[
    RESULTS_V1,
    TRACE_V1,
    LINT_V1,
    LINT_BASELINE_V2,
    LINT_BASELINE_V1,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_well_formed_and_unique() {
        for tag in ALL {
            let (name, version) = tag.rsplit_once("/v").expect("tag has /vN suffix");
            assert!(name.starts_with("flipper-"), "{tag}");
            assert!(
                name[8..]
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '-'),
                "{tag}"
            );
            assert!(
                !version.is_empty() && version.chars().all(|c| c.is_ascii_digit()),
                "{tag}"
            );
        }
        let mut seen = ALL.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), ALL.len(), "duplicate tag in the registry");
    }
}
