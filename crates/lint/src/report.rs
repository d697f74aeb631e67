//! Aggregated analysis report, the `flipper-lint/v1` JSON emission and the
//! ratcheting baseline (`LINT_BASELINE.json`).
//!
//! Ratchet semantics: the committed baseline records, per rule, the number
//! of un-allowed findings the workspace is *permitted* to have — split
//! into entry-point-**reachable** and **unreachable** findings, each
//! ratcheted independently so debt cannot migrate onto the hot path. A
//! run fails as soon as any rule exceeds either permitted count; rules
//! absent from the baseline are held at zero. Counts below baseline are
//! reported as burn-down so the baseline can be re-blessed (`--bless`)
//! and debt can only shrink.
//!
//! The baseline document is `flipper-lint-baseline/v2`; the retired v1
//! shape parses to a descriptive migration error, never a panic.

use crate::rules::{Finding, RULES};
use flipper_wire::json::{self, push_string, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-rule aggregation.
#[derive(Debug, Clone)]
pub struct RuleCount {
    /// Rule name.
    pub rule: &'static str,
    /// Un-allowed findings inside functions transitively reachable from a
    /// mining/serialization entry point.
    pub reachable: u64,
    /// Un-allowed findings outside any entry-point-reachable function.
    pub unreachable: u64,
    /// Findings suppressed by `lint:allow` comments.
    pub allowed: u64,
}

impl RuleCount {
    /// Total un-allowed findings.
    pub fn total(&self) -> u64 {
        self.reachable + self.unreachable
    }
}

/// The permitted (reachable, unreachable) counts for one rule.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Permit {
    /// Permitted entry-point-reachable findings.
    pub reachable: u64,
    /// Permitted unreachable findings.
    pub unreachable: u64,
}

/// The result of analyzing a workspace tree.
#[derive(Debug)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every finding, sorted by (file, line, col); includes allowed ones
    /// (marked) so reports show the full picture.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Per-rule counts in catalog order.
    pub fn counts(&self) -> Vec<RuleCount> {
        RULES
            .iter()
            .map(|r| {
                let (mut reachable, mut unreachable, mut allowed) = (0, 0, 0);
                for f in self.findings.iter().filter(|f| f.rule == r.name) {
                    if f.allowed {
                        allowed += 1;
                    } else if f.reachable {
                        reachable += 1;
                    } else {
                        unreachable += 1;
                    }
                }
                RuleCount {
                    rule: r.name,
                    reachable,
                    unreachable,
                    allowed,
                }
            })
            .collect()
    }

    /// Rules whose un-allowed counts exceed the baseline on either side of
    /// the reachable/unreachable split.
    pub fn violations(&self, baseline: &Baseline) -> Vec<(RuleCount, Permit)> {
        self.counts()
            .into_iter()
            .filter_map(|c| {
                let p = baseline.permit(c.rule);
                (c.reachable > p.reachable || c.unreachable > p.unreachable).then_some((c, p))
            })
            .collect()
    }

    /// Render the `flipper-lint/v1` JSON document.
    pub fn to_json(&self, baseline: &Baseline) -> String {
        let counts = self.counts();
        let violations = self.violations(baseline);
        let mut s = format!("{{\n  \"schema\": \"{}\",\n", flipper_wire::LINT_V1);
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        s.push_str("  \"rules\": [\n");
        for (i, c) in counts.iter().enumerate() {
            let p = baseline.permit(c.rule);
            let _ = write!(
                s,
                "    {{\"rule\": \"{}\", \"count\": {}, \"reachable\": {}, \
                 \"unreachable\": {}, \"allowed\": {}, \"baseline_reachable\": {}, \
                 \"baseline_unreachable\": {}}}",
                c.rule,
                c.total(),
                c.reachable,
                c.unreachable,
                c.allowed,
                p.reachable,
                p.unreachable
            );
            s.push_str(if i + 1 < counts.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(s, "    {{\"rule\": \"{}\", \"file\": ", f.rule);
            push_string(&mut s, &f.file);
            let _ = write!(
                s,
                ", \"line\": {}, \"col\": {}, \"allowed\": {}, \"reachable\": {}, \"message\": ",
                f.line, f.col, f.allowed, f.reachable
            );
            push_string(&mut s, &f.message);
            s.push('}');
            s.push_str(if i + 1 < self.findings.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        let _ = writeln!(
            s,
            "  \"verdict\": \"{}\"",
            if violations.is_empty() {
                "pass"
            } else {
                "fail"
            }
        );
        s.push_str("}\n");
        s
    }

    /// Human-readable summary: the per-rule table, plus full diagnostics
    /// for every rule over baseline.
    pub fn render_text(&self, baseline: &Baseline) -> String {
        let mut s = String::new();
        let violations = self.violations(baseline);
        let _ = writeln!(s, "flipper-lint: {} files scanned", self.files_scanned);
        for c in self.counts() {
            let p = baseline.permit(c.rule);
            let status = if c.reachable > p.reachable || c.unreachable > p.unreachable {
                "FAIL"
            } else if c.reachable < p.reachable || c.unreachable < p.unreachable {
                "ok (burn-down: re-bless to lock in)"
            } else {
                "ok"
            };
            let _ = writeln!(
                s,
                "  {:<24} {:>4} reachable / {:>4} unreachable (baseline {:>4}/{:<4}, allowed {:>3})  {}",
                c.rule, c.reachable, c.unreachable, p.reachable, p.unreachable, c.allowed, status
            );
        }
        for (c, p) in &violations {
            let _ = writeln!(
                s,
                "\nrule {} exceeds baseline ({}/{} > {}/{} reachable/unreachable):",
                c.rule, c.reachable, c.unreachable, p.reachable, p.unreachable
            );
            for f in self
                .findings
                .iter()
                .filter(|f| f.rule == c.rule && !f.allowed)
            {
                let tag = if f.reachable { " [reachable]" } else { "" };
                let _ = writeln!(s, "  {}:{}:{}:{tag} {}", f.file, f.line, f.col, f.message);
            }
        }
        s
    }
}

/// A malformed baseline document — the lint eats its own error-hygiene
/// dogfood, so even this one-field error is a type, not a `String`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineError {
    /// What the parser objected to.
    pub message: String,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for BaselineError {}

fn fail<T>(message: impl Into<String>) -> Result<T, BaselineError> {
    Err(BaselineError {
        message: message.into(),
    })
}

/// The committed per-rule permitted counts.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<String, Permit>,
}

impl Baseline {
    /// Permitted counts for `rule` (absent rules are held at zero/zero).
    pub fn permit(&self, rule: &str) -> Permit {
        self.counts.get(rule).copied().unwrap_or_default()
    }

    /// Baseline matching a report exactly (for `--bless`).
    pub fn bless(report: &Report) -> Baseline {
        Baseline {
            counts: report
                .counts()
                .into_iter()
                .map(|c| {
                    (
                        c.rule.to_string(),
                        Permit {
                            reachable: c.reachable,
                            unreachable: c.unreachable,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Serialize as `flipper-lint-baseline/v2`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"schema\": \"{}\",\n  \"counts\": {{\n",
            flipper_wire::LINT_BASELINE_V2
        );
        let n = self.counts.len();
        for (i, (rule, p)) in self.counts.iter().enumerate() {
            s.push_str("    ");
            push_string(&mut s, rule);
            let _ = write!(
                s,
                ": {{\"reachable\": {}, \"unreachable\": {}}}",
                p.reachable, p.unreachable
            );
            s.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Parse the baseline document: a JSON object holding the `schema` tag
    /// and, optionally, `counts`, the shape `to_json` writes. Anything else
    /// is a descriptive error, never a panic. The retired v1 shape gets a
    /// dedicated migration message.
    pub fn parse(text: &str) -> Result<Baseline, BaselineError> {
        let doc = json::parse(text).or_else(|e| fail(e.to_string()))?;
        let Json::Obj(fields) = &doc else {
            return fail("baseline is not a JSON object");
        };
        match doc
            .get("schema")
            .map(|v| v.as_str().unwrap_or("<not a string>"))
        {
            None => return fail("baseline is missing the `schema` field"),
            Some(v) if v == flipper_wire::LINT_BASELINE_V1 => {
                return fail(format!(
                    "baseline schema `{v}` predates the reachable/unreachable \
                     split; run `flipper-lint --bless` to migrate to `{}`",
                    flipper_wire::LINT_BASELINE_V2
                ))
            }
            Some(v) if v != flipper_wire::LINT_BASELINE_V2 => {
                return fail(format!("unsupported baseline schema `{v}`"))
            }
            Some(_) => {}
        }
        let mut counts = BTreeMap::new();
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("schema", _) => {}
                ("counts", Json::Obj(rules)) => {
                    for (rule, permit) in rules {
                        counts.insert(rule.clone(), parse_permit(permit)?);
                    }
                }
                ("counts", _) => return fail("baseline `counts` is not an object"),
                (other, _) => return fail(format!("unexpected baseline key `{other}`")),
            }
        }
        Ok(Baseline { counts })
    }
}

/// Parse one `{"reachable": N, "unreachable": N}` permit object (keys in
/// either order; both required).
fn parse_permit(value: &Json) -> Result<Permit, BaselineError> {
    let Json::Obj(fields) = value else {
        return fail(format!("expected a permit object, found `{value:?}`"));
    };
    let (mut reachable, mut unreachable) = (None, None);
    for (key, n) in fields {
        let Some(n) = n.as_u64() else {
            return fail(format!("expected a count, found `{n:?}`"));
        };
        match key.as_str() {
            "reachable" => reachable = Some(n),
            "unreachable" => unreachable = Some(n),
            other => return fail(format!("unexpected permit key `{other}`")),
        }
    }
    match (reachable, unreachable) {
        (Some(reachable), Some(unreachable)) => Ok(Permit {
            reachable,
            unreachable,
        }),
        _ => fail("permit object needs both `reachable` and `unreachable`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(findings: Vec<Finding>) -> Report {
        Report {
            files_scanned: 1,
            findings,
        }
    }

    fn finding(rule: &'static str, allowed: bool, reachable: bool) -> Finding {
        Finding {
            rule,
            file: "crates/x/src/lib.rs".to_string(),
            line: 1,
            col: 1,
            message: "m \"quoted\"".to_string(),
            allowed,
            tok: crate::rules::NO_TOK,
            reachable,
        }
    }

    #[test]
    fn counts_split_allowed_and_reachability() {
        let r = report_with(vec![
            finding("panic-hygiene", false, false),
            finding("panic-hygiene", false, true),
            finding("panic-hygiene", true, true),
        ]);
        let c = &r.counts()[0];
        assert_eq!(
            (c.rule, c.reachable, c.unreachable, c.allowed),
            ("panic-hygiene", 1, 1, 1)
        );
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn baseline_roundtrip_and_ratchet() {
        let r = report_with(vec![finding("panic-hygiene", false, false)]);
        let b = Baseline::bless(&r);
        let parsed = Baseline::parse(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        assert!(r.violations(&parsed).is_empty(), "blessed baseline passes");
        // One more finding than permitted: violation.
        let worse = report_with(vec![
            finding("panic-hygiene", false, false),
            finding("panic-hygiene", false, false),
        ]);
        let v = worse.violations(&parsed);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0.unreachable, 2);
        assert_eq!(v[0].1.unreachable, 1);
        // Absent rules are held at zero.
        let zero = Baseline::default();
        assert_eq!(r.violations(&zero).len(), 1);
    }

    #[test]
    fn reachable_debt_cannot_hide_under_unreachable_headroom() {
        // One unreachable finding blessed; the same finding moving onto
        // the reachable side must fail even though the total is unchanged.
        let blessed = Baseline::bless(&report_with(vec![finding("panic-hygiene", false, false)]));
        let moved = report_with(vec![finding("panic-hygiene", false, true)]);
        let v = moved.violations(&blessed);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].0.reachable, v[0].1.reachable), (1, 0));
    }

    #[test]
    fn baseline_parse_rejects_garbage_and_migrates_v1() {
        assert!(Baseline::parse("").is_err());
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"schema\": \"other/v9\", \"counts\": {}}").is_err());
        assert!(Baseline::parse(
            "{\"schema\": \"flipper-lint-baseline/v2\", \"counts\": {\"x\": }}"
        )
        .is_err());
        // v1 gets a migration hint, not a generic rejection.
        let err = Baseline::parse("{\"schema\": \"flipper-lint-baseline/v1\", \"counts\": {}}")
            .unwrap_err();
        assert!(err.message.contains("--bless"), "{err}");
        assert!(err.message.contains("flipper-lint-baseline/v2"), "{err}");
        // Permit objects need both sides of the split.
        assert!(Baseline::parse(
            "{\"schema\": \"flipper-lint-baseline/v2\", \"counts\": {\"x\": {\"reachable\": 1}}}"
        )
        .is_err());
    }

    #[test]
    fn baseline_keys_decode_json_escapes() {
        let text = "{\"schema\": \"flipper-lint-baseline/v2\", \"counts\": \
                    {\"panic\\u002dhygiene\": {\"reachable\": 0, \"unreachable\": 3}}}";
        let b = Baseline::parse(text).unwrap();
        assert_eq!(
            b.permit("panic-hygiene"),
            Permit {
                reachable: 0,
                unreachable: 3
            }
        );
        // Non-count values keep their dedicated rejection.
        let err = Baseline::parse(
            "{\"schema\": \"flipper-lint-baseline/v2\", \"counts\": \
             {\"x\": {\"reachable\": 1.5, \"unreachable\": 0}}}",
        )
        .unwrap_err();
        assert!(err.message.starts_with("expected a count"), "{err}");
    }

    #[test]
    fn json_report_is_escaped_and_versioned() {
        let r = report_with(vec![finding("panic-hygiene", false, true)]);
        let json = r.to_json(&Baseline::default());
        assert!(json.contains(&format!("\"schema\": \"{}\"", flipper_wire::LINT_V1)));
        assert!(json.contains("m \\\"quoted\\\""));
        let parsed = json::parse(&json).unwrap();
        let Some(Json::Arr(findings)) = parsed.get("findings") else {
            panic!("findings array missing: {json}");
        };
        assert_eq!(
            findings[0].get("message").and_then(Json::as_str),
            Some("m \"quoted\"")
        );
        assert!(json.contains("\"reachable\": true"));
        assert!(json.contains("\"verdict\": \"fail\""));
        let blessed = Baseline::bless(&r);
        assert!(r.to_json(&blessed).contains("\"verdict\": \"pass\""));
    }
}
