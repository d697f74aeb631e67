//! The rule engine: project-specific invariants checked over the token
//! stream of every workspace source file.
//!
//! Rules are tuned to invariants PR 1–5 established by hand and review:
//!
//! | rule | invariant it guards |
//! |------|---------------------|
//! | `panic-hygiene` | library crates return typed errors, they don't panic |
//! | `determinism` | result-determining modules are free of hash-iteration order and wall-clock reads (`flipper-results/v1` is byte-pinned) |
//! | `error-hygiene` | no `Result<_, String>` / `Box<dyn Error>` in `pub` signatures |
//! | `concurrency-discipline` | raw `std::thread` only inside `flipper_data::exec`, where shard-invariance is proven |
//! | `unsafe-audit` | every `unsafe` block/impl carries a `// SAFETY:` justification |
//! | `allow-hygiene` | `lint:allow` comments name a real rule and give a reason |
//! | `panic-reachability` | no un-allowed panic sites reachable from the mining/serialization entry points (workspace call graph) |
//! | `layering-discipline` | crate dependencies follow the declared layer DAG and edge allowlist |
//! | `wire-format-registry` | wire schema tags live in flipper-wire only; everyone else uses the constants |
//! | `lock-ordering` | lock classes are acquired in one global order (no deadlock shapes) |
//!
//! The first six are per-file token rules; the last four come from the
//! workspace pass ([`crate::parser`], [`crate::graph`]) that builds the
//! symbol table, call graph and crate graph.
//!
//! Findings can be suppressed with `// lint:allow(<rule>) <reason>` on the
//! same line or the line above — except for `determinism`,
//! `concurrency-discipline` and `unsafe-audit`, which accept no allows:
//! those invariants hold repo-wide today and an escape hatch would silently
//! re-open them. (To *deliberately* regress one, re-bless the baseline —
//! that shows up in review as a changed `LINT_BASELINE.json`.)

use crate::lexer::{Comment, LexOutput, Tok};
use crate::regions::Regions;

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name as used in diagnostics, allow comments and the baseline.
    pub name: &'static str,
    /// One-line description for `--list-rules` and reports.
    pub summary: &'static str,
    /// Whether `// lint:allow(<rule>)` comments may suppress findings.
    pub allowable: bool,
}

/// The rule catalog, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "panic-hygiene",
        summary: "no unwrap/expect/panic!/todo!/unimplemented! in non-test library code \
                  of api/core/data/store/taxonomy/measures/guard",
        allowable: true,
    },
    RuleInfo {
        name: "determinism",
        summary: "no HashMap/HashSet and no Instant/SystemTime reads in modules that \
                  determine pinned result bytes; use BTreeMap or an explicit sort",
        allowable: false,
    },
    RuleInfo {
        name: "error-hygiene",
        summary: "no Result<_, String> or Box<dyn Error> in pub signatures outside bins",
        allowable: true,
    },
    RuleInfo {
        name: "concurrency-discipline",
        summary: "no raw std::thread spawn/scope outside flipper_data::exec",
        allowable: false,
    },
    RuleInfo {
        name: "unsafe-audit",
        summary: "every unsafe block or impl carries a // SAFETY: justification",
        allowable: false,
    },
    RuleInfo {
        name: "allow-hygiene",
        summary: "lint:allow comments name a known, allowable rule and give a reason",
        allowable: false,
    },
    RuleInfo {
        name: "panic-reachability",
        summary: "no un-allowed panic sites in functions transitively reachable from \
                  Session::mine, Sweep::run or JsonWriter; fix the site \
                  or allow it as panic-hygiene with a reason",
        allowable: false,
    },
    RuleInfo {
        name: "layering-discipline",
        summary: "crate dependencies follow the declared layer DAG and edge allowlist \
                  (LAYERS/ALLOWED_EDGES in crates/lint/src/graph.rs)",
        allowable: false,
    },
    RuleInfo {
        name: "wire-format-registry",
        summary: "wire schema tags are spelled as literals only in the flipper-wire \
                  registry; everywhere else use its named constants",
        allowable: false,
    },
    RuleInfo {
        name: "lock-ordering",
        summary: "lock classes are acquired in one global order; conflicting orders \
                  anywhere in the workspace are flagged as deadlock shapes",
        allowable: false,
    },
];

/// Sentinel token index for findings not anchored to a code token
/// (comment-based findings and workspace-graph findings).
pub const NO_TOK: usize = usize::MAX;

/// Look a rule up by name.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable message.
    pub message: String,
    /// Suppressed by a valid `lint:allow` comment?
    pub allowed: bool,
    /// Index of the offending token in its file's token stream, or
    /// [`NO_TOK`] for comment/graph findings. Used to locate the enclosing
    /// function for reachability; not serialized.
    pub tok: usize,
    /// Is the finding inside a function transitively reachable from a
    /// mining/serialization entry point? Set by the workspace pass.
    pub reachable: bool,
}

/// A parsed `// lint:allow(<rule>) <reason>` comment.
#[derive(Debug)]
struct Allow {
    rule: String,
    line: u32,
}

// ---- scopes ---------------------------------------------------------------

/// Crates whose library code must not panic.
const PANIC_CRATES: &[&str] = &[
    "api", "core", "data", "store", "taxonomy", "measures", "guard",
];

/// Modules that determine `flipper-results/v1` bytes (including the FBIN
/// chunk reader, the view builder and the counting kernel, which build
/// every byte the miner reads), plus the flipper-obs hot-path modules the
/// miner calls into (a nondeterministic container or
/// clock read there could perturb recording order or, worse, leak timing
/// into results). `core/src/stats.rs` is deliberately absent: it hosts the
/// one sanctioned wall-clock read ([`Stopwatch`](../../core/src/stats.rs))
/// whose `elapsed` field the JSON writer excludes from result bytes by
/// construction. `obs/src/clock.rs` is absent for the same reason — it is
/// the observability counterpart of `Stopwatch`, the only module in
/// flipper-obs allowed to touch `Instant`, and its readings only ever flow
/// into traces and metrics, never into result bytes.
const DETERMINISM_FILES: &[&str] = &[
    "crates/core/src/miner.rs",
    "crates/core/src/gen.rs",
    "crates/core/src/cell.rs",
    "crates/core/src/stability.rs",
    "crates/core/src/topk.rs",
    "crates/core/src/ranking.rs",
    "crates/core/src/results.rs",
    "crates/data/src/cache.rs",
    "crates/data/src/bitset.rs",
    "crates/data/src/projection.rs",
    "crates/store/src/reader.rs",
    "crates/api/src/sink.rs",
    "crates/api/src/session.rs",
    "crates/api/src/sweep.rs",
    "crates/obs/src/recorder.rs",
    "crates/obs/src/span.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/trace.rs",
];

/// The one module allowed to touch `std::thread` — shard-invariance of its
/// pool is proven by the equivalence suite.
const EXEC_FILE: &str = "crates/data/src/exec.rs";

/// The one module that may spell wire schema tags as string literals: the
/// flipper-wire constant registry itself.
const WIRE_REGISTRY_FILE: &str = "crates/wire/src/lib.rs";

fn in_panic_scope(rel: &str) -> bool {
    PANIC_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

fn in_determinism_scope(rel: &str) -> bool {
    DETERMINISM_FILES.contains(&rel)
}

fn in_error_scope(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !rel.starts_with("crates/cli/")
        && !rel.contains("/bin/")
        && !rel.ends_with("/main.rs")
}

fn in_concurrency_scope(rel: &str) -> bool {
    rel != EXEC_FILE
}

// ---- engine ---------------------------------------------------------------

/// Run every rule over one lexed file. `rel` is the workspace-relative
/// path with forward slashes.
pub fn check_file(rel: &str, lx: &LexOutput, rg: &Regions) -> Vec<Finding> {
    let mut findings = Vec::new();
    let allows = parse_allows(rel, &lx.comments, &mut findings);
    let toks = &lx.tokens;

    if in_panic_scope(rel) {
        panic_hygiene(rel, toks, rg, &mut findings);
    }
    if in_determinism_scope(rel) {
        determinism(rel, toks, rg, &mut findings);
    }
    if in_error_scope(rel) {
        error_hygiene(rel, toks, rg, &mut findings);
    }
    if in_concurrency_scope(rel) {
        concurrency_discipline(rel, toks, rg, &mut findings);
    }
    unsafe_audit(rel, toks, &lx.comments, &mut findings);
    if rel != WIRE_REGISTRY_FILE {
        wire_format_registry(rel, toks, rg, &mut findings);
    }

    // Apply allows: a finding is suppressed when a valid allow for its rule
    // sits on the same line or the line directly above.
    for f in &mut findings {
        if rule_info(f.rule).is_some_and(|r| r.allowable)
            && allows
                .iter()
                .any(|a| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line))
        {
            f.allowed = true;
        }
    }
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static str,
    rel: &str,
    t: &Tok,
    tok: usize,
    message: String,
) {
    findings.push(Finding {
        rule,
        file: rel.to_string(),
        line: t.line,
        col: t.col,
        message,
        allowed: false,
        tok,
        reachable: false,
    });
}

fn panic_hygiene(rel: &str, toks: &[Tok], rg: &Regions, findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if rg.is_test(i) {
            continue;
        }
        let method_call = |name: &str| {
            t.is_ident(name)
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        };
        let macro_call =
            |name: &str| t.is_ident(name) && toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        for name in ["unwrap", "expect"] {
            if method_call(name) {
                push(
                    findings,
                    "panic-hygiene",
                    rel,
                    t,
                    i,
                    format!("`.{name}()` in non-test library code; return a typed error"),
                );
            }
        }
        for name in ["panic", "todo", "unimplemented"] {
            if macro_call(name) {
                push(
                    findings,
                    "panic-hygiene",
                    rel,
                    t,
                    i,
                    format!("`{name}!` in non-test library code; return a typed error"),
                );
            }
        }
    }
}

fn determinism(rel: &str, toks: &[Tok], rg: &Regions, findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if rg.is_test(i) || t.kind != crate::lexer::TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => push(
                findings,
                "determinism",
                rel,
                t,
                i,
                format!(
                    "`{}` in a result-determining module: iteration order is \
                     nondeterministic; use BTreeMap/BTreeSet or an explicit sort",
                    t.text
                ),
            ),
            "Instant" | "SystemTime" => push(
                findings,
                "determinism",
                rel,
                t,
                i,
                format!(
                    "`{}` in a result-determining module: wall-clock reads cannot \
                     feed {} bytes; keep timing behind flipper_core::RunStats \
                     (excluded from result bytes)",
                    t.text,
                    flipper_wire::RESULTS_V1
                ),
            ),
            _ => {}
        }
    }
}

fn error_hygiene(rel: &str, toks: &[Tok], rg: &Regions, findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < toks.len() {
        if rg.is_test(i) || !toks[i].is_ident("pub") {
            i += 1;
            continue;
        }
        // Skip a `(crate)`-style visibility qualifier.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('(')) {
            while j < toks.len() && !toks[j].is_punct(')') {
                j += 1;
            }
            j += 1;
        }
        // Skip fn qualifiers.
        while toks.get(j).is_some_and(|t| {
            t.is_ident("const")
                || t.is_ident("async")
                || t.is_ident("unsafe")
                || t.is_ident("extern")
        }) || toks
            .get(j)
            .is_some_and(|t| t.kind == crate::lexer::TokKind::StrLit)
        {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_ident("fn")) {
            i += 1;
            continue;
        }
        // Signature runs to the body `{` or a trait-method `;`.
        let mut end = j;
        while end < toks.len() && !toks[end].is_punct('{') && !toks[end].is_punct(';') {
            end += 1;
        }
        let sig = &toks[j..end];
        let has_result = sig.iter().any(|t| t.is_ident("Result"));
        for (k, t) in sig.iter().enumerate() {
            if has_result
                && t.is_punct(',')
                && sig.get(k + 1).is_some_and(|n| n.is_ident("String"))
                && sig.get(k + 2).is_some_and(|n| n.is_punct('>'))
            {
                push(
                    findings,
                    "error-hygiene",
                    rel,
                    &sig[k + 1],
                    j + k + 1,
                    "`Result<_, String>` in a pub signature; use a typed error enum".to_string(),
                );
            }
            if t.is_ident("Box")
                && sig.get(k + 1).is_some_and(|n| n.is_punct('<'))
                && sig.get(k + 2).is_some_and(|n| n.is_ident("dyn"))
                && sig[k..].iter().any(|n| n.is_ident("Error"))
            {
                push(
                    findings,
                    "error-hygiene",
                    rel,
                    t,
                    j + k,
                    "`Box<dyn Error>` in a pub signature; use a typed error enum".to_string(),
                );
            }
        }
        i = end.max(i + 1);
    }
}

fn concurrency_discipline(rel: &str, toks: &[Tok], rg: &Regions, findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if rg.is_test(i) {
            continue;
        }
        let path_seg = |o: usize, name: &str| toks.get(i + o).is_some_and(|t| t.is_ident(name));
        let double_colon = |o: usize| {
            toks.get(i + o).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + o + 1).is_some_and(|t| t.is_punct(':'))
        };
        if t.is_ident("thread")
            && double_colon(1)
            && (path_seg(3, "spawn") || path_seg(3, "scope") || path_seg(3, "Builder"))
        {
            push(
                findings,
                "concurrency-discipline",
                rel,
                t,
                i,
                "raw `thread::spawn`/`scope` outside flipper_data::exec — route \
                 parallelism through the exec pool so shard-invariance stays proven"
                    .to_string(),
            );
        } else if t.is_ident("std") && double_colon(1) && path_seg(3, "thread") {
            push(
                findings,
                "concurrency-discipline",
                rel,
                t,
                i,
                "`std::thread` outside flipper_data::exec — route parallelism \
                 through the exec pool so shard-invariance stays proven"
                    .to_string(),
            );
        }
    }
}

fn unsafe_audit(rel: &str, toks: &[Tok], comments: &[Comment], findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let starts_block = toks
            .get(i + 1)
            .is_some_and(|n| n.is_punct('{') || n.is_ident("impl") || n.is_ident("trait"));
        if !starts_block {
            continue;
        }
        let documented = comments.iter().any(|c| {
            c.text.contains("SAFETY:") && c.end_line <= t.line && c.end_line + 3 >= t.line
        });
        if !documented {
            push(
                findings,
                "unsafe-audit",
                rel,
                t,
                i,
                "`unsafe` without a `// SAFETY:` comment within the 3 lines above".to_string(),
            );
        }
    }
}

/// The wire-format-registry rule: every `flipper-*/vN` schema tag in a
/// non-test string literal outside the flipper-wire registry is a finding —
/// producers and consumers must reference the named constants so the tag
/// inventory has exactly one home.
fn wire_format_registry(rel: &str, toks: &[Tok], rg: &Regions, findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if rg.is_test(i) || t.kind != crate::lexer::TokKind::StrLit {
            continue;
        }
        if let Some(tag) = find_schema_tag(&t.text) {
            push(
                findings,
                "wire-format-registry",
                rel,
                t,
                i,
                format!(
                    "schema tag `{tag}` spelled as a string literal; use the named \
                     constant from the flipper-wire registry"
                ),
            );
        }
    }
}

/// First `flipper-<name>/v<digits>` schema tag inside `s`, if any.
fn find_schema_tag(s: &str) -> Option<&str> {
    let mut from = 0;
    while let Some(pos) = s[from..].find("flipper-") {
        let begin = from + pos;
        let rest = &s[begin + "flipper-".len()..];
        let name_len = rest
            .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .unwrap_or(rest.len());
        let after = &rest[name_len..];
        if name_len > 0 && after.starts_with("/v") {
            let digits = after["/v".len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .count();
            if digits > 0 {
                let len = "flipper-".len() + name_len + "/v".len() + digits;
                return Some(&s[begin..begin + len]);
            }
        }
        from = begin + "flipper-".len();
    }
    None
}

/// Parse `lint:allow` comments; malformed ones become `allow-hygiene`
/// findings.
fn parse_allows(rel: &str, comments: &[Comment], findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        // Doc comments (`///` → text starts with `/`, `//!` → `!`) are
        // rendered prose; only plain comments carry directives.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(pos) = c.text.find("lint:allow") else {
            continue;
        };
        let rest = &c.text[pos + "lint:allow".len()..];
        let bad = |findings: &mut Vec<Finding>, msg: String| {
            findings.push(Finding {
                rule: "allow-hygiene",
                file: rel.to_string(),
                line: c.line,
                col: 1,
                message: msg,
                allowed: false,
                tok: NO_TOK,
                reachable: false,
            });
        };
        let Some(rule_and_reason) = rest.strip_prefix('(') else {
            bad(
                findings,
                "malformed allow: expected `lint:allow(<rule>) <reason>`".to_string(),
            );
            continue;
        };
        let Some(close) = rule_and_reason.find(')') else {
            bad(
                findings,
                "malformed allow: missing `)` after rule name".to_string(),
            );
            continue;
        };
        let rule = rule_and_reason[..close].trim();
        let reason = rule_and_reason[close + 1..].trim();
        match rule_info(rule) {
            None => bad(findings, format!("allow names unknown rule `{rule}`")),
            Some(info) if !info.allowable => bad(
                findings,
                format!(
                    "rule `{rule}` accepts no allow comments — fix the finding or \
                     re-bless the baseline deliberately"
                ),
            ),
            Some(info) if reason.is_empty() => bad(
                findings,
                format!(
                    "allow for `{}` must state a reason after the `)`",
                    info.name
                ),
            ),
            Some(info) => allows.push(Allow {
                rule: info.name.to_string(),
                line: c.end_line,
            }),
        }
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::regions::analyze;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let lx = lex(src);
        let rg = analyze(&lx.tokens);
        check_file(rel, &lx, &rg)
    }

    fn live(findings: &[Finding], rule: &str) -> usize {
        findings
            .iter()
            .filter(|f| f.rule == rule && !f.allowed)
            .count()
    }

    #[test]
    fn panic_hygiene_fires_in_library_scope_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"n\"); }";
        assert_eq!(
            live(&run("crates/core/src/miner.rs", src), "panic-hygiene"),
            3
        );
        assert_eq!(
            live(&run("crates/cli/src/main.rs", src), "panic-hygiene"),
            0
        );
        assert_eq!(
            live(&run("crates/datagen/src/quest.rs", src), "panic-hygiene"),
            0
        );
    }

    #[test]
    fn panic_hygiene_skips_tests_strings_comments() {
        let src = r#"
            fn lib() { let s = "unwrap() panic!"; } // .unwrap() in a comment
            #[cfg(test)]
            mod tests { fn t() { x.unwrap(); panic!("fine"); } }
        "#;
        assert_eq!(
            live(&run("crates/core/src/miner.rs", src), "panic-hygiene"),
            0
        );
    }

    #[test]
    fn panic_hygiene_allows_with_reason() {
        let src =
            "fn f() {\n    x.unwrap(); // lint:allow(panic-hygiene) invariant: built above\n}";
        let f = run("crates/core/src/miner.rs", src);
        assert_eq!(live(&f, "panic-hygiene"), 0);
        assert_eq!(f.iter().filter(|f| f.allowed).count(), 1);
        // Preceding-line form.
        let src = "fn f() {\n  // lint:allow(panic-hygiene) invariant\n  x.unwrap();\n}";
        assert_eq!(
            live(&run("crates/core/src/miner.rs", src), "panic-hygiene"),
            0
        );
    }

    #[test]
    fn allow_without_reason_or_unknown_rule_is_flagged() {
        let src = "fn f() { x.unwrap() } // lint:allow(panic-hygiene)";
        let f = run("crates/core/src/miner.rs", src);
        assert_eq!(live(&f, "allow-hygiene"), 1);
        assert_eq!(
            live(&f, "panic-hygiene"),
            1,
            "malformed allow suppresses nothing"
        );
        let f = run(
            "crates/core/src/miner.rs",
            "fn f() {} // lint:allow(no-such-rule) why",
        );
        assert_eq!(live(&f, "allow-hygiene"), 1);
    }

    #[test]
    fn determinism_scope_is_the_result_path() {
        let src = "use std::collections::HashMap;\nfn f() { let t = Instant::now(); }";
        let f = run("crates/core/src/miner.rs", src);
        assert_eq!(live(&f, "determinism"), 2);
        // Same tokens outside the result path: no findings.
        assert_eq!(
            live(&run("crates/data/src/counting.rs", src), "determinism"),
            0
        );
        // …and determinism accepts no allows.
        let src = "use std::collections::HashMap; // lint:allow(determinism) please";
        let f = run("crates/core/src/cell.rs", src);
        assert_eq!(live(&f, "determinism"), 1);
        assert_eq!(live(&f, "allow-hygiene"), 1);
    }

    #[test]
    fn determinism_scope_covers_obs_hot_paths_but_not_its_clock() {
        let src = "use std::collections::HashMap;\nfn f() { let t = Instant::now(); }";
        for rel in [
            "crates/obs/src/recorder.rs",
            "crates/obs/src/span.rs",
            "crates/obs/src/metrics.rs",
            "crates/obs/src/trace.rs",
        ] {
            assert_eq!(live(&run(rel, src), "determinism"), 2, "{rel}");
        }
        // The obs clock is the sanctioned timer, like core/src/stats.rs.
        assert_eq!(live(&run("crates/obs/src/clock.rs", src), "determinism"), 0);
    }

    #[test]
    fn error_hygiene_catches_stringly_results() {
        let src = "pub fn f() -> Result<u32, String> { Ok(1) }";
        assert_eq!(
            live(&run("crates/data/src/format.rs", src), "error-hygiene"),
            1
        );
        let src = "pub fn f() -> Result<Vec<String>, FormatError> { Ok(vec![]) }";
        assert_eq!(
            live(&run("crates/data/src/format.rs", src), "error-hygiene"),
            0
        );
        let src = "pub fn f() -> Result<u32, Box<dyn std::error::Error>> { Ok(1) }";
        assert_eq!(
            live(&run("crates/data/src/format.rs", src), "error-hygiene"),
            1
        );
        // Bins may keep stringly mains.
        let src = "pub fn f() -> Result<u32, String> { Ok(1) }";
        assert_eq!(
            live(&run("crates/cli/src/main.rs", src), "error-hygiene"),
            0
        );
        assert_eq!(
            live(&run("crates/bench/src/bin/fig9.rs", src), "error-hygiene"),
            0
        );
    }

    #[test]
    fn concurrency_is_confined_to_exec() {
        let src = "fn f() { std::thread::scope(|s| {}); }";
        assert!(
            live(
                &run("crates/core/src/miner.rs", src),
                "concurrency-discipline"
            ) >= 1
        );
        assert_eq!(
            live(
                &run("crates/data/src/exec.rs", src),
                "concurrency-discipline"
            ),
            0
        );
        let src = "use std::thread;\nfn f() { thread::spawn(|| {}); }";
        assert!(
            live(
                &run("crates/store/src/writer.rs", src),
                "concurrency-discipline"
            ) >= 2
        );
    }

    #[test]
    fn unsafe_audit_requires_safety_comment() {
        let src = "fn f() { unsafe { g() } }";
        assert_eq!(
            live(&run("crates/data/src/bitset.rs", src), "unsafe-audit"),
            1
        );
        let src = "fn f() {\n    // SAFETY: bounds checked above\n    unsafe { g() }\n}";
        assert_eq!(
            live(&run("crates/data/src/bitset.rs", src), "unsafe-audit"),
            0
        );
        // `unsafe` as a fn qualifier is not a block.
        let src = "pub unsafe fn g() {}";
        assert_eq!(
            live(&run("crates/data/src/bitset.rs", src), "unsafe-audit"),
            0
        );
    }

    #[test]
    fn findings_are_sorted_and_positioned() {
        let src = "fn f() {\n    b.unwrap();\n    a.unwrap();\n}";
        let f = run("crates/core/src/miner.rs", src);
        assert_eq!(f.len(), 2);
        assert_eq!((f[0].line, f[0].col), (2, 7));
        assert_eq!((f[1].line, f[1].col), (3, 7));
    }
}
