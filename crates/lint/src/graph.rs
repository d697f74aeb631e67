//! Workspace-level analysis: the crate dependency graph with the declared
//! layering, the intra-workspace call graph with panic-reachability, and
//! the lock-acquisition-order relation.
//!
//! Everything here works on the facts [`crate::parser`] recovers per file;
//! no file is re-read. The crate graph is observed from two sources —
//! `[dependencies]` sections of `crates/<name>/Cargo.toml` manifests and
//! `flipper_<name>::` paths in non-test code — so a fixture tree without
//! manifests still produces edges, and a manifest dependency that is never
//! imported still counts.

use crate::lexer::{LexOutput, TokKind};
use crate::parser::{self, CallKind, CallSite, FnItem};
use crate::regions::Regions;
use crate::rules::{Finding, NO_TOK};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The architecture layer of every workspace crate. A dependency edge is
/// legal only when it points to a *strictly lower* layer.
pub const LAYERS: &[(&str, u32)] = &[
    ("rng", 0),
    ("wire", 0),
    ("guard", 1),
    ("measures", 1),
    ("obs", 1),
    ("taxonomy", 1),
    ("data", 2),
    ("core", 3),
    ("datagen", 3),
    ("store", 3),
    ("api", 4),
    ("lint", 4),
    ("cli", 5),
    ("integration", 5),
];

/// The declared dependency edges. A layer-legal edge that is not listed
/// here is still a finding: growing the coupling surface is a deliberate
/// act, recorded by editing this table. `integration` (the cross-crate
/// test harness) is exempt — it may depend on anything below it.
pub const ALLOWED_EDGES: &[(&str, &str)] = &[
    ("api", "core"),
    ("api", "data"),
    ("api", "datagen"),
    ("api", "guard"),
    ("api", "measures"),
    ("api", "obs"),
    ("api", "store"),
    ("api", "taxonomy"),
    ("api", "wire"),
    ("cli", "api"),
    ("cli", "obs"),
    ("cli", "wire"),
    ("core", "data"),
    ("core", "guard"),
    ("core", "measures"),
    ("core", "obs"),
    ("core", "taxonomy"),
    ("data", "guard"),
    ("data", "obs"),
    ("data", "rng"),
    ("data", "taxonomy"),
    ("datagen", "data"),
    ("datagen", "taxonomy"),
    ("guard", "rng"),
    ("lint", "wire"),
    ("obs", "wire"),
    ("store", "data"),
    ("store", "guard"),
    ("store", "obs"),
    ("store", "taxonomy"),
];

/// Layer of a crate, when it is in the map.
pub fn layer_of(krate: &str) -> Option<u32> {
    LAYERS
        .iter()
        .find(|(name, _)| *name == krate)
        .map(|(_, l)| *l)
}

/// Where an edge (or other graph fact) was first observed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Witness {
    /// Workspace-relative file (a source file or a `Cargo.toml`).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// The observed crate dependency graph.
#[derive(Debug, Default)]
pub struct CrateGraph {
    /// Every crate seen (from file paths and manifests), sorted.
    pub crates: BTreeSet<String>,
    /// Observed `from → to` edges with the first witness for each.
    pub edges: BTreeMap<(String, String), Witness>,
}

impl CrateGraph {
    /// Render the graph as deterministic Graphviz DOT, crates annotated
    /// with their declared layer and grouped bottom-up (`rankdir=BT` puts
    /// layer 0 at the bottom, arrows pointing down the stack).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph flipper {\n  rankdir=BT;\n  node [shape=box];\n");
        for c in &self.crates {
            match layer_of(c) {
                Some(l) => {
                    s.push_str(&format!("  \"{c}\" [label=\"{c}\\nlayer {l}\"];\n"));
                }
                None => s.push_str(&format!("  \"{c}\";\n")),
            }
        }
        for (from, to) in self.edges.keys() {
            s.push_str(&format!("  \"{to}\" -> \"{from}\";\n"));
        }
        s.push_str("}\n");
        s
    }
}

/// One source file's lexed tokens and regions, handed to [`analyze`].
pub struct SourceFile<'a> {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Lexer output.
    pub lx: &'a LexOutput,
    /// Test-region classification.
    pub rg: &'a Regions,
}

/// A parsed fn together with where it lives.
#[derive(Debug)]
struct FnRef {
    file: String,
    krate: String,
    item: FnItem,
}

/// The workspace-level analysis result.
pub struct WorkspaceGraph {
    /// The observed crate dependency graph (for `--graph dot`).
    pub crate_graph: CrateGraph,
    /// Graph-rule findings: layering-discipline and lock-ordering.
    pub findings: Vec<Finding>,
    fns: Vec<FnRef>,
    reachable: Vec<bool>,
}

impl WorkspaceGraph {
    /// Is the token at index `tok` of `file` inside a function that is
    /// transitively reachable from a mining/serialization entry point?
    pub fn reachable_at(&self, file: &str, tok: usize) -> bool {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.item.body.0 < tok && tok < f.item.body.1)
            .min_by_key(|(_, f)| f.item.body.1 - f.item.body.0)
            .is_some_and(|(i, _)| self.reachable[i])
    }
}

/// Crate name of a workspace-relative source path
/// (`crates/core/src/miner.rs` → `core`).
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Run the workspace-level analysis over the live (non-test-only) files.
pub fn analyze(root: &Path, files: &[SourceFile<'_>]) -> WorkspaceGraph {
    let crate_graph = build_crate_graph(root, files);
    let mut findings = layering_findings(&crate_graph);

    // Parse every file's fns; test fns never join the graph.
    let mut fns: Vec<FnRef> = Vec::new();
    for f in files {
        let Some(krate) = crate_of(&f.rel) else {
            continue;
        };
        for item in parser::parse_file(&f.lx.tokens, f.rg) {
            fns.push(FnRef {
                file: f.rel.clone(),
                krate: krate.to_string(),
                item,
            });
        }
    }

    let callees = resolve_calls(&fns);
    let reachable = reach_entry_points(&fns, &callees);
    findings.extend(lock_order_findings(&fns, &callees));

    WorkspaceGraph {
        crate_graph,
        findings,
        fns,
        reachable,
    }
}

/// Observe crate edges from manifests and `flipper_<x>::` use paths.
fn build_crate_graph(root: &Path, files: &[SourceFile<'_>]) -> CrateGraph {
    let mut g = CrateGraph::default();
    let mut add_edge = |from: String, to: String, w: Witness| {
        let key = (from, to);
        match g.edges.get(&key) {
            Some(existing) if *existing <= w => {}
            _ => {
                g.edges.insert(key, w);
            }
        }
    };

    // Every crate directory a scanned file sits in is a node.
    let mut crates = BTreeSet::new();
    for f in files {
        if let Some(c) = crate_of(&f.rel) {
            crates.insert(c.to_string());
        }
    }

    // Manifest edges: `flipper-<to>` lines inside `[dependencies]` (dev
    // dependencies deliberately excluded — test-only coupling does not
    // shape the runtime architecture). Fixture trees have no manifests;
    // `read_to_string` misses are simply no edges.
    for from in &crates {
        let manifest_rel = format!("crates/{from}/Cargo.toml");
        let Ok(text) = std::fs::read_to_string(root.join(&manifest_rel)) else {
            continue;
        };
        let mut in_deps = false;
        for (idx, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                in_deps = trimmed == "[dependencies]";
                continue;
            }
            if !in_deps {
                continue;
            }
            let Some(dep) = trimmed.split(['=', ' ']).next() else {
                continue;
            };
            if let Some(to) = dep.strip_prefix("flipper-") {
                add_edge(
                    from.clone(),
                    to.to_string(),
                    Witness {
                        file: manifest_rel.clone(),
                        line: idx as u32 + 1,
                        col: 1,
                    },
                );
            }
        }
    }

    // Use-path edges: a `flipper_<to>::` path in non-test code.
    for f in files {
        let Some(from) = crate_of(&f.rel) else {
            continue;
        };
        for (i, t) in f.lx.tokens.iter().enumerate() {
            if t.kind != TokKind::Ident || f.rg.is_test(i) {
                continue;
            }
            let Some(to) = t.text.strip_prefix("flipper_") else {
                continue;
            };
            let followed_by_path = f.lx.tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && f.lx.tokens.get(i + 2).is_some_and(|n| n.is_punct(':'));
            if !followed_by_path || to == from {
                continue;
            }
            add_edge(
                from.to_string(),
                to.to_string(),
                Witness {
                    file: f.rel.clone(),
                    line: t.line,
                    col: t.col,
                },
            );
        }
    }

    for (from, to) in g.edges.keys() {
        crates.insert(from.clone());
        crates.insert(to.clone());
    }
    g.crates = crates;
    g
}

/// Check every observed edge against the layer map and the declared edge
/// list.
fn layering_findings(g: &CrateGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut graph_finding = |w: &Witness, message: String| {
        findings.push(Finding {
            rule: "layering-discipline",
            file: w.file.clone(),
            line: w.line,
            col: w.col,
            message,
            allowed: false,
            tok: NO_TOK,
            reachable: false,
        });
    };
    for ((from, to), w) in &g.edges {
        let (Some(lf), Some(lt)) = (layer_of(from), layer_of(to)) else {
            let unknown = if layer_of(from).is_none() { from } else { to };
            graph_finding(
                w,
                format!(
                    "crate `{unknown}` is not in the layer map; declare it in \
                     LAYERS (crates/lint/src/graph.rs) before depending on it"
                ),
            );
            continue;
        };
        if lf <= lt {
            graph_finding(
                w,
                format!(
                    "back-edge: `{from}` (layer {lf}) depends on `{to}` (layer {lt}); \
                     dependency edges must point to a strictly lower layer"
                ),
            );
        } else if from != "integration" && !ALLOWED_EDGES.contains(&(from.as_str(), to.as_str())) {
            graph_finding(
                w,
                format!(
                    "undeclared edge: `{from}` → `{to}` is layer-legal but not in \
                     ALLOWED_EDGES (crates/lint/src/graph.rs); declare it deliberately \
                     or drop the dependency"
                ),
            );
        }
    }
    findings
}

/// Convert `CamelCase` to `snake_case` for qualifier ↔ file-stem matches.
fn snake(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for c in name.chars() {
        if c.is_uppercase() {
            if !out.is_empty() {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// File stem of a relative path (`crates/api/src/session.rs` → `session`).
fn stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .unwrap_or(rel)
        .trim_end_matches(".rs")
}

/// Resolve every call site of every non-test fn to candidate callee
/// indices. Resolution is tiered to bound over-approximation: the most
/// specific non-empty candidate set wins.
fn resolve_calls(fns: &[FnRef]) -> Vec<Vec<usize>> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        if !f.item.is_test {
            by_name.entry(f.item.name.as_str()).or_default().push(i);
        }
    }
    fns.iter()
        .enumerate()
        .map(|(caller, f)| {
            if f.item.is_test {
                return Vec::new();
            }
            let mut out: Vec<usize> = Vec::new();
            for call in &f.item.calls {
                out.extend(resolve_one(call, caller, fns, &by_name));
            }
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect()
}

/// Resolution tiers for one call site (see [`CallKind`]).
fn resolve_one(
    call: &CallSite,
    caller: usize,
    fns: &[FnRef],
    by_name: &BTreeMap<&str, Vec<usize>>,
) -> Vec<usize> {
    let Some(cands) = by_name.get(call.name.as_str()) else {
        return Vec::new();
    };
    let pick = |pred: &dyn Fn(usize) -> bool| -> Vec<usize> {
        cands.iter().copied().filter(|&i| pred(i)).collect()
    };
    match call.kind {
        CallKind::Qualified => {
            let q = match call.qualifier.as_deref() {
                Some("Self") => fns[caller].item.impl_type.clone(),
                Some(q) => Some(q.to_string()),
                None => None,
            };
            let Some(q) = q else {
                return cands.clone(); // `<T as Trait>::f(…)` — keep them all
            };
            let tier1 = pick(&|i| fns[i].item.impl_type.as_deref() == Some(q.as_str()));
            if !tier1.is_empty() {
                return tier1;
            }
            let q_snake = snake(&q);
            let q_crate = q.strip_prefix("flipper_").unwrap_or(&q);
            let same_crate = matches!(q.as_str(), "crate" | "self" | "super");
            let tier2 = pick(&|i| {
                stem(&fns[i].file) == q_snake
                    || fns[i].krate == q_crate
                    || (same_crate && fns[i].krate == fns[caller].krate)
            });
            if !tier2.is_empty() {
                return tier2;
            }
            cands.clone()
        }
        CallKind::Method => {
            let tier1 = pick(&|i| fns[i].item.has_self);
            if !tier1.is_empty() {
                return tier1;
            }
            cands.clone()
        }
        CallKind::Bare => {
            let tier1 = pick(&|i| fns[i].file == fns[caller].file);
            if !tier1.is_empty() {
                return tier1;
            }
            let tier2 = pick(&|i| fns[i].krate == fns[caller].krate);
            if !tier2.is_empty() {
                return tier2;
            }
            cands.clone()
        }
    }
}

/// Is this fn an ingest/mining/serialization entry point? The set mirrors
/// the public result path: the three `Session` constructors (ingest reads
/// outside input), the `Session` mining calls (`mine`, `mine_guarded`,
/// `top_k`), `Sweep::run` (which reaches the miner with the session's
/// vertical memo), and everything on `JsonWriter` (the byte-pinned
/// serializer).
fn is_entry_point(f: &FnRef) -> bool {
    if f.item.is_test {
        return false;
    }
    match f.item.impl_type.as_deref() {
        Some("Session") => matches!(
            f.item.name.as_str(),
            "mine" | "mine_guarded" | "top_k" | "open_path" | "open_salvage_path" | "from_db"
        ),
        Some("Sweep") => f.item.name == "run",
        Some("JsonWriter") => true,
        _ => false,
    }
}

/// BFS over the call graph from the entry points.
fn reach_entry_points(fns: &[FnRef], callees: &[Vec<usize>]) -> Vec<bool> {
    let mut reachable = vec![false; fns.len()];
    let mut queue: Vec<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, f)| is_entry_point(f))
        .map(|(i, _)| i)
        .collect();
    for &i in &queue {
        reachable[i] = true;
    }
    while let Some(i) = queue.pop() {
        for &j in &callees[i] {
            if !reachable[j] {
                reachable[j] = true;
                queue.push(j);
            }
        }
    }
    reachable
}

/// Build the lock-acquisition-order relation and flag cyclic components.
///
/// An edge `A → B` means: somewhere, lock class `A` is held (acquired
/// earlier in the same fn body) when `B` is acquired — directly, or inside
/// a callee that transitively acquires `B`. Self-edges are ignored (a
/// token-level scan cannot tell re-acquisition after drop from a
/// double-lock). A cycle means two code paths acquire the same classes in
/// opposite orders — the classic deadlock shape.
fn lock_order_findings(fns: &[FnRef], callees: &[Vec<usize>]) -> Vec<Finding> {
    // Transitive lock classes per fn, to fixpoint.
    let mut acquired: Vec<BTreeSet<String>> = fns
        .iter()
        .map(|f| f.item.locks.iter().map(|l| l.class.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            for &j in &callees[i] {
                if i == j {
                    continue;
                }
                let extra: Vec<String> = acquired[j]
                    .iter()
                    .filter(|c| !acquired[i].contains(*c))
                    .cloned()
                    .collect();
                if !extra.is_empty() {
                    acquired[i].extend(extra);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges with their first witness.
    let mut edges: BTreeMap<(String, String), Witness> = BTreeMap::new();
    let mut add = |from: &str, to: &str, w: Witness| {
        if from == to {
            return;
        }
        let key = (from.to_string(), to.to_string());
        match edges.get(&key) {
            Some(existing) if *existing <= w => {}
            _ => {
                edges.insert(key, w);
            }
        }
    };
    for (i, f) in fns.iter().enumerate() {
        if f.item.is_test {
            continue;
        }
        for lock in &f.item.locks {
            let w = Witness {
                file: f.file.clone(),
                line: lock.line,
                col: lock.col,
            };
            for later in f.item.locks.iter().filter(|l| l.tok > lock.tok) {
                add(&lock.class, &later.class, w.clone());
            }
            for call in f.item.calls.iter().filter(|c| c.tok > lock.tok) {
                // Which fns this call can reach is already resolved; the
                // callee list is per-fn, so re-resolve membership by name.
                for &j in callees[i]
                    .iter()
                    .filter(|&&j| fns[j].item.name == call.name)
                {
                    for class in &acquired[j] {
                        add(&lock.class, class, w.clone());
                    }
                }
            }
        }
    }

    // Pairwise reachability over the (small) class graph, then group the
    // cyclic strongly-connected components.
    let classes: BTreeSet<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    let reaches = |from: &String, to: &String| -> bool {
        let mut seen = BTreeSet::new();
        let mut queue = vec![from];
        while let Some(c) = queue.pop() {
            for ((a, b), _) in edges.iter().filter(|((a, _), _)| a == c) {
                let _ = a;
                if b == to {
                    return true;
                }
                if seen.insert(b) {
                    queue.push(b);
                }
            }
        }
        false
    };
    let mut findings = Vec::new();
    let mut assigned: BTreeSet<&String> = BTreeSet::new();
    for &c in &classes {
        if assigned.contains(c) {
            continue;
        }
        let scc: Vec<&String> = classes
            .iter()
            .copied()
            .filter(|&d| d == c || (reaches(c, d) && reaches(d, c)))
            .collect();
        if scc.len() < 2 {
            continue;
        }
        assigned.extend(scc.iter().copied());
        let witness = edges
            .iter()
            .filter(|((a, b), _)| scc.contains(&a) && scc.contains(&b))
            .map(|(_, w)| w.clone())
            .min()
            .unwrap_or(Witness {
                file: String::new(),
                line: 1,
                col: 1,
            });
        let names: Vec<&str> = scc.iter().map(|s| s.as_str()).collect();
        findings.push(Finding {
            rule: "lock-ordering",
            file: witness.file,
            line: witness.line,
            col: witness.col,
            message: format!(
                "lock classes {{{}}} are acquired in conflicting orders; pick one \
                 global order and release before acquiring against it",
                names.join(", ")
            ),
            allowed: false,
            tok: NO_TOK,
            reachable: false,
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::regions::analyze as regions_analyze;

    fn ws(files: &[(&str, &str)]) -> WorkspaceGraph {
        let lexed: Vec<(String, crate::lexer::LexOutput)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), lex(src)))
            .collect();
        let regioned: Vec<Regions> = lexed
            .iter()
            .map(|(_, lx)| regions_analyze(&lx.tokens))
            .collect();
        let inputs: Vec<SourceFile<'_>> = lexed
            .iter()
            .zip(&regioned)
            .map(|((rel, lx), rg)| SourceFile {
                rel: rel.clone(),
                lx,
                rg,
            })
            .collect();
        analyze(Path::new("/nonexistent-root"), &inputs)
    }

    #[test]
    fn reachability_follows_calls_from_session_mine() {
        let g = ws(&[
            (
                "crates/api/src/session.rs",
                "impl Session { pub fn mine(&self) { flipper_core::step(); }\n\
                 pub fn mine_guarded(&self) { flipper_core::guarded(); }\n\
                 pub fn top_k(&self) { flipper_core::search(); }\n\
                 pub fn origin(&self) { flipper_core::orphan(); } }",
            ),
            (
                "crates/api/src/sweep.rs",
                "impl Sweep { pub fn run(&self) { flipper_core::point(); } }",
            ),
            (
                "crates/core/src/miner.rs",
                "pub fn step() { helper(); }\nfn helper() {}\nfn orphan() {}\n\
                 pub fn guarded() {}\npub fn search() {}\npub fn point() {}",
            ),
        ]);
        let reachable = |name: &str| {
            let i = g.fns.iter().position(|f| f.item.name == name).unwrap();
            g.reachable[i]
        };
        for name in ["helper", "guarded", "search", "point"] {
            assert!(reachable(name), "{name}");
        }
        // Called only from a `Session` method that is no entry point.
        assert!(!reachable("orphan"));
    }

    #[test]
    fn layering_flags_back_edges_and_undeclared_edges() {
        let g = ws(&[
            (
                "crates/data/src/lib.rs",
                "pub fn up() { flipper_api::touch(); }",
            ),
            (
                "crates/guard/src/lib.rs",
                "pub fn sideways() { flipper_obs::touch(); }",
            ),
        ]);
        let msgs: Vec<&str> = g.findings.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("back-edge")),
            "data→api must be a back-edge: {msgs:?}"
        );
        // guard(1) → obs(1) is same-layer: also a back-edge (not strictly
        // lower), not an undeclared-edge.
        assert_eq!(g.findings.len(), 2, "{msgs:?}");
        assert!(g.findings.iter().all(|f| f.rule == "layering-discipline"));
    }

    #[test]
    fn declared_edges_are_clean() {
        let g = ws(&[(
            "crates/core/src/miner.rs",
            "pub fn f() { flipper_data::count(); }",
        )]);
        assert!(g.findings.is_empty(), "{:?}", g.findings);
        assert!(g
            .crate_graph
            .edges
            .contains_key(&("core".to_string(), "data".to_string())));
    }

    #[test]
    fn lock_cycles_are_one_finding_per_component() {
        let g = ws(&[(
            "crates/core/src/miner.rs",
            "fn a() { let x = m1.lock(); let y = m2.lock(); }\n\
             fn b() { let y = m2.lock(); let x = m1.lock(); }",
        )]);
        let locks: Vec<&Finding> = g
            .findings
            .iter()
            .filter(|f| f.rule == "lock-ordering")
            .collect();
        assert_eq!(locks.len(), 1, "{:?}", g.findings);
        assert!(locks[0].message.contains("m1, m2"));
        assert_eq!((locks[0].line, locks[0].col), (1, 21));
    }

    #[test]
    fn lock_order_without_inversion_is_clean() {
        let g = ws(&[(
            "crates/guard/src/fault.rs",
            "fn arm() { let a = arm_lock().lock(); let s = state().lock(); }\n\
             fn probe() { let s = state().lock(); }",
        )]);
        assert!(g.findings.is_empty(), "{:?}", g.findings);
    }

    #[test]
    fn transitive_lock_acquisition_feeds_ordering() {
        let g = ws(&[(
            "crates/core/src/miner.rs",
            "fn a() { let x = m1.lock(); take_two(); }\n\
             fn take_two() { let y = m2.lock(); }\n\
             fn b() { let y = m2.lock(); take_one(); }\n\
             fn take_one() { let x = m1.lock(); }",
        )]);
        assert_eq!(
            g.findings
                .iter()
                .filter(|f| f.rule == "lock-ordering")
                .count(),
            1,
            "{:?}",
            g.findings
        );
    }

    #[test]
    fn dot_export_is_deterministic_and_layer_labelled() {
        let g = ws(&[(
            "crates/core/src/miner.rs",
            "pub fn f() { flipper_data::count(); }",
        )]);
        let dot = g.crate_graph.to_dot();
        assert!(dot.starts_with("digraph flipper {"));
        assert!(dot.contains("\"core\" [label=\"core\\nlayer 3\"]"));
        assert!(dot.contains("\"data\" -> \"core\";"));
        assert_eq!(dot, g.crate_graph.to_dot());
    }

    #[test]
    fn declared_edge_table_is_layer_consistent() {
        // Every allowlisted edge must itself point strictly downward —
        // the table cannot legalize a back-edge.
        for (from, to) in ALLOWED_EDGES {
            let (lf, lt) = (layer_of(from).unwrap(), layer_of(to).unwrap());
            assert!(lf > lt, "ALLOWED_EDGES entry {from}→{to} is not downward");
        }
    }
}
