//! The Flipper mining driver: a two-dimensional Apriori over the search
//! table `M[h][k]` with the paper's four cumulative pruning stages.
//!
//! # Search order (paper §4.3.1, Fig. 7b)
//!
//! The top two rows are processed in zigzag —
//! `Q(1,2) → Q(2,2) → Q(1,3) → Q(2,3) → …` — so the TPG condition
//! (Theorem 3) can be checked as early as possible; the remaining rows are
//! processed one at a time, left to right.
//!
//! # Candidate generation
//!
//! * Row 1 is mined by plain Apriori: all frequent level-1 itemsets (over
//!   items from **distinct** level-1 categories, per Definition 2 — at
//!   level 1 this means all distinct frequent nodes).
//! * For rows `h ≥ 2` with flipping pruning on, a cell `Q(h,k)` receives the
//!   **union** of
//!   1. *vertical* candidates — children-combinations of the chain-alive
//!      itemsets of `Q(h−1,k)` (§4.2.2: chain-broken itemsets are never
//!      extended vertically), enumerated by the counting kernel's
//!      depth-first intersection of the children's transactions
//!      ([`BitsetCounter::co_occurring`]): only combinations that actually
//!      co-occur in some transaction covering the parent set are produced
//!      (any other combination has support 0 < θ, since θ ≥ 1 always),
//!      each with its exact support, and
//!   2. *horizontal* candidates — Apriori joins of the frequent itemsets of
//!      `Q(h,k−1)` (§4.2.2: supersets of chain-broken itemsets must still be
//!      counted).
//!
//!   The union is a completeness fix over a literal reading of the paper:
//!   a viable superset's sub-itemsets need not be viable themselves
//!   (correlation is not monotone), so the horizontal join alone can miss
//!   viable candidates whose subsets were never counted; the vertical
//!   children-combination of the (always present) viable parent recovers
//!   them.
//! * With flipping pruning off (BASIC), every row is mined independently by
//!   plain Apriori and flips are recovered post-hoc — the paper's baseline.
//!
//! The sources themselves live in [`crate::gen`]: they join and probe item
//! slices in flat buffers, allocating only the candidates that survive.
//!
//! # Execution
//!
//! Candidate generation runs on the calling thread. Vertical candidates
//! arrive with their supports; every other candidate is counted by the one
//! kernel, [`BitsetCounter::count_batch`]: with `cfg.threads != 1` each
//! cell's batch is chunked over scoped worker threads at prefix-group
//! boundaries. Seeded runs ([`mine_with_view_seeded`]) reuse session-level
//! work: they replay a parent set's vertical enumeration from a
//! [`VerticalMemo`] when an earlier run recorded it, and record the ones
//! they enumerate. Results are bit-identical at every thread count and
//! memo state; statistics are too, except the kernel's work counters
//! ([`RunStats::counter`]), which drop by the enumerations a seeded run
//! replays, and [`RunStats::seeded_supports`], which counts the supports
//! it replayed.

use crate::cell::{Cell, ItemsetInfo};
use crate::config::FlipperConfig;
use crate::gen::{self, Batch, GenCtx, Generated, VerticalLevel};
use crate::results::{CellSummary, ChainLevel, FlippingPattern, MiningResult};
use crate::stats::{RunStats, Stopwatch};
use flipper_data::{BitsetCounter, Itemset, MultiLevelView, TransactionDb, VerticalMemo};
use flipper_guard::{CancelToken, GuardError};
use flipper_measures::{CorrelationMeasure, Label, Thresholds};
use flipper_taxonomy::{NodeId, Taxonomy};
use std::collections::{BTreeMap, BTreeSet};

/// Mine all flipping patterns from `db` under `tax` with configuration
/// `cfg`. Convenience wrapper that builds the multi-level view internally;
/// use [`mine_with_view`] to amortize the projection across runs.
pub fn mine(tax: &Taxonomy, db: &TransactionDb, cfg: &FlipperConfig) -> MiningResult {
    let view = MultiLevelView::build(db, tax);
    mine_with_view(tax, &view, cfg)
}

/// Mine all flipping patterns using a prebuilt [`MultiLevelView`].
pub fn mine_with_view(tax: &Taxonomy, view: &MultiLevelView, cfg: &FlipperConfig) -> MiningResult {
    Miner::new(tax, view, cfg)
        .run()
        .unwrap_or_else(|_| unreachable!("an unguarded run has no token to interrupt it"))
}

/// [`mine_with_view`] under a [`CancelToken`]: the token is checked at
/// every cell boundary, so a cancel or deadline interrupts the run within
/// one cell's worth of counting and surfaces as a typed [`GuardError`].
/// Panics anywhere inside the run are trapped and converted too. A guarded
/// run that completes returns bytes identical to an unguarded one — the
/// token influences *whether* the run finishes, never *what* it computes.
pub fn mine_with_view_guarded(
    tax: &Taxonomy,
    view: &MultiLevelView,
    cfg: &FlipperConfig,
    token: &CancelToken,
) -> Result<MiningResult, GuardError> {
    flipper_guard::trap("mine", || {
        let mut miner = Miner::new(tax, view, cfg);
        miner.token = Some(token);
        miner.run()
    })
    .and_then(|r| r)
}

/// Mine with a prebuilt view, reusing the vertical enumerations earlier
/// runs over the **same view** recorded in `memo`.
///
/// Every chain-alive parent set whose vertical enumeration is in `memo` is
/// replayed from it instead of re-intersecting its children's transactions,
/// and its supports are charged to [`RunStats::seeded_supports`]; the rest
/// are enumerated and recorded.
///
/// An enumeration is a fact about the data, `h` and θ_h alone (the last
/// two key it) — independent of γ, ε, pruning, or thread count — so
/// replaying it from any run over the same view is sound and the mined
/// patterns, labels, and `flipper-results/v1` bytes are identical to an
/// unseeded run. Memo entries a run records are complete when recorded, so
/// a run that panics part-way leaves the memo valid.
pub fn mine_with_view_seeded(
    tax: &Taxonomy,
    view: &MultiLevelView,
    cfg: &FlipperConfig,
    memo: &VerticalMemo,
) -> MiningResult {
    let mut miner = Miner::new(tax, view, cfg);
    miner.memo = Some(memo);
    miner
        .run()
        .unwrap_or_else(|_| unreachable!("an unguarded run has no token to interrupt it"))
}

/// Merge two ascending `(itemset, support)` streams with no itemset in
/// common into one ascending stream.
fn merge_ascending(
    a: impl Iterator<Item = (Itemset, u64)>,
    b: impl IntoIterator<Item = (Itemset, u64)>,
) -> impl Iterator<Item = (Itemset, u64)> {
    let (mut a, mut b) = (a.peekable(), b.into_iter().peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if y.0 < x.0 => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// Per-row mutable state. Ordered maps throughout: every iteration over
/// this state can reach the `flipper-results/v1` bytes, so no container
/// here may iterate in hash order (`flipper-lint`'s determinism rule).
struct RowState {
    /// Evaluated cells of this row, keyed by itemset size `k`.
    cells: BTreeMap<usize, Cell>,
    /// Frequent 1-items at this level, ascending by node id.
    freq_items: Vec<NodeId>,
    /// Frequent 1-items sorted ascending by support (SIBP's list `L_h`).
    by_support: Vec<NodeId>,
    /// SIBP removal-candidate prefix `R_h(k)` per column.
    removal_prefix: BTreeMap<usize, BTreeSet<NodeId>>,
    /// SIBP-banned items: supersets of size > `ban_k` are pruned.
    banned: BTreeMap<NodeId, usize>,
    /// Item supports at this level, indexed by `NodeId::index()` (absent
    /// items hold 0). Built once per level so `eval_cell`'s correlation
    /// loop reads supports from a flat array instead of issuing one
    /// `BitsetCounter::item_support` call per item per frequent candidate.
    sup_cache: Vec<u64>,
    /// Total itemsets stored in this row (memory accounting).
    stored: u64,
}

struct Miner<'a> {
    tax: &'a Taxonomy,
    cfg: &'a FlipperConfig,
    /// Resolved worker-thread count for sharded counting (1 = sequential).
    threads: usize,
    counter: BitsetCounter<'a>,
    /// Session memo of vertical enumerations ([`mine_with_view_seeded`]);
    /// `None` for plain runs.
    memo: Option<&'a VerticalMemo>,
    /// Cooperative-cancellation token ([`mine_with_view_guarded`]); checked
    /// at cell boundaries only, so the live fast path stays off the
    /// per-candidate hot loops. `None` for unguarded runs.
    token: Option<&'a CancelToken>,
    /// Per-level absolute minimum supports (index `h-1`).
    thetas: Vec<u64>,
    /// Level-1 ancestor of every node (index = node id).
    top_cat: Vec<NodeId>,
    rows: Vec<RowState>,
    stats: RunStats,
    cells_out: Vec<CellSummary>,
    /// Column bound: candidates with `k > k_cap` are never generated.
    k_cap: usize,
}

impl<'a> Miner<'a> {
    fn new(tax: &'a Taxonomy, view: &'a MultiLevelView, cfg: &'a FlipperConfig) -> Self {
        assert_eq!(
            view.height(),
            tax.height(),
            "view must be built from the same taxonomy"
        );
        let counter = BitsetCounter::new(view);
        let n = counter.num_transactions();
        let height = tax.height();
        let thetas = cfg.min_support.resolve(n, height);

        let mut top_cat = vec![NodeId::ROOT; tax.node_count()];
        for node in tax.node_ids().skip(1) {
            top_cat[node.index()] = tax
                .ancestor_at_level(node, 1)
                // lint:allow(panic-hygiene) taxonomy invariant: every non-root node has a level-1 ancestor
                .expect("non-root nodes have level-1 ancestors");
        }

        let mut rows = Vec::with_capacity(height);
        for h in 1..=height {
            let mut sup_cache = vec![0u64; tax.node_count()];
            for &it in counter.present_items(h) {
                sup_cache[it.index()] = counter.item_support(h, it);
            }
            let mut freq_items: Vec<NodeId> = counter
                .present_items(h)
                .iter()
                .copied()
                .filter(|&it| sup_cache[it.index()] >= thetas[h - 1])
                .collect();
            freq_items.sort_unstable();
            let mut by_support = freq_items.clone();
            by_support.sort_by_key(|&it| (sup_cache[it.index()], it));
            rows.push(RowState {
                cells: BTreeMap::new(),
                freq_items,
                by_support,
                removal_prefix: BTreeMap::new(),
                banned: BTreeMap::new(),
                sup_cache,
                stored: 0,
            });
        }

        // Column bound: distinct level-1 categories, the widest transaction,
        // and the configured cap.
        let cats = tax.nodes_at_level(1).map(|v| v.len()).unwrap_or(0);
        let mut k_cap = cats.min(view.max_width());
        if let Some(mk) = cfg.max_k {
            k_cap = k_cap.min(mk);
        }

        Miner {
            tax,
            cfg,
            threads: flipper_data::exec::effective_threads(cfg.threads),
            counter,
            memo: None,
            token: None,
            thetas,
            top_cat,
            rows,
            stats: RunStats::default(),
            cells_out: Vec::new(),
            k_cap,
        }
    }

    /// Parent itemset (generalization one level up). Items in candidates
    /// descend from distinct categories, so parents never collide.
    fn parent_set(&self, set: &Itemset) -> Itemset {
        set.map(|it| {
            self.tax
                .parent(it)
                // lint:allow(panic-hygiene) only called on h ≥ 2 itemsets, whose items all have parents
                .expect("items below level 1 have parents")
        })
    }

    fn cell(&self, h: usize, k: usize) -> Option<&Cell> {
        self.rows[h - 1].cells.get(&k)
    }

    // ---- candidate generation --------------------------------------------

    /// SIBP bans in force for `Q(h,k)`, by `NodeId::index()`: an item
    /// banned at column `ban_k` is pruned from supersets larger than
    /// `ban_k`. Empty when the row has no bans.
    fn bans(&self, h: usize, k: usize) -> Vec<bool> {
        let banned = &self.rows[h - 1].banned;
        if banned.is_empty() {
            return Vec::new();
        }
        let mut out = vec![false; self.tax.node_count()];
        for (&item, &ban_k) in banned {
            out[item.index()] = k > ban_k;
        }
        out
    }

    /// The candidates of `Q(h,k)` ([`crate::gen`]), split by whether their
    /// support is already known. Row 1 and the BASIC variant take level
    /// pairs at `k = 2` and the horizontal join beyond. Flipping rows
    /// `h ≥ 2` take the vertical children-combinations of chain-alive
    /// parents — the only source at `k = 2` — unioned with the horizontal
    /// join for wider cells. The `mine.gen` span records how many
    /// candidates each source produced and how many supports the vertical
    /// pass fused in; with a vertical source, also how many parent sets it
    /// replayed from the memo (`memo_hits`) and enumerated (`memo_misses`).
    fn gen_candidates(&mut self, h: usize, k: usize) -> Batch {
        let mut span = flipper_obs::span("mine.gen")
            .arg("h", h as u64)
            .arg("k", k as u64);
        let banned = self.bans(h, k);
        let ctx = GenCtx {
            tax: self.tax,
            top_cat: &self.top_cat,
            banned: &banned,
        };
        let flipping_row = self.cfg.pruning.flipping && h >= 2;
        let here = &self.rows[h - 1];
        let pairs = (k == 2 && !flipping_row).then(|| gen::pairs(&ctx, &here.freq_items));
        let horizontal = here
            .cells
            .get(&(k - 1))
            .filter(|_| k >= 3)
            .map(|prev| gen::horizontal(&ctx, prev, k));
        let above = flipping_row
            .then(|| self.rows[h - 2].cells.get(&k))
            .flatten();
        let vertical = above.map(|above| {
            let mut level = VerticalLevel::new(&mut self.counter, h, self.thetas[h - 1], self.memo);
            let g = gen::vertical(&ctx, &mut level, above, here.cells.get(&(k - 1)), k);
            self.stats.seeded_supports += level.replayed_supports;
            span.add_arg("memo_hits", level.replayed);
            span.add_arg("memo_misses", level.enumerated);
            g
        });
        let size = |g: &Option<Generated>| g.as_ref().map_or(0, |g| g.cands.len() as u64);
        span.add_arg("pairs", size(&pairs));
        span.add_arg("horizontal", size(&horizontal));
        span.add_arg("vertical", size(&vertical));

        let sources = [pairs, horizontal, vertical];
        for g in sources.iter().flatten() {
            self.stats.pruned_by_support += g.support_pruned;
            self.stats.pruned_by_sibp += g.sibp_pruned;
        }
        let batch = Batch::union(sources.into_iter().flatten());
        span.add_arg("fused", batch.fused.len() as u64);
        batch
    }

    // ---- evaluation -------------------------------------------------------

    /// Count supports for a sorted candidate batch with the kernel.
    fn count_supports(&mut self, h: usize, candidates: &[Itemset]) -> Vec<u64> {
        let _span = flipper_obs::span("mine.count")
            .arg("h", h as u64)
            .arg("batch", candidates.len() as u64);
        flipper_obs::observe("flipper_batch_candidates", candidates.len() as u64);
        self.counter.count_batch(h, candidates, self.threads)
    }

    /// Evaluate cell `Q(h,k)`: generate, count, label, compute chain
    /// aliveness, record statistics.
    fn eval_cell(&mut self, h: usize, k: usize) {
        let _cell_span = flipper_obs::span("mine.cell")
            .arg("h", h as u64)
            .arg("k", k as u64);
        let Batch { fused, to_count } = self.gen_candidates(h, k);
        self.stats.cells_evaluated += 1;
        self.stats.candidates_generated += (fused.len() + to_count.len()) as u64;

        let theta = self.thetas[h - 1];
        let thresholds: Thresholds = self.cfg.thresholds;
        let measure = self.cfg.measure;
        let supports = self.count_supports(h, &to_count);

        let mut cell = Cell::new();
        // Per-item max correlation for SIBP, indexed by `NodeId::index()` —
        // a flat array instead of a hash map so downstream iteration order
        // is structural, not hash-dependent.
        let mut max_corr: Vec<f64> = if self.cfg.pruning.sibp {
            vec![0.0; self.tax.node_count()]
        } else {
            Vec::new()
        };
        let (mut n_pos, mut n_neg, mut n_freq) = (0usize, 0usize, 0usize);
        // Flat per-level support cache plus one reused buffer: the
        // correlation loop issues no virtual calls and no per-candidate
        // allocations.
        let sup_cache = &self.rows[h - 1].sup_cache;
        let mut item_sups: Vec<u64> = Vec::new();
        let mut parent_items: Vec<NodeId> = Vec::with_capacity(k);
        for (set, sup) in merge_ascending(to_count.into_iter().zip(supports), fused) {
            let frequent = sup >= theta;
            let (corr, label) = if frequent {
                item_sups.clear();
                item_sups.extend(set.items().iter().map(|&it| sup_cache[it.index()]));
                let corr = measure.value(sup, &item_sups);
                (corr, thresholds.label_frequent(corr))
            } else {
                (0.0, Label::Infrequent)
            };
            if frequent {
                n_freq += 1;
                match label {
                    Label::Positive => n_pos += 1,
                    Label::Negative => n_neg += 1,
                    _ => {}
                }
            }
            let chain_alive = label.is_correlated()
                && (h == 1 || {
                    // The parent itemset, probed by slice: items descend
                    // from distinct categories, so their parents are
                    // distinct and only need sorting.
                    parent_items.clear();
                    parent_items.extend(set.items().iter().filter_map(|&it| self.tax.parent(it)));
                    parent_items.sort_unstable();
                    self.cell(h - 1, k)
                        .and_then(|c| c.get_items(&parent_items))
                        .is_some_and(|pi| pi.chain_alive && pi.label.flips_to(label))
                });
            if self.cfg.pruning.sibp {
                for &it in set.items() {
                    let e = &mut max_corr[it.index()];
                    if corr > *e {
                        *e = corr;
                    }
                }
            }
            cell.insert(
                set,
                ItemsetInfo {
                    support: sup,
                    corr,
                    label,
                    chain_alive,
                },
            );
        }

        self.stats.frequent_found += n_freq as u64;
        self.stats.positive_found += n_pos as u64;
        self.stats.negative_found += n_neg as u64;
        self.cells_out.push(CellSummary {
            level: h,
            k,
            evaluated: cell.len(),
            frequent: n_freq,
            positive: n_pos,
            negative: n_neg,
            alive: cell.alive().count(),
        });

        let row = &mut self.rows[h - 1];
        row.stored += cell.len() as u64;
        self.stats.total_stored_itemsets += cell.len() as u64;
        row.cells.insert(k, cell);
        self.update_peak_resident(h);

        if self.cfg.pruning.sibp {
            self.sibp_after_cell(h, k, &max_corr);
        }
    }

    /// Memory proxy: BASIC retains the whole table; the pruned variants
    /// only ever need the previous row plus the current one (paper §5.2).
    fn update_peak_resident(&mut self, h: usize) {
        let resident: u64 = if self.cfg.pruning.flipping {
            let prev = if h >= 2 { self.rows[h - 2].stored } else { 0 };
            prev + self.rows[h - 1].stored
        } else {
            self.rows.iter().map(|r| r.stored).sum()
        };
        self.stats.peak_resident_itemsets = self.stats.peak_resident_itemsets.max(resident);
    }

    /// SIBP bookkeeping after a cell: compute the removal prefix `R_h(k)`
    /// (maximal support-ascending prefix with per-cell max Corr < γ), then
    /// ban items of `R_h(k)` whose generalization is in `R_{h-1}(k)`.
    /// `max_corr` is indexed by `NodeId::index()`.
    fn sibp_after_cell(&mut self, h: usize, k: usize, max_corr: &[f64]) {
        let gamma = self.cfg.thresholds.gamma;
        let row = &self.rows[h - 1];
        let mut prefix = BTreeSet::new();
        for &item in &row.by_support {
            let mc = max_corr[item.index()];
            if mc < gamma {
                prefix.insert(item);
            } else {
                break;
            }
        }
        let banned_now: Vec<NodeId> = if h >= 2 {
            let above = self.rows[h - 2].removal_prefix.get(&k);
            prefix
                .iter()
                .copied()
                .filter(|&it| {
                    // lint:allow(panic-hygiene) h ≥ 2 here, so every item is below level 1
                    let parent = self.tax.parent(it).expect("below level 1");
                    above.is_some_and(|r| r.contains(&parent))
                })
                .collect()
        } else {
            Vec::new()
        };
        let row = &mut self.rows[h - 1];
        row.removal_prefix.insert(k, prefix);
        for it in banned_now {
            if row.banned.insert(it, k).is_none() {
                self.stats.sibp_banned_items += 1;
            }
        }
    }

    // ---- driving loops ----------------------------------------------------

    /// The boundary check for guarded runs: free (`Ok`) when no token is
    /// attached, one relaxed atomic load otherwise.
    #[inline]
    fn check_interrupt(&self) -> Result<(), GuardError> {
        match self.token {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    fn run(mut self) -> Result<MiningResult, GuardError> {
        let _run_span = flipper_obs::span("mine.run");
        let t0 = Stopwatch::start();
        let height = self.tax.height();
        if height == 1 {
            // A single level cannot flip; still mine row 1 so label counts
            // (Table-4 style reporting) are available.
            let mut k = 2;
            while k <= self.k_cap {
                self.check_interrupt()?;
                self.eval_cell(1, k);
                // lint:allow(panic-hygiene) eval_cell on the previous line always inserts the cell
                if self.cell(1, k).expect("just inserted").frequent_count() == 0 {
                    break;
                }
                k += 1;
            }
            return Ok(self.finish(t0));
        }

        // Phase 1: zigzag over rows 1 and 2.
        let mut row1_done = false;
        let mut row2_done = false;
        let mut k = 2;
        while k <= self.k_cap && !(row1_done && row2_done) {
            self.check_interrupt()?;
            if !row1_done {
                self.eval_cell(1, k);
            }
            if !row2_done {
                self.eval_cell(2, k);
            }
            let c1_freq = self.cell(1, k).map_or(0, Cell::frequent_count);
            let c2_freq = self.cell(2, k).map_or(0, Cell::frequent_count);
            if self.cfg.pruning.tpg {
                let np1 = self.cell(1, k).is_none_or(Cell::all_non_positive);
                let np2 = self.cell(2, k).is_none_or(Cell::all_non_positive);
                if np1 && np2 {
                    // Theorem 3: no flipping pattern at any column ≥ k.
                    self.stats.tpg_cap = k as u64;
                    self.k_cap = k.saturating_sub(1).max(1);
                    break;
                }
            }
            if self.cfg.pruning.flipping {
                // Row 1 cells are frequency-complete: no frequent k-itemset
                // at level 1 ⇒ none larger ⇒ no flipping pattern beyond.
                if c1_freq == 0 {
                    break;
                }
                // Row 2 going silent does not by itself end the zigzag
                // (vertical sources from row 1 may revive later columns).
            } else {
                row1_done = row1_done || c1_freq == 0;
                row2_done = row2_done || c2_freq == 0;
            }
            k += 1;
        }

        // Phase 2: remaining rows, left to right.
        for h in 3..=height {
            // Largest column with vertical sources in the row above.
            let alive_cols = self.rows[h - 2]
                .cells
                .iter()
                .filter(|(_, c)| c.alive().next().is_some())
                .map(|(&k, _)| k)
                .max()
                .unwrap_or(0);
            let mut k = 2;
            while k <= self.k_cap {
                self.check_interrupt()?;
                self.eval_cell(h, k);
                let freq_here = self.cell(h, k).map_or(0, Cell::frequent_count);
                if self.cfg.pruning.tpg {
                    let np_above = self.cell(h - 1, k).is_none_or(Cell::all_non_positive);
                    let np_here = self.cell(h, k).is_none_or(Cell::all_non_positive);
                    if np_above && np_here {
                        self.stats.tpg_cap = k as u64;
                        self.k_cap = k.saturating_sub(1).max(1);
                        break;
                    }
                }
                if self.cfg.pruning.flipping {
                    // No horizontal source left and no vertical source to
                    // the right ⇒ all later cells of this row are empty.
                    if freq_here == 0 && k >= alive_cols {
                        break;
                    }
                } else if freq_here == 0 {
                    break;
                }
                k += 1;
            }
        }
        Ok(self.finish(t0))
    }

    fn finish(mut self, t0: Stopwatch) -> MiningResult {
        let patterns = self.extract_patterns();
        self.stats.counter = self.counter.stats();
        self.stats.elapsed = t0.elapsed();
        if flipper_obs::enabled() {
            // Charge the run's totals to the metrics registry in bulk —
            // one locked pass per run, nothing per candidate.
            let s = &self.stats;
            flipper_obs::counter_add("flipper_cells_evaluated_total", s.cells_evaluated);
            flipper_obs::counter_add("flipper_candidates_generated_total", s.candidates_generated);
            flipper_obs::counter_add("flipper_frequent_found_total", s.frequent_found);
            flipper_obs::counter_add("flipper_seeded_supports_total", s.seeded_supports);
            flipper_obs::counter_add("flipper_intersections_total", s.counter.intersections);
            flipper_obs::counter_add(
                "flipper_candidates_counted_total",
                s.counter.candidates_counted,
            );
            flipper_obs::counter_add("flipper_prefix_reuses_total", s.counter.prefix_reuses);
        }
        let mut evaluated: Vec<(usize, Cell)> = Vec::new();
        for (h, row) in self.rows.into_iter().enumerate() {
            // BTreeMap iteration is ascending by `k` already.
            for (_k, cell) in row.cells {
                evaluated.push((h + 1, cell));
            }
        }
        MiningResult {
            patterns,
            stats: self.stats,
            cells: self.cells_out,
            evaluated,
        }
    }

    /// Collect flipping patterns: chain-alive itemsets at the leaf level,
    /// with their chains reconstructed from the stored cells.
    fn extract_patterns(&self) -> Vec<FlippingPattern> {
        let height = self.tax.height();
        if height < 2 {
            return Vec::new();
        }
        let mut patterns = Vec::new();
        let leaf_row = &self.rows[height - 1];
        let mut ks: Vec<usize> = leaf_row.cells.keys().copied().collect();
        ks.sort_unstable();
        for k in ks {
            let cell = &leaf_row.cells[&k];
            let mut alive: Vec<&Itemset> = cell.alive().map(|(s, _)| s).collect();
            alive.sort_unstable();
            for leaf_set in alive {
                let mut chain = Vec::with_capacity(height);
                let mut set = leaf_set.clone();
                let mut ok = true;
                for h in (1..=height).rev() {
                    let info = match self.cell(h, k).and_then(|c| c.get(&set)) {
                        Some(i) => i,
                        None => {
                            debug_assert!(false, "alive leaf itemset with missing ancestor cell");
                            ok = false;
                            break;
                        }
                    };
                    chain.push(ChainLevel {
                        level: h,
                        itemset: set.clone(),
                        support: info.support,
                        corr: info.corr,
                        label: info.label,
                    });
                    if h > 1 {
                        set = self.parent_set(&set);
                    }
                }
                if !ok {
                    continue;
                }
                chain.reverse();
                let p = FlippingPattern {
                    leaf_itemset: leaf_set.clone(),
                    chain,
                };
                debug_assert_eq!(p.validate(), Ok(()), "extracted pattern must be valid");
                patterns.push(p);
            }
        }
        patterns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MinSupports, PruningConfig};
    use flipper_taxonomy::RebalancePolicy;

    /// The paper's Fig. 4 toy dataset.
    pub(crate) fn toy() -> (Taxonomy, TransactionDb) {
        let tax = Taxonomy::from_edges(
            [
                ("a", ""),
                ("b", ""),
                ("a1", "a"),
                ("a2", "a"),
                ("b1", "b"),
                ("b2", "b"),
                ("a11", "a1"),
                ("a12", "a1"),
                ("a21", "a2"),
                ("a22", "a2"),
                ("b11", "b1"),
                ("b12", "b1"),
                ("b21", "b2"),
                ("b22", "b2"),
            ],
            RebalancePolicy::RequireBalanced,
        )
        .unwrap();
        let g = |s: &str| tax.node_by_name(s).unwrap();
        let db = TransactionDb::new(vec![
            vec![g("a11"), g("a22"), g("b11"), g("b22")],
            vec![g("a11"), g("a21"), g("b11")],
            vec![g("a12"), g("a21")],
            vec![g("a12"), g("a22"), g("b21")],
            vec![g("a12"), g("a22"), g("b21")],
            vec![g("a12"), g("a21"), g("b22")],
            vec![g("a21"), g("b12")],
            vec![g("b12"), g("b21"), g("b22")],
            vec![g("b12"), g("b21")],
            vec![g("a22"), g("b12"), g("b22")],
        ])
        .unwrap();
        (tax, db)
    }

    fn toy_config(pruning: PruningConfig) -> FlipperConfig {
        FlipperConfig::new(Thresholds::new(0.6, 0.35), MinSupports::Counts(vec![1]))
            .with_pruning(pruning)
    }

    #[test]
    fn guarded_run_with_a_live_token_matches_unguarded() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        for pruning in PruningConfig::VARIANTS {
            let cfg = toy_config(pruning);
            let plain = mine_with_view(&tax, &view, &cfg);
            let token = CancelToken::new();
            let guarded = mine_with_view_guarded(&tax, &view, &cfg, &token).unwrap();
            assert_eq!(plain.patterns, guarded.patterns, "{}", pruning.name());
            assert_eq!(plain.cells, guarded.cells, "{}", pruning.name());
        }
    }

    #[test]
    fn cancelled_token_interrupts_at_a_cell_boundary() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        let cfg = toy_config(PruningConfig::FULL);
        // Pre-cancelled: the very first boundary check trips.
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            mine_with_view_guarded(&tax, &view, &cfg, &token).unwrap_err(),
            GuardError::Cancelled
        );
        // Deterministic mid-run interruption: cancel on the 2nd check.
        let token = CancelToken::cancel_after(2);
        assert_eq!(
            mine_with_view_guarded(&tax, &view, &cfg, &token).unwrap_err(),
            GuardError::Cancelled
        );
    }

    #[test]
    fn expired_deadline_surfaces_as_timeout() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        let cfg = toy_config(PruningConfig::FULL);
        let token = CancelToken::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            mine_with_view_guarded(&tax, &view, &cfg, &token).unwrap_err(),
            GuardError::TimedOut
        );
    }

    #[test]
    fn toy_example_finds_the_paper_pattern() {
        let (tax, db) = toy();
        for pruning in PruningConfig::VARIANTS {
            let result = mine(&tax, &db, &toy_config(pruning));
            let names: Vec<String> = result
                .patterns
                .iter()
                .map(|p| p.leaf_itemset.display(&tax).to_string())
                .collect();
            assert_eq!(
                names,
                vec!["{a11, b11}".to_string()],
                "variant {} found {names:?}",
                pruning.name()
            );
            let p = &result.patterns[0];
            assert_eq!(p.chain.len(), 3);
            assert_eq!(p.chain[0].label, Label::Positive); // {a, b}
            assert_eq!(p.chain[1].label, Label::Negative); // {a1, b1}
            assert_eq!(p.chain[2].label, Label::Positive); // {a11, b11}
            assert!((p.chain[0].corr - (7.0 / 8.0 + 7.0 / 9.0) / 2.0).abs() < 1e-12);
            assert!((p.chain[1].corr - (2.0 / 6.0 + 2.0 / 6.0) / 2.0).abs() < 1e-12);
            assert!((p.chain[2].corr - 1.0).abs() < 1e-12);
            assert_eq!(p.validate(), Ok(()));
        }
    }

    #[test]
    fn basic_counts_more_candidates_than_pruned_variants() {
        let (tax, db) = toy();
        let basic = mine(&tax, &db, &toy_config(PruningConfig::BASIC));
        let full = mine(&tax, &db, &toy_config(PruningConfig::FULL));
        assert!(basic.stats.candidates_generated >= full.stats.candidates_generated);
        assert_eq!(basic.patterns, full.patterns);
    }

    #[test]
    fn support_threshold_prunes_pattern() {
        // {a11, b11} has support 2 at the leaf level; θ₃ = 3 kills it.
        let (tax, db) = toy();
        let cfg = FlipperConfig::new(
            Thresholds::new(0.6, 0.35),
            MinSupports::Counts(vec![1, 1, 3]),
        );
        let result = mine(&tax, &db, &cfg);
        assert!(result.patterns.is_empty());
    }

    #[test]
    fn gamma_too_high_kills_chain() {
        let (tax, db) = toy();
        // Level-1 Kulc of {a,b} is ~0.826; γ=0.9 breaks the chain at the top.
        let cfg = FlipperConfig::new(Thresholds::new(0.9, 0.35), MinSupports::Counts(vec![1]));
        let result = mine(&tax, &db, &cfg);
        assert!(result.patterns.is_empty());
    }

    #[test]
    fn max_k_caps_columns() {
        let (tax, db) = toy();
        let cfg = toy_config(PruningConfig::BASIC).with_max_k(2);
        let result = mine(&tax, &db, &cfg);
        assert!(result.cells.iter().all(|c| c.k <= 2));
    }

    #[test]
    fn stats_are_populated() {
        let (tax, db) = toy();
        let r = mine(&tax, &db, &toy_config(PruningConfig::FULL));
        assert!(r.stats.cells_evaluated > 0);
        assert!(r.stats.candidates_generated > 0);
        assert!(r.stats.frequent_found > 0);
        assert!(r.stats.peak_resident_itemsets > 0);
        assert!(r.stats.elapsed.as_nanos() > 0);
        assert_eq!(
            r.stats.positive_found as usize,
            r.cells.iter().map(|c| c.positive).sum::<usize>()
        );
    }

    #[test]
    fn single_level_taxonomy_yields_no_patterns() {
        let tax = Taxonomy::from_edges(
            [("x", ""), ("y", ""), ("z", "")],
            RebalancePolicy::RequireBalanced,
        )
        .unwrap();
        let x = tax.node_by_name("x").unwrap();
        let y = tax.node_by_name("y").unwrap();
        let z = tax.node_by_name("z").unwrap();
        let db = TransactionDb::new(vec![vec![x, y], vec![x, y, z], vec![z]]).unwrap();
        let r = mine(
            &tax,
            &db,
            &FlipperConfig::new(Thresholds::new(0.5, 0.2), MinSupports::Counts(vec![1])),
        );
        assert!(r.patterns.is_empty());
        assert!(
            r.stats.cells_evaluated > 0,
            "row 1 is still mined for label counts"
        );
    }

    #[test]
    fn same_category_pairs_are_never_candidates() {
        let (tax, db) = toy();
        let r = mine(&tax, &db, &toy_config(PruningConfig::BASIC));
        // At level 2 the same-category pair {a1, a2} must not appear: check
        // via cell summaries — level 2, k=2 has at most 4 cross pairs.
        let c22 = r.cells.iter().find(|c| c.level == 2 && c.k == 2).unwrap();
        assert!(
            c22.evaluated <= 4,
            "only cross-category level-2 pairs: {}",
            c22.evaluated
        );
    }

    #[test]
    fn thread_count_never_changes_results_or_stats() {
        let (tax, db) = toy();
        let base = mine(&tax, &db, &toy_config(PruningConfig::FULL));
        for threads in [1usize, 2, 4] {
            let cfg = toy_config(PruningConfig::FULL).with_threads(threads);
            let r = mine(&tax, &db, &cfg);
            assert_eq!(r.patterns, base.patterns, "threads={threads}");
            assert_eq!(r.cells, base.cells, "threads={threads}");
            assert_eq!(
                r.stats.counter, base.stats.counter,
                "counter stats must be thread-invariant (threads={threads})"
            );
        }
    }

    #[test]
    fn seeded_mining_matches_unseeded_and_skips_counting() {
        let (tax, db) = toy();
        let view = MultiLevelView::build(&db, &tax);
        let cfg = toy_config(PruningConfig::FULL);
        let plain = mine_with_view(&tax, &view, &cfg);

        // A cold memo enumerates like no memo, and records what it did.
        let memo = VerticalMemo::new();
        let cold = mine_with_view_seeded(&tax, &view, &cfg, &memo);
        assert_eq!(cold.patterns, plain.patterns);
        assert_eq!(cold.cells, plain.cells);
        assert_eq!(cold.stats.seeded_supports, 0, "a cold memo replays nothing");
        assert_eq!(cold.stats.counter, plain.stats.counter);
        assert_eq!(plain.stats.seeded_supports, 0);
        assert!(memo.stats().entries > 0, "the run records its enumerations");

        // A warm memo replays every enumeration: same results, supports
        // answered without counting, fewer intersections.
        let replayed = mine_with_view_seeded(&tax, &view, &cfg, &memo);
        assert_eq!(replayed.patterns, plain.patterns);
        assert_eq!(replayed.cells, plain.cells);
        assert_eq!(memo.stats().seed_hits, memo.stats().entries);
        assert!(
            replayed.stats.seeded_supports > 0,
            "a warm rerun answers supports from the memo"
        );
        assert!(replayed.stats.counter.intersections < cold.stats.counter.intersections);

        // A guarded run shares the seeded run's results.
        let token = CancelToken::new();
        let guarded = mine_with_view_guarded(&tax, &view, &cfg, &token).unwrap();
        assert_eq!(guarded.patterns, replayed.patterns);

        // A memo recorded under a *different* config still yields identical
        // results: enumerations are config-independent data facts, and θ
        // keys them.
        let alt = FlipperConfig::new(Thresholds::new(0.8, 0.1), MinSupports::Counts(vec![1]));
        let alt_plain = mine_with_view(&tax, &view, &alt);
        let alt_seeded = mine_with_view_seeded(&tax, &view, &alt, &memo);
        assert_eq!(alt_seeded.patterns, alt_plain.patterns);
        assert_eq!(alt_seeded.cells, alt_plain.cells);
    }

    #[test]
    fn deterministic_across_runs() {
        let (tax, db) = toy();
        let r1 = mine(&tax, &db, &toy_config(PruningConfig::FULL));
        let r2 = mine(&tax, &db, &toy_config(PruningConfig::FULL));
        assert_eq!(r1.patterns, r2.patterns);
        assert_eq!(r1.stats.candidates_generated, r2.stats.candidates_generated);
        assert_eq!(r1.cells, r2.cells);
    }
}
