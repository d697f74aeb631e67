//! Parameter sweeps: many labeled configurations against one session.
//!
//! Tuning γ/ε and comparing pruning variants both used to be hand-rolled
//! loops that re-ingested the dataset per point. A [`Sweep`] runs any number of [`FlipperConfig`]s against the
//! session's one cached view, sharding *runs* (not just candidate batches)
//! over `flipper_data::exec` workers, and returns labeled results in
//! submission order — each bit-identical to calling
//! [`Session::mine`](crate::Session::mine) with that configuration alone.
//!
//! Two cost levers ride on top, neither of which can change any result:
//!
//! * **Deduplication** — points that agree on every result-determining
//!   field (measure, thresholds, supports, pruning, `max_k`) mine once;
//!   the repeats reuse the result and are flagged via
//!   [`SweepRun::duplicate_of`].
//! * **Vertical replay** (default on, [`Sweep::with_seeding`]) — a point
//!   replays the vertical enumeration of a parent set that an earlier
//!   point, in this sweep or an earlier one, recorded in the session's
//!   [`flipper_data::VerticalMemo`] under the same level and θ, instead of
//!   re-intersecting its children's transactions. Points that differ only
//!   in γ, ε or pruning share most of these.

use crate::checkpoint::{point_key, CheckpointRow, SweepJournal};
use crate::error::FlipperError;
use crate::session::Session;
use flipper_core::{
    mine_with_view, mine_with_view_seeded, FlipperConfig, MinSupports, MiningResult, PruningConfig,
};
use flipper_data::exec;
use flipper_guard::CancelToken;
use flipper_measures::Thresholds;
use std::collections::BTreeMap;

/// One γ/ε grid point: `Some((label, thresholds))` when the pair satisfies
/// the paper's `ε < γ` constraint, `None` otherwise. The single source of
/// the grid skip rule and the `g{γ}/e{ε}` label format — shared by
/// [`Sweep::thresholds_grid`] and the CLI `sweep` subcommand so their
/// machine-readable labels can never diverge.
pub fn threshold_point(gamma: f64, epsilon: f64) -> Option<(String, Thresholds)> {
    (epsilon < gamma).then(|| {
        (
            format!("g{gamma}/e{epsilon}"),
            Thresholds { gamma, epsilon },
        )
    })
}

/// One completed sweep point.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The label attached when the point was added.
    pub label: String,
    /// The exact configuration that ran.
    pub config: FlipperConfig,
    /// Its mining result.
    pub result: MiningResult,
    /// `Some(label)` when this point's result-determining fields matched
    /// an earlier point, whose result was reused instead of re-mined.
    /// The thread count never changes results, so points differing only
    /// in it are duplicates by construction.
    pub duplicate_of: Option<String>,
}

/// The fields of a configuration that can change the mined result. Two
/// points with equal keys produce bit-identical results, so the sweep mines
/// the first and reuses it for the rest. Floats are keyed by their exact
/// bit patterns — no epsilon games.
fn result_key(cfg: &FlipperConfig) -> String {
    let min_support = match &cfg.min_support {
        MinSupports::Counts(v) => format!("c{v:?}"),
        MinSupports::Fractions(v) => {
            let bits: Vec<u64> = v.iter().map(|f| f.to_bits()).collect();
            format!("f{bits:?}")
        }
    };
    format!(
        "{:?}|g{:016x}|e{:016x}|{min_support}|{:?}|k{:?}",
        cfg.measure,
        cfg.thresholds.gamma.to_bits(),
        cfg.thresholds.epsilon.to_bits(),
        cfg.pruning,
        cfg.max_k,
    )
}

/// Builder for a labeled set of mining runs over one [`Session`].
///
/// Points are added either individually ([`add`](Sweep::add)) or through
/// the grid helpers; [`run`](Sweep::run) validates every configuration up
/// front, executes them (optionally in parallel), and returns one
/// [`SweepRun`] per point in submission order.
///
/// ```
/// use flipper_api::{Generator, Session, FlipperConfig, MinSupports};
/// use flipper_datagen::planted::PlantedParams;
///
/// let session = Session::open(Generator::Planted(PlantedParams::default()))?;
/// let base = FlipperConfig {
///     min_support: MinSupports::Counts(vec![5]),
///     ..Default::default()
/// };
/// let runs = session
///     .sweep()
///     .pruning_variants(&base)
///     .run()?;
/// assert_eq!(runs.len(), 4);
/// // Every variant finds the same planted patterns.
/// assert!(runs.windows(2).all(|w| w[0].result.patterns == w[1].result.patterns));
/// # Ok::<(), flipper_api::FlipperError>(())
/// ```
#[derive(Debug)]
pub struct Sweep<'s> {
    session: &'s Session,
    points: Vec<(String, FlipperConfig)>,
    jobs: usize,
    seed_supports: bool,
    token: Option<&'s CancelToken>,
}

impl<'s> Sweep<'s> {
    /// Start an empty sweep over `session` (usually via
    /// [`Session::sweep`](crate::Session::sweep)).
    pub fn new(session: &'s Session) -> Self {
        Sweep {
            session,
            points: Vec::new(),
            jobs: 1,
            seed_supports: true,
            token: None,
        }
    }

    /// Run the sweep under a [`CancelToken`]: the token is checked between
    /// points, before each one starts, so a sweep stops at a point boundary
    /// and a point that started runs to completion. A cancelled or expired
    /// token surfaces as [`FlipperError::Cancelled`] /
    /// [`FlipperError::Timeout`] from [`run`](Sweep::run). Results of points
    /// that complete are identical with and without a live token.
    pub fn with_token(mut self, token: &'s CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Toggle reuse of session work (default on). Seeded points replay
    /// the vertical enumerations earlier points recorded in the session
    /// memo and record their own. Results are identical either way —
    /// enumerations are data facts, independent of γ, ε and pruning — so
    /// turning this off only changes mining cost.
    pub fn with_seeding(mut self, seed_supports: bool) -> Self {
        self.seed_supports = seed_supports;
        self
    }

    /// Shard the sweep's *runs* over `jobs` scoped workers (`0` =
    /// auto-detect, `1` = sequential). Independent of each run's own
    /// `cfg.threads`; prefer run-level parallelism for grids of many small
    /// runs and config-level threads for few large ones.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Add one labeled configuration.
    pub fn add(mut self, label: impl Into<String>, config: FlipperConfig) -> Self {
        self.points.push((label.into(), config));
        self
    }

    /// Add the γ × ε grid over `base`: one point per pair with
    /// `epsilon < gamma` (invalid pairs are skipped — a rectangular grid
    /// over the paper's `0 ≤ ε < γ ≤ 1` constraint is always triangular),
    /// labeled `g{γ}/e{ε}`.
    pub fn thresholds_grid(
        mut self,
        base: &FlipperConfig,
        gammas: &[f64],
        epsilons: &[f64],
    ) -> Self {
        for &gamma in gammas {
            for &epsilon in epsilons {
                if let Some((label, thresholds)) = threshold_point(gamma, epsilon) {
                    let mut cfg = base.clone();
                    cfg.thresholds = thresholds;
                    self.points.push((label, cfg));
                }
            }
        }
        self
    }

    /// Add all four cumulative pruning variants over `base`, labeled by
    /// [`PruningConfig::name`] (`basic`, `flipping`, …).
    pub fn pruning_variants(mut self, base: &FlipperConfig) -> Self {
        for pruning in PruningConfig::VARIANTS {
            let mut cfg = base.clone();
            cfg.pruning = pruning;
            self.points.push((pruning.name().to_string(), cfg));
        }
        self
    }

    /// Number of points queued so far.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Validate every configuration, run every point, and return the
    /// labeled results in submission order.
    ///
    /// Validation happens before any mining starts, so a bad grid point
    /// fails fast instead of wasting the earlier runs. Violations surface
    /// as [`FlipperError::Config`] — the same category
    /// [`Session::mine`](crate::Session::mine) reports for the identical
    /// configuration, so frontends can map config failures uniformly.
    ///
    /// Points whose result-determining fields (`result_key`) match an
    /// earlier point are not re-mined: they receive the first point's
    /// result and carry [`SweepRun::duplicate_of`] naming it. Points that
    /// differ only in `threads` therefore mine exactly once.
    pub fn run(self) -> Result<Vec<SweepRun>, FlipperError> {
        Ok(self.execute(None)?.runs)
    }

    /// [`run`](Sweep::run) against a [`SweepJournal`]: points the journal
    /// already records are **skipped** and surface as
    /// [`SweepOutcome::restored`] summaries; the remainder mine normally,
    /// each appended to the journal (and flushed) the moment it completes.
    /// A sweep killed mid-run — cancelled, timed out, OOM-killed — therefore
    /// resumes from its last completed point instead of restarting.
    pub fn run_checkpointed(self, journal: &SweepJournal) -> Result<SweepOutcome, FlipperError> {
        self.execute(Some(journal))
    }

    fn execute(self, journal: Option<&SweepJournal>) -> Result<SweepOutcome, FlipperError> {
        for (_, cfg) in &self.points {
            cfg.validate()?;
        }
        let session = self.session;
        // Restore already-completed points from the journal; the rest stay
        // live. A point's journal key covers its label *and* its
        // result-determining fields, so an edited grid never restores a
        // stale summary.
        let mut restored: Vec<CheckpointRow> = Vec::new();
        let mut live: Vec<(&(String, FlipperConfig), u64)> = Vec::new();
        for point in &self.points {
            let key = point_key(&point.0, &result_key(&point.1));
            match journal.and_then(|j| j.completed(key)) {
                Some(row) => restored.push(row.clone()),
                None => live.push((point, key)),
            }
        }
        // Partition into unique points (mined) and duplicates (reused):
        // per point, the slot of its result in the unique-result vector,
        // plus the index of the original point when it is a repeat.
        let mut first_of: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        let mut unique: Vec<(&(String, FlipperConfig), u64)> = Vec::new();
        let mut assignment: Vec<(usize, Option<usize>)> = Vec::with_capacity(live.len());
        for (i, &entry) in live.iter().enumerate() {
            match first_of.entry(result_key(&entry.0 .1)) {
                std::collections::btree_map::Entry::Occupied(e) => {
                    let &(orig, slot) = e.get();
                    assignment.push((slot, Some(orig)));
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert((i, unique.len()));
                    assignment.push((unique.len(), None));
                    unique.push(entry);
                }
            }
        }
        let token = self.token;
        // The memo locks per parent set, so jobs see each other's
        // enumerations.
        let memo = self.seed_supports.then_some(&session.memo);
        let results: Vec<MiningResult> = {
            let _sweep_span = flipper_obs::span("sweep.run")
                .arg("points", self.points.len() as u64)
                .arg("unique", unique.len() as u64);
            exec::try_map_slice_chunks(self.jobs, &unique, |chunk| {
                chunk
                    .iter()
                    .map(|&(point, key)| {
                        let (label, cfg) = point;
                        if let Some(t) = token {
                            t.check()?;
                        }
                        let _point_span = flipper_obs::span_labeled("sweep.point", label);
                        // Trap per point: one panicking configuration fails
                        // the sweep typed, after every worker has joined and
                        // flushed — it cannot abort the process.
                        let result = flipper_guard::trap("sweep.point", || match memo {
                            Some(memo) => {
                                mine_with_view_seeded(session.taxonomy(), session.view(), cfg, memo)
                            }
                            None => mine_with_view(session.taxonomy(), session.view(), cfg),
                        })?;
                        if let Some(j) = journal {
                            j.record(key, &summary_row(label, &result))?;
                        }
                        Ok(result)
                    })
                    .collect::<Result<Vec<_>, FlipperError>>()
            })?
            .into_iter()
            .flatten()
            .collect()
        };
        // Journal the duplicates too (they completed by reuse), so a
        // resumed sweep restores them instead of re-deriving the original.
        if let Some(j) = journal {
            for (&(point, key), &(slot, orig)) in live.iter().zip(&assignment) {
                if orig.is_some() {
                    j.record(key, &summary_row(&point.0, &results[slot]))?;
                }
            }
        }
        let runs = live
            .iter()
            .zip(assignment)
            .map(|(&(point, _), (slot, orig))| SweepRun {
                label: point.0.clone(),
                config: point.1.clone(),
                result: results[slot].clone(),
                duplicate_of: orig.map(|i| live[i].0 .0.clone()),
            })
            .collect();
        Ok(SweepOutcome { runs, restored })
    }
}

/// What [`Sweep::run_checkpointed`] returns: the points this invocation
/// actually mined, plus summaries of the points restored from the journal.
/// Restored points deliberately carry summaries only — the journal is a
/// crash-recovery aid, not a second results format; rerun without the
/// journal to regenerate full results.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Newly-mined points, in submission order (journal-restored points
    /// removed).
    pub runs: Vec<SweepRun>,
    /// Points skipped because the journal already records them, in
    /// submission order.
    pub restored: Vec<CheckpointRow>,
}

/// The journal summary of one completed point.
fn summary_row(label: &str, result: &MiningResult) -> CheckpointRow {
    CheckpointRow {
        label: label.to_string(),
        patterns: result.patterns.len() as u64,
        positive: result.total_positive() as u64,
        negative: result.total_negative() as u64,
        candidates: result.stats.candidates_generated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Generator;
    use flipper_core::MinSupports;
    use flipper_data::CacheStats;
    use flipper_datagen::planted::PlantedParams;

    fn session() -> Session {
        Session::open(Generator::Planted(PlantedParams::default())).unwrap()
    }

    fn base() -> FlipperConfig {
        FlipperConfig {
            min_support: MinSupports::Counts(vec![5]),
            ..Default::default()
        }
    }

    #[test]
    fn grid_helpers_label_and_order_points() {
        let s = session();
        let sweep = s
            .sweep()
            .thresholds_grid(&base(), &[0.5, 0.3], &[0.1, 0.4])
            .pruning_variants(&base());
        // Grid: (0.5,0.1), (0.5,0.4), (0.3,0.1) — (0.3,0.4) is invalid and
        // skipped. Variants: 4.
        assert_eq!(sweep.len(), 3 + 4);
        assert!(!sweep.is_empty());
        let labels: Vec<String> = sweep.points.iter().map(|(l, _)| l.clone()).collect();
        assert_eq!(labels[0], "g0.5/e0.1");
        assert_eq!(labels[3], "basic");
        assert_eq!(labels[6], "flipping+tpg+sibp");
    }

    #[test]
    fn sweep_runs_match_single_shot_mining_at_any_job_count() {
        let s = session();
        for jobs in [1usize, 4] {
            let runs = s
                .sweep()
                .with_jobs(jobs)
                .pruning_variants(&base())
                .run()
                .unwrap();
            assert_eq!(runs.len(), 4, "jobs={jobs}");
            for run in &runs {
                let solo = s.mine(&run.config).unwrap();
                assert_eq!(
                    run.result.patterns, solo.patterns,
                    "jobs={jobs} {}",
                    run.label
                );
                assert_eq!(run.result.cells, solo.cells, "jobs={jobs} {}", run.label);
            }
        }
    }

    /// `base()` at 1 and 2 threads, labeled `t1` / `t2`.
    fn thread_points(sweep: Sweep<'_>) -> Sweep<'_> {
        sweep
            .add("t1", base().with_threads(1))
            .add("t2", base().with_threads(2))
    }

    #[test]
    fn thread_points_mine_once_and_flag_duplicates() {
        let s = session();
        let runs = thread_points(s.sweep())
            .add("t1-again", base())
            .run()
            .unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].duplicate_of, None, "first point actually mines");
        for run in &runs[1..] {
            assert_eq!(
                run.duplicate_of.as_deref(),
                Some("t1"),
                "{}: threads never change results",
                run.label
            );
            assert_eq!(run.result.patterns, runs[0].result.patterns);
            assert_eq!(run.result.cells, runs[0].result.cells);
        }
        // Distinct thresholds stay distinct.
        let grid = s
            .sweep()
            .thresholds_grid(&base(), &[0.5, 0.4], &[0.1])
            .run()
            .unwrap();
        assert!(grid.iter().all(|r| r.duplicate_of.is_none()));
    }

    #[test]
    fn seeded_sweeps_match_unseeded_and_hit_the_support_cache() {
        let s = session();
        let grid = |seed: bool| {
            s.sweep()
                .with_seeding(seed)
                .thresholds_grid(&base(), &[0.5, 0.3], &[0.1, 0.2])
                .run()
                .unwrap()
        };
        let cold = grid(true);
        assert!(
            s.support_cache_stats().entries > 0,
            "sweep records its enumerations"
        );
        let warm = grid(true);
        let stats = s.support_cache_stats();
        assert!(
            stats.seed_hits > 0,
            "second sweep must be answered from the memo: {stats:?}"
        );
        let unseeded = grid(false);
        assert_eq!(s.support_cache_stats(), stats, "unseeded sweeps skip it");
        for ((c, w), u) in cold.iter().zip(&warm).zip(&unseeded) {
            assert_eq!(c.result.patterns, w.result.patterns, "{}", c.label);
            assert_eq!(c.result.patterns, u.result.patterns, "{}", c.label);
            assert_eq!(c.result.cells, w.result.cells, "{}", c.label);
            assert_eq!(c.result.cells, u.result.cells, "{}", c.label);
        }
        s.clear_support_cache();
        assert_eq!(s.support_cache_stats().entries, 0);
    }

    /// `base()` under two minimum supports, so no memo entry one point
    /// records is keyed for the other.
    fn two_theta_points(sweep: Sweep<'_>) -> Sweep<'_> {
        let mut other = base();
        other.min_support = MinSupports::Counts(vec![4]);
        sweep.add("s5", base()).add("s4", other)
    }

    fn results_bytes(s: &Session, runs: &[SweepRun]) -> Vec<u8> {
        let mut json = crate::JsonWriter::new(Vec::new());
        crate::emit_runs(&mut json, s.taxonomy(), runs).unwrap();
        json.into_inner()
    }

    #[test]
    fn clearing_resets_the_support_cache_and_the_memo() {
        let s = session();
        let cold = two_theta_points(s.sweep()).run().unwrap();
        let first = s.support_cache_stats();
        assert_eq!(first.seed_hits, 0, "distinct θ: nothing to replay");
        assert!(first.entries > 0 && first.bytes_resident > 0);
        assert_eq!(first.seed_lookups, first.entries, "every lookup missed");
        let warm = two_theta_points(s.sweep()).run().unwrap();
        let second = s.support_cache_stats();
        assert_eq!(
            second.seed_lookups - second.seed_hits,
            first.seed_lookups,
            "a repeat replays everything"
        );
        assert_eq!(second.seed_hits, first.entries);
        assert_eq!(
            (second.entries, second.bytes_resident),
            (first.entries, first.bytes_resident)
        );

        s.clear_support_cache();
        assert_eq!(s.support_cache_stats(), CacheStats::default());
        let again = two_theta_points(s.sweep()).run().unwrap();
        assert_eq!(
            s.support_cache_stats(),
            first,
            "a cleared session starts cold"
        );
        let bytes = results_bytes(&s, &cold);
        assert_eq!(results_bytes(&s, &warm), bytes);
        assert_eq!(results_bytes(&s, &again), bytes);
    }

    #[test]
    fn invalid_point_fails_fast_as_a_config_error() {
        let s = session();
        let mut bad = base();
        bad.min_support = MinSupports::Fractions(vec![]);
        // Same category Session::mine reports for the same config.
        let err = s.sweep().add("broken", bad.clone()).run().unwrap_err();
        assert!(matches!(err, FlipperError::Config(_)));
        assert!(matches!(s.mine(&bad).unwrap_err(), FlipperError::Config(_)));
    }

    #[test]
    fn empty_sweep_returns_no_runs() {
        let s = session();
        assert!(s.sweep().run().unwrap().is_empty());
    }

    #[test]
    fn live_token_changes_nothing_and_interrupted_tokens_surface_typed() {
        let s = session();
        let live = CancelToken::new();
        let guarded = s
            .sweep()
            .with_token(&live)
            .pruning_variants(&base())
            .run()
            .unwrap();
        let plain = s.sweep().pruning_variants(&base()).run().unwrap();
        assert_eq!(guarded.len(), plain.len());
        for (g, p) in guarded.iter().zip(&plain) {
            assert_eq!(g.result.patterns, p.result.patterns, "{}", g.label);
            assert_eq!(g.result.cells, p.result.cells, "{}", g.label);
        }

        let cancelled = CancelToken::new();
        cancelled.cancel();
        let err = s
            .sweep()
            .with_token(&cancelled)
            .pruning_variants(&base())
            .run()
            .unwrap_err();
        assert!(matches!(err, FlipperError::Cancelled), "{err}");
        assert_eq!(err.exit_code(), 3);

        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        let err = s
            .sweep()
            .with_token(&expired)
            .pruning_variants(&base())
            .run()
            .unwrap_err();
        assert!(matches!(err, FlipperError::Timeout), "{err}");
    }

    #[test]
    fn cancelled_sweep_checkpoints_progress_and_resumes() {
        let s = session();
        let dir = std::env::temp_dir().join(format!("flipper-sweep-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.ckpt");
        let _ = std::fs::remove_file(&path);

        // First attempt: single-job for a deterministic interruption point —
        // two points complete, the third check cancels.
        let journal = SweepJournal::open(&path, &s).unwrap();
        let token = CancelToken::cancel_after(3);
        let err = s
            .sweep()
            .with_jobs(1)
            .with_token(&token)
            .pruning_variants(&base())
            .run_checkpointed(&journal)
            .unwrap_err();
        assert!(matches!(err, FlipperError::Cancelled), "{err}");
        assert_eq!(
            journal.completed_points(),
            0,
            "in-memory view is a snapshot at open"
        );
        drop(journal);

        // Resume: reopen the journal, completed points restore as summaries,
        // the rest mine.
        let journal = SweepJournal::open(&path, &s).unwrap();
        let done = journal.completed_points();
        assert_eq!(done, 2, "two points completed before the cancellation");
        let outcome = s
            .sweep()
            .pruning_variants(&base())
            .run_checkpointed(&journal)
            .unwrap();
        assert_eq!(outcome.restored.len(), done);
        assert_eq!(outcome.runs.len(), 4 - done);
        let mut labels: Vec<&str> = outcome
            .restored
            .iter()
            .map(|r| r.label.as_str())
            .chain(outcome.runs.iter().map(|r| r.label.as_str()))
            .collect();
        labels.sort_unstable();
        assert_eq!(
            labels,
            ["basic", "flipping", "flipping+tpg", "flipping+tpg+sibp"]
        );
        // Restored summaries match what a fresh solo mine reports.
        for row in &outcome.restored {
            let pruning = PruningConfig::VARIANTS
                .into_iter()
                .find(|p| p.name() == row.label)
                .unwrap();
            let mut cfg = base();
            cfg.pruning = pruning;
            let solo = s.mine(&cfg).unwrap();
            assert_eq!(row.patterns, solo.patterns.len() as u64, "{}", row.label);
            assert_eq!(row.positive, solo.total_positive() as u64, "{}", row.label);
            assert_eq!(row.negative, solo.total_negative() as u64, "{}", row.label);
        }

        // A third pass restores everything and mines nothing.
        let journal = SweepJournal::open(&path, &s).unwrap();
        let outcome = s
            .sweep()
            .pruning_variants(&base())
            .run_checkpointed(&journal)
            .unwrap();
        assert!(outcome.runs.is_empty());
        assert_eq!(outcome.restored.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_duplicates_are_journaled_too() {
        let s = session();
        let dir = std::env::temp_dir().join(format!("flipper-sweep-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dups.ckpt");
        let _ = std::fs::remove_file(&path);

        let journal = SweepJournal::open(&path, &s).unwrap();
        let outcome = thread_points(s.sweep()).run_checkpointed(&journal).unwrap();
        assert_eq!(outcome.runs.len(), 2);
        assert_eq!(outcome.runs[1].duplicate_of.as_deref(), Some("t1"));

        let journal = SweepJournal::open(&path, &s).unwrap();
        assert_eq!(
            journal.completed_points(),
            2,
            "the duplicate is recorded too"
        );
        let outcome = thread_points(s.sweep()).run_checkpointed(&journal).unwrap();
        assert!(outcome.runs.is_empty());
        assert_eq!(outcome.restored.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
