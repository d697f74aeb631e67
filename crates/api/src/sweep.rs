//! Parameter sweeps: many labeled configurations against one session.
//!
//! Tuning γ/ε and comparing pruning variants both used to be hand-rolled
//! loops that re-ingested the dataset per point. A [`Sweep`] runs any
//! number of [`FlipperConfig`]s against the session's one cached view, one
//! after another in submission order, and returns labeled results in that
//! order — each bit-identical to calling
//! [`Session::mine`](crate::Session::mine) with that configuration alone.
//! Each point's own `threads` shards its support counting; the points
//! themselves never run concurrently, so every point replays what the
//! points before it enumerated.
//!
//! Two cost levers ride on top, neither of which can change any result:
//!
//! * **Deduplication** — points that agree on every result-determining
//!   field (measure, thresholds, supports, pruning, `max_k`) mine once;
//!   the repeats reuse the result and are flagged via
//!   [`SweepRun::duplicate_of`].
//! * **Vertical replay** — a point selects the vertical enumeration of a
//!   parent set that an earlier mining call on the session (a point of
//!   this sweep or an earlier one, or a [`Session::mine`](crate::Session::mine))
//!   recorded in the session's [`flipper_data::VerticalMemo`] under the
//!   same level and θ, instead of re-intersecting its children's
//!   transactions. Points that differ only in γ, ε or pruning share most
//!   of these.

use crate::error::FlipperError;
use crate::session::Session;
use flipper_core::{FlipperConfig, MinSupports, MiningResult, PruningConfig};
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
/// front, executes them in order, and returns one
/// [`SweepRun`] per point in submission order.
///
/// ```
/// use flipper_api::{Session, FlipperConfig, MinSupports};
/// use flipper_datagen::planted::{self, PlantedParams};
///
/// let data = planted::generate(&PlantedParams::default());
/// let session = Session::from_db(&data.taxonomy, &data.db)?;
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
    token: Option<&'s CancelToken>,
}

impl<'s> Sweep<'s> {
    /// Start an empty sweep over `session` (usually via
    /// [`Session::sweep`](crate::Session::sweep)).
    pub fn new(session: &'s Session) -> Self {
        Sweep {
            session,
            points: Vec::new(),
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
        for (_, cfg) in &self.points {
            cfg.validate()?;
        }
        // Partition into unique points (mined) and duplicates (reused):
        // per point, the slot of its result in the unique-result vector,
        // plus the index of the original point when it is a repeat.
        let mut first_of: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        let mut unique: Vec<&(String, FlipperConfig)> = Vec::new();
        let mut assignment: Vec<(usize, Option<usize>)> = Vec::with_capacity(self.points.len());
        for (i, point) in self.points.iter().enumerate() {
            match first_of.entry(result_key(&point.1)) {
                std::collections::btree_map::Entry::Occupied(e) => {
                    let &(orig, slot) = e.get();
                    assignment.push((slot, Some(orig)));
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert((i, unique.len()));
                    assignment.push((unique.len(), None));
                    unique.push(point);
                }
            }
        }
        let results: Vec<MiningResult> = {
            let _sweep_span = flipper_obs::span("sweep.run")
                .arg("points", self.points.len() as u64)
                .arg("unique", unique.len() as u64);
            unique
                .iter()
                .map(|(label, cfg)| {
                    if let Some(t) = self.token {
                        t.check()?;
                    }
                    let _point_span = flipper_obs::span_labeled("sweep.point", label);
                    // A panicking configuration fails the sweep typed (the
                    // miner traps it).
                    self.session.mine(cfg)
                })
                .collect::<Result<Vec<_>, FlipperError>>()?
        };
        let runs = self
            .points
            .iter()
            .zip(assignment)
            .map(|((label, config), (slot, orig))| SweepRun {
                label: label.clone(),
                config: config.clone(),
                result: results[slot].clone(),
                duplicate_of: orig.map(|i| self.points[i].0.clone()),
            })
            .collect();
        Ok(runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipper_core::MinSupports;
    use flipper_data::CacheStats;
    use flipper_datagen::planted::PlantedParams;

    fn session() -> Session {
        let data = flipper_datagen::planted::generate(&PlantedParams::default());
        Session::from_db(&data.taxonomy, &data.db).unwrap()
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

    /// Every point of a sweep equals its single-shot mine.
    #[test]
    fn sweep_runs_match_single_shot_mining_at_any_job_count() {
        let s = session();
        let runs = s.sweep().pruning_variants(&base()).run().unwrap();
        assert_eq!(runs.len(), 4);
        for run in &runs {
            let solo = s.mine(&run.config).unwrap();
            assert_eq!(run.result.patterns, solo.patterns, "{}", run.label);
            assert_eq!(run.result.cells, solo.cells, "{}", run.label);
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
    fn warm_sweeps_match_cold_points_and_hit_the_memo() {
        let s = session();
        let grid = || {
            s.sweep()
                .thresholds_grid(&base(), &[0.5, 0.3], &[0.1, 0.2])
                .run()
                .unwrap()
        };
        let first = grid();
        assert!(
            s.support_cache_stats().entries > 0,
            "sweep records its enumerations"
        );
        let warm = grid();
        let stats = s.support_cache_stats();
        assert!(
            stats.seed_hits > 0,
            "second sweep must be answered from the memo: {stats:?}"
        );
        for (f, w) in first.iter().zip(&warm) {
            // Each point alone on a fresh session: a cold memo.
            let cold = session().mine(&w.config).unwrap();
            assert_eq!(f.result.patterns, cold.patterns, "{}", f.label);
            assert_eq!(w.result.patterns, cold.patterns, "{}", w.label);
            assert_eq!(f.result.cells, cold.cells, "{}", f.label);
            assert_eq!(w.result.cells, cold.cells, "{}", w.label);
            assert!(w.result.stats.seeded_supports > 0, "{}", w.label);
        }
        s.clear_support_cache();
        assert_eq!(s.support_cache_stats().entries, 0);
    }

    /// `base()` under three minimum supports, so no memo entry one point
    /// records is keyed for another.
    fn three_theta_points(sweep: Sweep<'_>) -> Sweep<'_> {
        let at = |count| FlipperConfig {
            min_support: MinSupports::Counts(vec![count]),
            ..base()
        };
        sweep.add("s5", at(5)).add("s4", at(4)).add("s3", at(3))
    }

    fn results_bytes(s: &Session, runs: &[SweepRun]) -> Vec<u8> {
        let mut json = crate::JsonWriter::new(Vec::new());
        crate::emit_runs(&mut json, s.taxonomy(), runs).unwrap();
        json.into_inner()
    }

    #[test]
    fn clearing_resets_the_support_cache_and_the_memo() {
        let s = session();
        let cold = three_theta_points(s.sweep()).run().unwrap();
        let first = s.support_cache_stats();
        assert_eq!(first.seed_hits, 0, "distinct θ: nothing to replay");
        assert!(first.entries > 0 && first.bytes_resident > 0);
        assert_eq!(first.seed_lookups, first.entries, "every lookup missed");
        let warm = three_theta_points(s.sweep()).run().unwrap();
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
        let again = three_theta_points(s.sweep()).run().unwrap();
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

    /// A token that fires between points stops the sweep at a point
    /// boundary: the points before it mined in full (and recorded their
    /// enumerations in the memo), the rest never started.
    #[test]
    fn cancel_between_points_stops_at_a_point_boundary() {
        let s = session();
        // Two checks pass, so two points complete; the third check cancels.
        let token = CancelToken::cancel_after(3);
        let err = three_theta_points(s.sweep())
            .with_token(&token)
            .run()
            .unwrap_err();
        assert!(matches!(err, FlipperError::Cancelled), "{err}");

        let first_two = session();
        for (_, cfg) in three_theta_points(first_two.sweep()).points.iter().take(2) {
            first_two.mine(cfg).unwrap();
        }
        let full = session();
        three_theta_points(full.sweep()).run().unwrap();
        let cancelled = s.support_cache_stats();
        assert_eq!(cancelled, first_two.support_cache_stats());
        assert_ne!(cancelled, full.support_cache_stats());
    }
}
