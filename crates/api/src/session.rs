//! The session: ingest once, mine many times.

use crate::error::FlipperError;
use crate::source::DataSource;
use crate::sweep::Sweep;
use flipper_core::stability::{bootstrap_stability, StabilityReport};
use flipper_core::topk::{top_k_with_view, TopKConfig, TopKResult};
use flipper_core::{mine_with_view, mine_with_view_guarded, FlipperConfig, MiningResult};
use flipper_data::{CacheStats, MultiLevelView, TransactionDb, VerticalMemo};
use flipper_guard::CancelToken;
use flipper_store::SalvageReport;
use flipper_taxonomy::Taxonomy;

/// A mining session over one ingested dataset.
///
/// Opening a session pays the ingestion cost — parsing or streaming the
/// source and projecting it to every abstraction level — exactly once; the
/// cached [`MultiLevelView`] then serves any number of [`mine`](Session::mine)
/// calls with different configurations. Results are bit-identical to the
/// single-shot [`flipper_core::mine`] / [`flipper_core::mine_with_view`]
/// paths: `mine` is a thin delegation over the same view type.
///
/// ```
/// use flipper_api::{Generator, Session, FlipperConfig, MinSupports, PruningConfig};
/// use flipper_datagen::planted::PlantedParams;
///
/// let session = Session::open(Generator::Planted(PlantedParams::default()))?;
/// let cfg = FlipperConfig {
///     min_support: MinSupports::Counts(vec![5]),
///     ..Default::default()
/// };
/// // Two runs over one ingestion: full pruning vs the baseline.
/// let full = session.mine(&cfg)?;
/// let basic = session.mine(&cfg.clone().with_pruning(PruningConfig::BASIC))?;
/// assert_eq!(full.patterns, basic.patterns);
/// # Ok::<(), flipper_api::FlipperError>(())
/// ```
#[derive(Debug)]
pub struct Session {
    taxonomy: Taxonomy,
    view: MultiLevelView,
    database: Option<TransactionDb>,
    origin: String,
    /// Session-level memo of vertical enumerations: seeded sweep points
    /// replay the parent sets an earlier seeded point enumerated, and
    /// record the rest as they go. Enumerations are facts about the
    /// ingested data, `h` and θ_h alone, so entries are valid for *any*
    /// configuration over this session. Locks internally, so parallel sweep
    /// jobs share it.
    pub(crate) memo: VerticalMemo,
    /// What salvage ingestion quarantined, when the session was opened via
    /// [`open_salvage_path`](Session::open_salvage_path). `None` for every
    /// strict open path.
    salvage: Option<SalvageReport>,
}

impl Session {
    /// Open a session by ingesting `source` sequentially. Use
    /// [`open_with_threads`](Session::open_with_threads) to shard the
    /// ingestion-time projection over workers.
    pub fn open(source: impl DataSource) -> Result<Session, FlipperError> {
        Session::open_with_threads(source, 1)
    }

    /// Open a session, sharding the view's per-level commit over up to
    /// `threads` scoped workers (`0` = auto-detect, `1` = sequential; at
    /// most one per abstraction level). The cached view is bit-identical
    /// at every thread count.
    pub fn open_with_threads(
        source: impl DataSource,
        threads: usize,
    ) -> Result<Session, FlipperError> {
        let ingested = {
            let _span = flipper_obs::span("session.ingest");
            source.ingest(threads)?
        };
        Ok(Session {
            taxonomy: ingested.taxonomy,
            view: ingested.view,
            database: ingested.database,
            origin: ingested.origin,
            memo: VerticalMemo::new(),
            salvage: None,
        })
    }

    /// Open a session on a dataset file, format-sniffed by magic bytes
    /// (shorthand for [`PathSource`](crate::PathSource)).
    pub fn open_path(path: impl Into<std::path::PathBuf>) -> Result<Session, FlipperError> {
        Session::open(crate::PathSource::new(path))
    }

    /// Open a session on a **damaged** FBIN file, mining what is readable:
    /// chunks that fail their CRC or decode are quarantined (skipped with a
    /// [`SalvageReport`] entry) instead of failing the whole ingestion, and
    /// a file cut short mid-stream ends gracefully at the last intact
    /// chunk. The report is kept on the session
    /// ([`salvage_report`](Session::salvage_report)) so frontends can print
    /// a degradation notice and stamp machine-readable output.
    ///
    /// Header or dictionary corruption is still fatal — without the
    /// dictionary no chunk can be decoded — as are real I/O errors. Text
    /// datasets are rejected with [`FlipperError::Usage`]: the text parser
    /// already reports the exact failing line, so salvage adds nothing.
    pub fn open_salvage_path(path: impl AsRef<std::path::Path>) -> Result<Session, FlipperError> {
        Session::open_salvage_path_with_threads(path, 1)
    }

    /// [`open_salvage_path`](Session::open_salvage_path), sharding the
    /// ingestion-time projection over `threads` workers.
    pub fn open_salvage_path_with_threads(
        path: impl AsRef<std::path::Path>,
        threads: usize,
    ) -> Result<Session, FlipperError> {
        let path = path.as_ref();
        if crate::io::detect_format(path)? != crate::io::FileFormat::Fbin {
            return Err(FlipperError::usage(format!(
                "salvage applies to FBIN files only, and {} is a text dataset \
                 (the text parser already reports the exact failing line)",
                path.display()
            )));
        }
        let file = std::fs::File::open(path)
            .map_err(|e| FlipperError::io(format!("open {}", path.display()), e))?;
        let (taxonomy, view, report) = {
            let _span = flipper_obs::span("session.ingest");
            flipper_store::salvage_view(std::io::BufReader::new(file), threads)?
        };
        Ok(Session {
            taxonomy,
            view,
            database: None,
            origin: format!("fbin file {} (salvage)", path.display()),
            memo: VerticalMemo::new(),
            salvage: Some(report),
        })
    }

    /// The salvage report, when this session was opened via
    /// [`open_salvage_path`](Session::open_salvage_path); `None` for strict
    /// open paths. [`SalvageReport::is_degraded`] distinguishes a clean
    /// salvage (nothing was wrong) from an actually degraded one.
    pub fn salvage_report(&self) -> Option<&SalvageReport> {
        self.salvage.as_ref()
    }

    /// The dataset taxonomy.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// The cached multi-level projection.
    pub fn view(&self) -> &MultiLevelView {
        &self.view
    }

    /// The raw transaction database, when the source materialized one
    /// (`None` after streamed FBIN ingestion).
    pub fn database(&self) -> Option<&TransactionDb> {
        self.database.as_ref()
    }

    /// Human-readable description of where the data came from.
    pub fn origin(&self) -> &str {
        &self.origin
    }

    /// Number of ingested transactions.
    pub fn num_transactions(&self) -> usize {
        self.view.num_transactions()
    }

    /// Mine flipping patterns under `cfg` against the cached view.
    ///
    /// Validates the configuration first ([`FlipperConfig::validate`]) so a
    /// malformed request surfaces as a typed [`FlipperError::Config`]
    /// instead of a panic deep inside the miner.
    pub fn mine(&self, cfg: &FlipperConfig) -> Result<MiningResult, FlipperError> {
        cfg.validate()?;
        Ok(mine_with_view(&self.taxonomy, &self.view, cfg))
    }

    /// [`mine`](Session::mine) under a [`CancelToken`]: the run checks the
    /// token at cell boundaries and stops early with
    /// [`FlipperError::Cancelled`] / [`FlipperError::Timeout`], and a panic
    /// anywhere inside the miner is trapped into
    /// [`FlipperError::Panicked`] instead of unwinding into the caller.
    /// With a live token the result is bit-identical to
    /// [`mine`](Session::mine) — the guard adds one relaxed atomic load per
    /// cell.
    pub fn mine_guarded(
        &self,
        cfg: &FlipperConfig,
        token: &CancelToken,
    ) -> Result<MiningResult, FlipperError> {
        cfg.validate()?;
        Ok(mine_with_view_guarded(
            &self.taxonomy,
            &self.view,
            cfg,
            token,
        )?)
    }

    /// Stats of the session's reuse state, the memo of vertical
    /// enumerations: entries and estimated bytes resident, plus memo lookups
    /// (`seed_lookups`) and the ones it answered (`seed_hits`), summed over
    /// seeded sweeps since the session opened or was last cleared.
    pub fn support_cache_stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Drop the session's reuse state — every recorded vertical
    /// enumeration in the memo — and reset its counters. Later seeded
    /// sweeps start cold; their results are unchanged.
    pub fn clear_support_cache(&self) {
        self.memo.clear();
    }

    /// Top-K most-flipping search ([`flipper_core::topk`]) over the cached
    /// view — works even when the session was ingested by streaming.
    ///
    /// Both the base configuration and the search knobs are validated up
    /// front, so a malformed request surfaces as a typed error instead of
    /// a panic inside the search.
    pub fn top_k(&self, cfg: &TopKConfig) -> Result<TopKResult, FlipperError> {
        // The search derives (γ, ε) per probe and discards base.thresholds,
        // so validate the base with them neutralized — a caller who left
        // garbage in the overridden field is not rejected for it.
        let mut base_check = cfg.base.clone();
        base_check.thresholds = flipper_measures::Thresholds::default();
        base_check.validate()?;
        cfg.validate()
            .map_err(|e| FlipperError::usage(format!("top-k search: {e}")))?;
        Ok(top_k_with_view(&self.taxonomy, &self.view, cfg))
    }

    /// Bootstrap stability screening ([`flipper_core::stability`]): resample
    /// the database `rounds` times and report how often each pattern
    /// reappears.
    ///
    /// Resampling needs the materialized [`TransactionDb`]; a session
    /// ingested from an FBIN stream reports [`FlipperError::Usage`].
    pub fn stability(
        &self,
        cfg: &FlipperConfig,
        rounds: usize,
        seed: u64,
    ) -> Result<StabilityReport, FlipperError> {
        cfg.validate()?;
        let db = self.database.as_ref().ok_or_else(|| {
            FlipperError::usage(
                "bootstrap stability resamples the raw database, but this session \
                 was ingested by streaming and never materialized it; open the \
                 session from a text file or an in-memory dataset instead",
            )
        })?;
        Ok(bootstrap_stability(&self.taxonomy, db, cfg, rounds, seed))
    }

    /// Start building a parameter [`Sweep`] over this session.
    pub fn sweep(&self) -> Sweep<'_> {
        Sweep::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Generator;
    use flipper_core::{mine, MinSupports};
    use flipper_datagen::planted::PlantedParams;

    fn planted_session() -> (flipper_datagen::planted::PlantedData, Session) {
        let data = flipper_datagen::planted::generate(&PlantedParams::default());
        let session = Session::open(&data).unwrap();
        (data, session)
    }

    fn counts_cfg() -> FlipperConfig {
        FlipperConfig {
            min_support: MinSupports::Counts(vec![5]),
            ..Default::default()
        }
    }

    #[test]
    fn mine_matches_single_shot_paths() {
        let (data, session) = planted_session();
        let cfg = counts_cfg();
        let via_session = session.mine(&cfg).unwrap();
        let via_mine = mine(&data.taxonomy, &data.db, &cfg);
        let via_view = mine_with_view(&data.taxonomy, session.view(), &cfg);
        assert_eq!(via_session.patterns, via_mine.patterns);
        assert_eq!(via_session.patterns, via_view.patterns);
        assert_eq!(via_session.cells, via_mine.cells);
        assert_eq!(session.num_transactions(), data.db.len());
    }

    #[test]
    fn repeated_mines_reuse_one_ingestion() {
        let (_, session) = planted_session();
        let cfg = counts_cfg();
        let first = session.mine(&cfg).unwrap();
        let second = session.mine(&cfg).unwrap();
        assert_eq!(first.patterns, second.patterns);
    }

    #[test]
    fn seeded_sweep_matches_mine_and_replays_the_memo() {
        let (_, session) = planted_session();
        let point = |cfg: &FlipperConfig| {
            let mut runs = session.sweep().add("p", cfg.clone()).run().unwrap();
            runs.remove(0).result
        };
        let cfg = counts_cfg();
        let plain = session.mine(&cfg).unwrap();
        let cold = point(&cfg);
        assert_eq!(cold.patterns, plain.patterns);
        assert_eq!(cold.cells, plain.cells);
        assert_eq!(cold.stats.seeded_supports, 0, "memo starts empty");
        assert!(session.support_cache_stats().entries > 0);

        let warm = point(&cfg);
        assert_eq!(warm.patterns, plain.patterns);
        assert_eq!(warm.cells, plain.cells);
        assert!(
            warm.stats.seeded_supports > 0,
            "second seeded run replays supports from the session memo"
        );
        let stats = session.support_cache_stats();
        assert!(stats.seed_lookups >= stats.seed_hits && stats.seed_hits > 0);

        // Different config, same session: enumerations are data facts.
        for other in [
            FlipperConfig {
                pruning: flipper_core::PruningConfig::BASIC,
                ..counts_cfg()
            },
            FlipperConfig {
                thresholds: flipper_measures::Thresholds::new(0.8, 0.1),
                ..counts_cfg()
            },
        ] {
            let seeded_other = point(&other);
            let plain_other = session.mine(&other).unwrap();
            assert_eq!(seeded_other.patterns, plain_other.patterns);
            assert_eq!(seeded_other.cells, plain_other.cells);
        }
    }

    #[test]
    fn bad_config_is_a_typed_error_not_a_panic() {
        let (_, session) = planted_session();
        let mut cfg = counts_cfg();
        cfg.min_support = MinSupports::Fractions(vec![]);
        let err = session.mine(&cfg).unwrap_err();
        assert!(matches!(err, FlipperError::Config(_)));
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn top_k_works_on_streamed_sessions() {
        let data = flipper_datagen::planted::generate(&PlantedParams {
            background_txns: 0,
            ..Default::default()
        });
        let fbin = flipper_store::to_fbin_bytes(&flipper_data::format::Dataset {
            taxonomy: data.taxonomy.clone(),
            db: data.db.clone(),
        })
        .unwrap();
        let session = Session::open(crate::FbinSource::new(&fbin[..])).unwrap();
        assert!(session.database().is_none());
        let r = session
            .top_k(&TopKConfig {
                k: 2,
                base: counts_cfg(),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(r.patterns.len(), 2);
        // …but stability needs the materialized db.
        let err = session.stability(&counts_cfg(), 3, 7).unwrap_err();
        assert!(matches!(err, FlipperError::Usage(_)));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn bad_topk_knobs_are_typed_errors_not_panics() {
        let (_, session) = planted_session();
        for bad in [
            TopKConfig {
                k: 0,
                base: counts_cfg(),
                ..Default::default()
            },
            TopKConfig {
                gamma_start: 0.1,
                gamma_floor: 0.5,
                base: counts_cfg(),
                ..Default::default()
            },
            TopKConfig {
                gamma_step: 1.5,
                base: counts_cfg(),
                ..Default::default()
            },
        ] {
            let err = session.top_k(&bad).unwrap_err();
            assert!(matches!(err, FlipperError::Usage(_)), "{err}");
        }
    }

    #[test]
    fn open_with_threads_caches_an_identical_view() {
        let data = flipper_datagen::planted::generate(&PlantedParams::default());
        let sequential = Session::open(&data).unwrap();
        for threads in [2usize, 4] {
            let sharded = Session::open_with_threads(&data, threads).unwrap();
            assert_eq!(sharded.view(), sequential.view(), "threads={threads}");
        }
    }

    #[test]
    fn guarded_mine_matches_plain_and_interrupts_typed() {
        let (_, session) = planted_session();
        let cfg = counts_cfg();
        let plain = session.mine(&cfg).unwrap();

        let live = CancelToken::new();
        let guarded = session.mine_guarded(&cfg, &live).unwrap();
        assert_eq!(guarded.patterns, plain.patterns);
        assert_eq!(guarded.cells, plain.cells);

        let cancelled = CancelToken::new();
        cancelled.cancel();
        let err = session.mine_guarded(&cfg, &cancelled).unwrap_err();
        assert!(matches!(err, FlipperError::Cancelled), "{err}");
        assert_eq!(err.exit_code(), 3);

        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        let err = session.mine_guarded(&cfg, &expired).unwrap_err();
        assert!(matches!(err, FlipperError::Timeout), "{err}");
        assert_eq!(err.exit_code(), 3);
    }

    /// Byte spans of the FBIN chunk sections in `bytes` (walked from the
    /// fixed 8-byte header: tag, u32 LE length, payload, u32 CRC).
    fn chunk_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut at = 8usize;
        while at < bytes.len() {
            let tag = bytes[at];
            let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
            let end = at + 1 + 4 + len + 4;
            if tag == 0x02 {
                spans.push((at, end));
            }
            at = end;
        }
        spans
    }

    #[test]
    fn salvage_open_quarantines_damage_and_mines_the_rest() {
        let dir = std::env::temp_dir().join(format!("flipper-api-salvage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = flipper_datagen::planted::generate(&PlantedParams::default());

        // One transaction per chunk, so one damaged chunk loses one txn.
        let mut w =
            flipper_store::FbinWriter::with_chunk_size(Vec::new(), &data.taxonomy, 1).unwrap();
        for txn in data.db.iter() {
            w.write_transaction(txn).unwrap();
        }
        let intact = w.finish().unwrap();

        // Intact file: salvage report present but not degraded, and the
        // session mines exactly like a strict open.
        let clean_path = dir.join("clean.fbin");
        std::fs::write(&clean_path, &intact).unwrap();
        let clean = Session::open_salvage_path(&clean_path).unwrap();
        let report = clean.salvage_report().unwrap();
        assert!(!report.is_degraded(), "{}", report.summary());
        assert_eq!(clean.num_transactions(), data.db.len());
        assert!(clean.database().is_none());
        assert!(clean.origin().contains("salvage"));
        let strict = Session::open_path(&clean_path).unwrap();
        assert_eq!(
            clean.mine(&counts_cfg()).unwrap().patterns,
            strict.mine(&counts_cfg()).unwrap().patterns
        );

        // Flip one payload byte in the second chunk: strict open fails
        // typed, salvage quarantines exactly that chunk and mines on.
        let spans = chunk_spans(&intact);
        assert!(spans.len() >= 3, "one chunk per transaction");
        let mut damaged = intact.clone();
        damaged[spans[1].0 + 6] ^= 0x20;
        let bad_path = dir.join("damaged.fbin");
        std::fs::write(&bad_path, &damaged).unwrap();
        let err = Session::open_path(&bad_path).unwrap_err();
        assert!(matches!(err, FlipperError::Store(_)), "{err}");
        let salvaged = Session::open_salvage_path(&bad_path).unwrap();
        let report = salvaged.salvage_report().unwrap();
        assert!(report.is_degraded());
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].index, 1);
        assert_eq!(salvaged.num_transactions(), data.db.len() - 1);
        salvaged.mine(&counts_cfg()).unwrap();

        // Text datasets are rejected: salvage is an FBIN affordance.
        let text_path = dir.join("toy.txt");
        crate::io::write_path(
            &text_path,
            &flipper_data::format::Dataset {
                taxonomy: data.taxonomy.clone(),
                db: data.db.clone(),
            },
            crate::io::FileFormat::Text,
        )
        .unwrap();
        let err = Session::open_salvage_path(&text_path).unwrap_err();
        assert!(matches!(err, FlipperError::Usage(_)), "{err}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stability_runs_on_materialized_sessions() {
        let session = Session::open(Generator::Planted(PlantedParams {
            background_txns: 0,
            ..PlantedParams::default()
        }))
        .unwrap();
        let report = session.stability(&counts_cfg(), 3, 7).unwrap();
        assert_eq!(report.rounds, 3);
    }
}
