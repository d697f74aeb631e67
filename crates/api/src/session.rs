//! The session: ingest once, mine many times.

use crate::error::FlipperError;
use crate::io::FileFormat;
use crate::sweep::Sweep;
use flipper_core::topk::{top_k_with_view, TopKConfig, TopKError, TopKResult};
use flipper_core::{mine_with_view, FlipperConfig, MiningResult};
use flipper_data::format::read_dataset;
use flipper_data::{CacheStats, MultiLevelView, TransactionDb, VerticalMemo};
use flipper_guard::CancelToken;
use flipper_store::{stream_view, FbinReader, SalvageReport};
use flipper_taxonomy::Taxonomy;

/// A mining session over one ingested dataset.
///
/// Opening a session pays the ingestion cost — parsing or streaming the
/// source and projecting it to every abstraction level — exactly once; the
/// cached [`MultiLevelView`] then serves any number of [`mine`](Session::mine)
/// calls with different configurations, each a thin delegation to
/// [`flipper_core::mine_with_view`], the one mining call. Results are
/// bit-identical to a run on a fresh session, whatever ran before. Every
/// mining call — `mine`, [`mine_guarded`](Session::mine_guarded),
/// [`top_k`](Session::top_k), a [`Sweep`] — reads and records the
/// session's memo of vertical enumerations, so a later call replays the
/// enumerations an earlier one paid for; and every one returns a panic
/// inside the miner as [`FlipperError::Panicked`] instead of unwinding.
///
/// ```
/// use flipper_api::{Session, FlipperConfig, MinSupports, PruningConfig};
/// use flipper_datagen::planted::{self, PlantedParams};
///
/// let data = planted::generate(&PlantedParams::default());
/// let session = Session::from_db(&data.taxonomy, &data.db)?;
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
    origin: String,
    /// Session-level memo of vertical enumerations: every mining call
    /// replays the parent sets an earlier call enumerated, and records the
    /// rest as it goes. Enumerations are facts about the ingested data, `h`
    /// and θ_h alone, so entries are valid for *any* configuration over
    /// this session. Locks internally, so callers that share the session
    /// across threads share it too.
    memo: VerticalMemo,
    /// What salvage ingestion quarantined, when the session was opened via
    /// [`open_salvage_path`](Session::open_salvage_path). `None` for every
    /// strict open path.
    salvage: Option<SalvageReport>,
}

impl Session {
    fn new(
        taxonomy: Taxonomy,
        view: MultiLevelView,
        origin: String,
        salvage: Option<SalvageReport>,
    ) -> Session {
        Session {
            taxonomy,
            view,
            origin,
            memo: VerticalMemo::new(),
            salvage,
        }
    }

    /// Open a session on an in-memory database over `taxonomy`'s leaves.
    /// The database is projected where it lies; only the taxonomy is
    /// cloned.
    ///
    /// # Errors
    /// [`FlipperError::Data`] when a row holds an item that is not a leaf at
    /// the taxonomy's height (the error names the transaction and the item).
    pub fn from_db(taxonomy: &Taxonomy, db: &TransactionDb) -> Result<Session, FlipperError> {
        let _span = flipper_obs::span("session.ingest");
        let view = MultiLevelView::build(db, taxonomy)?;
        let origin = format!(
            "in-memory dataset ({} transactions, {} nodes)",
            db.len(),
            taxonomy.node_count()
        );
        Ok(Session::new(taxonomy.clone(), view, origin, None))
    }

    /// Open a session on a dataset file, format-sniffed by magic bytes: an
    /// FBIN file is streamed chunk by chunk into the view, without the raw
    /// database ever existing in memory; anything else goes through the
    /// text parser. [`origin`](Session::origin) is the path as displayed.
    pub fn open_path(path: impl Into<std::path::PathBuf>) -> Result<Session, FlipperError> {
        let _span = flipper_obs::span("session.ingest");
        let path = path.into();
        let (format, reader) = crate::source::open(&path)?;
        let (taxonomy, view) = match format {
            FileFormat::Fbin => stream_view(FbinReader::new(reader)?)?,
            FileFormat::Text => {
                let ds = read_dataset(reader)?;
                let view = MultiLevelView::build(&ds.db, &ds.taxonomy)?;
                (ds.taxonomy, view)
            }
        };
        Ok(Session::new(
            taxonomy,
            view,
            path.display().to_string(),
            None,
        ))
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
        let path = path.as_ref();
        let (format, reader) = crate::source::open(path)?;
        if format != FileFormat::Fbin {
            return Err(FlipperError::usage(format!(
                "salvage applies to FBIN files only, and {} is a text dataset \
                 (the text parser already reports the exact failing line)",
                path.display()
            )));
        }
        let _span = flipper_obs::span("session.ingest");
        let (taxonomy, view, report) = flipper_store::salvage_view(reader)?;
        Ok(Session::new(
            taxonomy,
            view,
            format!("fbin file {} (salvage)", path.display()),
            Some(report),
        ))
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

    /// Human-readable description of where the data came from.
    pub fn origin(&self) -> &str {
        &self.origin
    }

    /// Number of ingested transactions.
    pub fn num_transactions(&self) -> usize {
        self.view.num_transactions()
    }

    /// Mine flipping patterns under `cfg` against the cached view, reading
    /// and recording the session memo.
    ///
    /// Validates the configuration first ([`FlipperConfig::validate`]) so a
    /// malformed request surfaces as a typed [`FlipperError::Config`]
    /// instead of a panic deep inside the miner; a panic inside the run
    /// still surfaces as [`FlipperError::Panicked`].
    pub fn mine(&self, cfg: &FlipperConfig) -> Result<MiningResult, FlipperError> {
        self.mine_with(cfg, None)
    }

    /// [`mine`](Session::mine) under a [`CancelToken`]: the run checks the
    /// token at cell boundaries and stops early with
    /// [`FlipperError::Cancelled`] / [`FlipperError::Timeout`]. With a live
    /// token the result is bit-identical to [`mine`](Session::mine) — the
    /// guard adds one relaxed atomic load per cell.
    pub fn mine_guarded(
        &self,
        cfg: &FlipperConfig,
        token: &CancelToken,
    ) -> Result<MiningResult, FlipperError> {
        self.mine_with(cfg, Some(token))
    }

    fn mine_with(
        &self,
        cfg: &FlipperConfig,
        token: Option<&CancelToken>,
    ) -> Result<MiningResult, FlipperError> {
        cfg.validate()?;
        let run = mine_with_view(&self.taxonomy, &self.view, cfg, &self.memo, token);
        Ok(run?)
    }

    /// Stats of the session's reuse state, the memo of vertical
    /// enumerations: entries and estimated bytes resident, plus memo lookups
    /// (`seed_lookups`) and the ones it answered (`seed_hits`), summed over
    /// every mining call since the session opened or was last cleared.
    pub fn support_cache_stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Drop the session's reuse state — every recorded vertical
    /// enumeration in the memo — and reset its counters. Later mining
    /// calls start cold; their results are unchanged.
    pub fn clear_support_cache(&self) {
        self.memo.clear();
    }

    /// Top-K most-flipping search ([`flipper_core::topk`]) over the cached
    /// view and the session memo — works even when the session was
    /// ingested by streaming.
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
        top_k_with_view(&self.taxonomy, &self.view, cfg, &self.memo).map_err(|e| match e {
            TopKError::Config(_) => FlipperError::usage(e.to_string()),
            TopKError::Guard(e) => e.into(),
        })
    }

    /// Start building a parameter [`Sweep`] over this session.
    pub fn sweep(&self) -> Sweep<'_> {
        Sweep::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipper_core::MinSupports;
    use flipper_datagen::planted::PlantedParams;

    fn planted_session() -> (flipper_datagen::planted::PlantedData, Session) {
        let data = flipper_datagen::planted::generate(&PlantedParams::default());
        let session = Session::from_db(&data.taxonomy, &data.db).unwrap();
        (data, session)
    }

    /// A fresh scratch directory for one test.
    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("flipper-api-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn counts_cfg() -> FlipperConfig {
        FlipperConfig {
            min_support: MinSupports::Counts(vec![5]),
            ..Default::default()
        }
    }

    #[test]
    fn from_db_projects_the_borrowed_db() {
        let (data, session) = planted_session();
        assert_eq!(session.taxonomy(), &data.taxonomy);
        assert_eq!(
            session.view(),
            &MultiLevelView::build(&data.db, &data.taxonomy).unwrap()
        );
        assert!(session.origin().contains("in-memory"));
    }

    #[test]
    fn from_db_rejects_a_non_leaf_item_typed() {
        let tax = Taxonomy::from_edges([("a", ""), ("b", ""), ("a1", "a"), ("b1", "b")]).unwrap();
        let id = |name| tax.node_by_name(name).unwrap();
        let db =
            TransactionDb::new(vec![vec![id("a"), id("b1")], vec![id("a1"), id("b1")]]).unwrap();
        let err = Session::from_db(&tax, &db).unwrap_err();
        assert!(
            matches!(
                err,
                FlipperError::Data(flipper_data::DataError::NonLeafItem { txn: 0, item })
                    if item == id("a")
            ),
            "{err:?}"
        );
        assert_eq!(err.exit_code(), 1);
        let cause = std::error::Error::source(&err).unwrap().to_string();
        assert!(
            cause.contains("transaction 0") && cause.contains(&id("a").to_string()),
            "{cause}"
        );
    }

    #[test]
    fn mine_matches_single_shot_paths() {
        let (data, session) = planted_session();
        let cfg = counts_cfg();
        let via_session = session.mine(&cfg).unwrap();
        let fresh_view = MultiLevelView::build(&data.db, &data.taxonomy).unwrap();
        let via_mine = mine_with_view(
            &data.taxonomy,
            &fresh_view,
            &cfg,
            &VerticalMemo::new(),
            None,
        )
        .unwrap();
        let via_view = mine_with_view(
            &data.taxonomy,
            session.view(),
            &cfg,
            &VerticalMemo::new(),
            None,
        )
        .unwrap();
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

    /// The search counters a run's result determines: everything in
    /// [`flipper_core::RunStats`] but the cost of getting there.
    fn search(s: &flipper_core::RunStats) -> [u64; 12] {
        [
            s.candidates_generated,
            s.pruned_by_sibp,
            s.pruned_by_support,
            s.dead_parent_cells,
            s.frequent_found,
            s.positive_found,
            s.negative_found,
            s.cells_evaluated,
            s.tpg_cap,
            s.sibp_banned_items,
            s.peak_resident_itemsets,
            s.total_stored_itemsets,
        ]
    }

    #[test]
    fn seeded_sweep_matches_mine_and_replays_the_memo() {
        let (data, session) = planted_session();
        let fresh = || Session::from_db(&data.taxonomy, &data.db).unwrap();
        let point = |session: &Session, cfg: &FlipperConfig| {
            let mut runs = session.sweep().add("p", cfg.clone()).run().unwrap();
            runs.remove(0).result
        };
        // Cold: each call on a fresh session, so every counter matches.
        let cfg = counts_cfg();
        let plain = fresh().mine(&cfg).unwrap();
        let cold = point(&session, &cfg);
        assert_eq!(cold.patterns, plain.patterns);
        assert_eq!(cold.cells, plain.cells);
        assert_eq!(cold.stats.counter, plain.stats.counter);
        assert_eq!(search(&cold.stats), search(&plain.stats));
        assert_eq!(cold.stats.seeded_supports, 0, "memo starts empty");
        assert_eq!(plain.stats.seeded_supports, 0, "memo starts empty");
        assert!(session.support_cache_stats().entries > 0);

        // Warm: a sweep point and a mine on the session the cold point
        // filled replay its enumerations.
        for warm in [point(&session, &cfg), session.mine(&cfg).unwrap()] {
            assert_eq!(warm.patterns, plain.patterns);
            assert_eq!(warm.cells, plain.cells);
            assert_eq!(search(&warm.stats), search(&plain.stats));
            assert!(warm.stats.counter.intersections <= plain.stats.counter.intersections);
            assert!(
                warm.stats.seeded_supports > 0,
                "a warm run replays supports from the session memo"
            );
        }
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
            let warm_other = point(&session, &other);
            let cold_other = fresh().mine(&other).unwrap();
            assert_eq!(warm_other.patterns, cold_other.patterns);
            assert_eq!(warm_other.cells, cold_other.cells);
            assert_eq!(search(&warm_other.stats), search(&cold_other.stats));
        }
    }

    /// `Session::top_k` probes over the session memo: its later probes
    /// replay the first one's enumerations, and it finds what
    /// `top_k_with_view` over a fresh view and memo does.
    #[test]
    fn top_k_replays_across_its_probes() {
        let (data, session) = planted_session();
        let cfg = TopKConfig {
            k: 10,
            base: counts_cfg(),
            ..Default::default()
        };
        let via_session = session.top_k(&cfg).unwrap();
        assert!(via_session.runs >= 2, "the search must probe again");
        assert!(
            session.support_cache_stats().seed_hits > 0,
            "later probes replay the first one's enumerations"
        );
        let fresh_view = MultiLevelView::build(&data.db, &data.taxonomy).unwrap();
        let single_shot =
            top_k_with_view(&data.taxonomy, &fresh_view, &cfg, &VerticalMemo::new()).unwrap();
        assert_eq!(via_session.patterns, single_shot.patterns);
        assert_eq!(via_session.thresholds, single_shot.thresholds);
        assert_eq!(via_session.runs, single_shot.runs);

        let before = session.support_cache_stats().seed_hits;
        assert_eq!(session.top_k(&cfg).unwrap().patterns, single_shot.patterns);
        assert!(session.support_cache_stats().seed_hits > before);
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
        let dir = temp_dir("topk");
        let path = dir.join("planted.fbin");
        crate::io::write_path(&path, &data.into_dataset(), FileFormat::Fbin).unwrap();
        let session = Session::open_path(&path).unwrap();
        let r = session
            .top_k(&TopKConfig {
                k: 2,
                base: counts_cfg(),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(r.patterns.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
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
            assert!(err.to_string().contains("top-k search: "), "{err}");
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
        let dir = temp_dir("salvage");
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
}
