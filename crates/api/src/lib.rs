//! # flipper-api
//!
//! The unified session façade for flipping-correlation mining — the one
//! public surface the CLI, the examples, the benches and future server
//! frontends all sit on. Four ideas:
//!
//! * **Typed sources** ([`DataSource`]): text files, FBIN files and streams
//!   (auto-detected by magic bytes, streamed chunk by chunk), in-memory
//!   [`Dataset`]s and the five [`Generator`]s all funnel into one ingestion
//!   path.
//! * **Sessions** ([`Session`]): ingest a source *once* into a cached
//!   [`MultiLevelView`](flipper_data::MultiLevelView), then run any number
//!   of [`FlipperConfig`]s against it — each result bit-identical to the
//!   single-shot [`flipper_core::mine`] / [`flipper_core::mine_with_view`]
//!   paths.
//! * **Sweeps** ([`Sweep`]): γ/ε grids and pruning-variant comparisons as
//!   first-class labeled run sets, sharded over `flipper_data::exec`
//!   workers.
//! * **Typed errors and sinks**: every fallible path returns
//!   [`FlipperError`] (with [`source`](std::error::Error::source) chains
//!   down to the failing layer); results flow into pluggable
//!   [`ResultSink`]s — human-readable [`TextReport`], machine-readable
//!   [`JsonWriter`] (`flipper-results/v1`), accumulating [`TopK`].
//!
//! ```
//! use flipper_api::{Generator, Session, FlipperConfig, MinSupports, Thresholds, JsonWriter, ResultSink};
//! use flipper_datagen::planted::PlantedParams;
//!
//! // Open a session (ingest once)…
//! let session = Session::open(Generator::Planted(PlantedParams::default()))?;
//! let base = FlipperConfig {
//!     thresholds: Thresholds::new(0.6, 0.35), // the planted calibration
//!     min_support: MinSupports::Counts(vec![5]),
//!     ..Default::default()
//! };
//! // …mine it…
//! let result = session.mine(&base)?;
//! assert!(!result.patterns.is_empty());
//! // …sweep a γ/ε grid over the same cached view…
//! let runs = session
//!     .sweep()
//!     .thresholds_grid(&base, &[0.5, 0.4], &[0.2, 0.1])
//!     .run()?;
//! assert_eq!(runs.len(), 4);
//! // …and sink everything to machine-readable JSON.
//! let mut json = JsonWriter::new(Vec::new());
//! flipper_api::emit_runs(&mut json, session.taxonomy(), &runs)?;
//! # Ok::<(), flipper_api::FlipperError>(())
//! ```

mod checkpoint;
mod error;
pub mod io;
mod session;
mod sink;
mod source;
mod sweep;

pub use checkpoint::{CheckpointRow, SweepJournal};
pub use error::FlipperError;
pub use session::Session;
pub use sink::{emit_runs, JsonWriter, ResultSink, TextReport, TopK, TopKEntry};
pub use source::{DataSource, FbinSource, Generator, Ingested, PathSource, TextSource};
pub use sweep::{threshold_point, Sweep, SweepOutcome, SweepRun};

// Re-exported conveniences: the types a façade caller needs to configure a
// run and read its results, so frontends depend on `flipper-api` alone.
pub use flipper_core::stability::StabilityReport;
pub use flipper_core::topk::{SearchConfigError, TopKConfig, TopKResult};
pub use flipper_core::{
    ChainError, ConfigError, FlipperConfig, FlippingPattern, MinSupports, MiningResult,
    PruningConfig, RunStats,
};
pub use flipper_data::format::Dataset;
pub use flipper_data::{stats, CacheStats};
pub use flipper_datagen::planted::PlantedParams;
pub use flipper_datagen::quest::QuestParams;
pub use flipper_guard::{CancelToken, GuardError};
pub use flipper_measures::{Measure, Thresholds};
pub use flipper_store::{QuarantinedChunk, SalvageReport};
pub use flipper_taxonomy::{RebalancePolicy, Taxonomy};
