//! # flipper-api
//!
//! The unified session façade for flipping-correlation mining — the one
//! public surface the CLI, the examples, the benches and future server
//! frontends all sit on. Four ideas:
//!
//! * **One way in**: a [`Session`] opens on a dataset file
//!   ([`Session::open_path`]: text or FBIN, told apart by magic bytes, FBIN
//!   streamed chunk by chunk), on a damaged FBIN file
//!   ([`Session::open_salvage_path`]), or on an in-memory database over a
//!   taxonomy's leaves ([`Session::from_db`]).
//! * **Sessions** ([`Session`]): ingest a dataset *once* into a cached
//!   [`MultiLevelView`], then run any number of [`FlipperConfig`]s against
//!   it through [`flipper_core::mine_with_view`], the one mining call —
//!   each result bit-identical to a run on a fresh session.
//! * **Sweeps** ([`Sweep`]): γ/ε grids and pruning-variant comparisons as
//!   first-class labeled run sets, mined one after another so each point
//!   replays the vertical enumerations of the points before it.
//! * **Typed errors and sinks**: every fallible path returns
//!   [`FlipperError`] (with [`source`](std::error::Error::source) chains
//!   down to the failing layer), and every mining call reaches the miner
//!   through [`flipper_core::mine_with_view`], so a panic inside a run
//!   returns as [`FlipperError::Panicked`] instead of unwinding; results
//!   flow into pluggable [`ResultSink`]s — human-readable [`TextReport`]
//!   and machine-readable [`JsonWriter`] (`flipper-results/v1`, strings
//!   quoted by [`flipper_wire::json`]).
//!
//! ```
//! use flipper_api::{Session, FlipperConfig, MinSupports, Thresholds, JsonWriter, ResultSink};
//! use flipper_datagen::planted::{self, PlantedParams};
//!
//! // Open a session (ingest once)…
//! let data = planted::generate(&PlantedParams::default());
//! let session = Session::from_db(&data.taxonomy, &data.db)?;
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

mod error;
pub mod io;
mod session;
mod sink;
mod source;
mod sweep;

pub use error::FlipperError;
pub use session::Session;
pub use sink::{emit_runs, JsonWriter, ResultSink, TextReport};
pub use sweep::{threshold_point, Sweep, SweepRun};

// Re-exported conveniences: the types a façade caller needs to configure a
// run and read its results, so frontends depend on `flipper-api` alone.
pub use flipper_core::topk::{SearchConfigError, TopKConfig, TopKResult};
pub use flipper_core::{
    ChainError, ConfigError, FlipperConfig, FlippingPattern, MinSupports, MiningResult,
    PruningConfig, RunStats,
};
pub use flipper_data::format::Dataset;
pub use flipper_data::{stats, CacheStats, MultiLevelView};
pub use flipper_datagen::planted::PlantedParams;
pub use flipper_datagen::quest::QuestParams;
pub use flipper_guard::{CancelToken, GuardError};
pub use flipper_measures::{Measure, Thresholds};
pub use flipper_store::{QuarantinedChunk, SalvageReport};
pub use flipper_taxonomy::Taxonomy;
