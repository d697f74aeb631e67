//! The one error type every fallible façade path returns.
//!
//! The pre-façade surface leaked a different error story per layer —
//! `FormatError` from the text parser, `StoreError` from FBIN,
//! `Result<_, String>` from the CLI. [`FlipperError`] unifies them: each
//! variant is either a typed wrapper around a layer error (preserving it via
//! [`std::error::Error::source`]) or one of the two façade-level categories,
//! configuration ([`FlipperError::Config`]) and caller misuse
//! ([`FlipperError::Usage`]). Frontends map variants to exit codes or HTTP
//! statuses with one `match` — no string inspection anywhere.

use flipper_core::ConfigError;
use flipper_data::format::FormatError;
use flipper_data::DataError;
use flipper_guard::GuardError;
use flipper_store::StoreError;
use flipper_taxonomy::TaxonomyError;
use std::error::Error;
use std::fmt;

/// Any failure of the flipper façade.
#[derive(Debug)]
pub enum FlipperError {
    /// Underlying I/O failure, with the path or operation it happened on.
    Io {
        /// What was being done (`"open data.fbin"`, `"write report.json"`).
        context: String,
        /// The operating-system error.
        source: std::io::Error,
    },
    /// Structural problem in a text dataset, with a 1-based line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// FBIN storage-layer failure (bad magic, truncation, bit rot, …).
    Store(StoreError),
    /// Taxonomy construction or validation failure.
    Taxonomy(TaxonomyError),
    /// Transaction-database construction failure.
    Data(DataError),
    /// The mining configuration violates an invariant.
    Config(ConfigError),
    /// The caller asked for something the API cannot do — a malformed flag,
    /// an unknown name, a request that needs state the session does not
    /// hold. CLIs conventionally map this to exit code 2.
    Usage(String),
    /// The run was cancelled through its
    /// [`CancelToken`](flipper_guard::CancelToken) before it finished.
    /// CLIs map this to exit code 3.
    Cancelled,
    /// The run's deadline expired before it finished. CLIs map this to
    /// exit code 3, like [`FlipperError::Cancelled`].
    Timeout,
    /// A worker or miner panicked and the panic was trapped at a named
    /// site instead of unwinding into (and aborting) the caller.
    Panicked {
        /// Where the panic was trapped: `"mine"`, the one trap around
        /// every mining run (plain, guarded, top-K probe or sweep point).
        site: String,
        /// The panic message.
        message: String,
    },
}

impl FlipperError {
    /// Build an [`FlipperError::Io`] with context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        FlipperError::Io {
            context: context.into(),
            source,
        }
    }

    /// Build an [`FlipperError::Usage`] from anything displayable.
    pub fn usage(message: impl Into<String>) -> Self {
        FlipperError::Usage(message.into())
    }

    /// The conventional process exit code for this error: `2` for usage
    /// errors (matching `grep`, `diff` and friends), `3` for interrupted
    /// runs ([`Cancelled`](FlipperError::Cancelled) /
    /// [`Timeout`](FlipperError::Timeout) — distinguishable from real
    /// failures, so timeout-wrapping scripts can retry), `1` for
    /// everything else (I/O, data, configuration, trapped panics).
    pub fn exit_code(&self) -> u8 {
        match self {
            FlipperError::Usage(_) => 2,
            FlipperError::Cancelled | FlipperError::Timeout => 3,
            _ => 1,
        }
    }

    /// Render `self` and its full [`source`](Error::source) chain, one
    /// `caused by:` line per link — the diagnostic format the CLI prints.
    pub fn render_chain(&self) -> String {
        let mut out = format!("error: {self}");
        let mut cause = self.source();
        while let Some(e) = cause {
            out.push_str(&format!("\n  caused by: {e}"));
            cause = e.source();
        }
        out
    }
}

impl fmt::Display for FlipperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlipperError::Io { context, source } => write!(f, "{context}: {source}"),
            FlipperError::Parse { line, message } => write!(f, "line {line}: {message}"),
            FlipperError::Store(_) => write!(f, "storage error"),
            FlipperError::Taxonomy(_) => write!(f, "taxonomy error"),
            FlipperError::Data(_) => write!(f, "data error"),
            FlipperError::Config(_) => write!(f, "invalid mining configuration"),
            FlipperError::Usage(message) => write!(f, "{message}"),
            FlipperError::Cancelled => write!(f, "operation cancelled"),
            FlipperError::Timeout => write!(f, "operation deadline exceeded"),
            FlipperError::Panicked { site, message } => {
                write!(f, "panic trapped at {site}: {message}")
            }
        }
    }
}

impl Error for FlipperError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlipperError::Io { source, .. } => Some(source),
            FlipperError::Store(e) => Some(e),
            FlipperError::Taxonomy(e) => Some(e),
            FlipperError::Data(e) => Some(e),
            FlipperError::Config(e) => Some(e),
            FlipperError::Parse { .. }
            | FlipperError::Usage(_)
            | FlipperError::Cancelled
            | FlipperError::Timeout
            | FlipperError::Panicked { .. } => None,
        }
    }
}

impl From<GuardError> for FlipperError {
    fn from(e: GuardError) -> Self {
        match e {
            GuardError::Cancelled => FlipperError::Cancelled,
            GuardError::TimedOut => FlipperError::Timeout,
            GuardError::Panicked { site, message } => FlipperError::Panicked { site, message },
        }
    }
}

impl From<StoreError> for FlipperError {
    fn from(e: StoreError) -> Self {
        FlipperError::Store(e)
    }
}

impl From<TaxonomyError> for FlipperError {
    fn from(e: TaxonomyError) -> Self {
        FlipperError::Taxonomy(e)
    }
}

impl From<DataError> for FlipperError {
    fn from(e: DataError) -> Self {
        FlipperError::Data(e)
    }
}

impl From<ConfigError> for FlipperError {
    fn from(e: ConfigError) -> Self {
        FlipperError::Config(e)
    }
}

impl From<FormatError> for FlipperError {
    fn from(e: FormatError) -> Self {
        match e {
            FormatError::Io(e) => FlipperError::io("reading text dataset", e),
            FormatError::Parse { line, message } => FlipperError::Parse { line, message },
            FormatError::Taxonomy(e) => FlipperError::Taxonomy(e),
            FormatError::Data(e) => FlipperError::Data(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_convention() {
        assert_eq!(FlipperError::usage("bad flag").exit_code(), 2);
        assert_eq!(
            FlipperError::io("open x", std::io::Error::other("gone")).exit_code(),
            1
        );
        assert_eq!(
            FlipperError::from(ConfigError::EmptySupports).exit_code(),
            1
        );
        assert_eq!(FlipperError::Cancelled.exit_code(), 3);
        assert_eq!(FlipperError::Timeout.exit_code(), 3);
        assert_eq!(
            FlipperError::Panicked {
                site: "mine".into(),
                message: "boom".into(),
            }
            .exit_code(),
            1
        );
    }

    #[test]
    fn guard_errors_map_by_variant() {
        let e: FlipperError = GuardError::Cancelled.into();
        assert!(matches!(e, FlipperError::Cancelled));
        assert_eq!(e.to_string(), "operation cancelled");
        assert!(e.source().is_none());

        let e: FlipperError = GuardError::TimedOut.into();
        assert!(matches!(e, FlipperError::Timeout));
        assert_eq!(e.to_string(), "operation deadline exceeded");

        let e: FlipperError = GuardError::Panicked {
            site: "mine".into(),
            message: "index out of bounds".into(),
        }
        .into();
        assert_eq!(e.to_string(), "panic trapped at mine: index out of bounds");
        assert_eq!(e.render_chain(), format!("error: {e}"));
    }

    #[test]
    fn source_chain_is_preserved() {
        let e = FlipperError::from(StoreError::BadMagic(*b"NOPE"));
        let chain = e.render_chain();
        assert!(chain.starts_with("error: storage error"));
        assert!(chain.contains("caused by:"));
        assert!(chain.contains("FBIN"), "inner error surfaces: {chain}");

        let e = FlipperError::usage("unknown subcommand");
        assert!(e.source().is_none());
        assert_eq!(e.render_chain(), "error: unknown subcommand");
    }

    #[test]
    fn format_errors_map_by_variant() {
        let e: FlipperError = FormatError::Parse {
            line: 7,
            message: "bad".into(),
        }
        .into();
        assert!(matches!(e, FlipperError::Parse { line: 7, .. }));
        assert_eq!(e.to_string(), "line 7: bad");

        let e: FlipperError = FormatError::Io(std::io::Error::other("disk")).into();
        assert!(matches!(e, FlipperError::Io { .. }));
        assert!(e.render_chain().contains("disk"));
    }

    #[test]
    fn config_errors_read_well() {
        let e: FlipperError = ConfigError::BadSupportFraction(1.5).into();
        let chain = e.render_chain();
        assert!(chain.contains("invalid mining configuration"));
        assert!(chain.contains("1.5"));
    }
}
