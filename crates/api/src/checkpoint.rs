//! Sweep checkpoint journals: a killed sweep resumes instead of restarting.
//!
//! A long γ/ε grid over a large dataset can run for hours; losing the whole
//! sweep to a timeout, an operator Ctrl-C or an OOM kill at point 97 of 100
//! is the kind of non-robustness this crate exists to remove. A
//! [`SweepJournal`] is an append-only text file recording one line per
//! **completed** grid point; re-running the same sweep against the same
//! journal skips every recorded point and mines only the remainder.
//!
//! # The `flipper-sweep-ckpt/v1` format
//!
//! ```text
//! flipper-sweep-ckpt/v1
//! fingerprint <origin>#<transactions>
//! <key> <patterns> <positive> <negative> <candidates> <label>
//! <key> <patterns> <positive> <negative> <candidates> <label>
//! ```
//!
//! * `fingerprint` ties the journal to one dataset (ingestion origin plus
//!   transaction count); resuming against a different dataset is a
//!   [`FlipperError::Usage`], not a silently wrong merge.
//! * `key` is a 16-hex-digit FNV-1a hash over the point's label and its
//!   result-determining configuration fields — the same fields sweep
//!   deduplication keys on — so a point is only ever skipped when both its
//!   label and its exact configuration already completed.
//! * The remaining columns are the point's summary (pattern/positive/
//!   negative counts and candidates generated); the label comes last and
//!   may contain spaces. Restored points surface these summaries — the
//!   journal deliberately does not persist full [`MiningResult`]s, which
//!   would turn a crash-recovery aid into a second results format.
//!
//! Lines are appended under a mutex and flushed per point, so a sweep
//! killed mid-run loses at most the point in flight. A sweep mines its
//! points one after another in submission order, so **line order and line
//! content are both deterministic**: the mined points first, then the
//! duplicates that reused their results. A torn final
//! line (the kill landed mid-append) is skipped on load — exactly the
//! graceful-degradation stance the FBIN salvage reader takes.
//!
//! [`MiningResult`]: flipper_core::MiningResult

use crate::error::FlipperError;
use crate::session::Session;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// First line of every journal file.
const JOURNAL_MAGIC: &str = flipper_wire::SWEEP_CKPT_V1;

/// Summary of one completed sweep point, as persisted in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRow {
    /// The point's label.
    pub label: String,
    /// Number of flipping patterns the point found.
    pub patterns: u64,
    /// Total positively-correlated chain levels across its patterns.
    pub positive: u64,
    /// Total negatively-correlated chain levels across its patterns.
    pub negative: u64,
    /// Candidates the run generated (a proxy for the work skipped).
    pub candidates: u64,
}

/// FNV-1a point identity: label plus the result-determining configuration
/// key, so two points collide only when rerunning one would reproduce the
/// other byte for byte.
pub(crate) fn point_key(label: &str, result_key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label
        .bytes()
        .chain(std::iter::once(0))
        .chain(result_key.bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The dataset identity a journal is valid for.
fn fingerprint(session: &Session) -> String {
    format!("{}#{}", session.origin(), session.num_transactions())
}

fn journal_err(path: &Path, e: std::io::Error) -> FlipperError {
    FlipperError::io(format!("checkpoint journal {}", path.display()), e)
}

/// An append-only journal of completed sweep points. Open one against a
/// session and pass it to
/// [`Sweep::run_checkpointed`](crate::Sweep::run_checkpointed); see the
/// module docs for the file format and crash semantics.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    done: BTreeMap<u64, CheckpointRow>,
    out: Mutex<File>,
}

impl SweepJournal {
    /// Open (or create) the journal at `path` for sweeps over `session`.
    ///
    /// A fresh path starts an empty journal. An existing file is loaded —
    /// its recorded points will be skipped by the next checkpointed sweep —
    /// after verifying the header and that its fingerprint matches this
    /// session's dataset ([`FlipperError::Usage`] otherwise).
    pub fn open(path: impl Into<PathBuf>, session: &Session) -> Result<SweepJournal, FlipperError> {
        let path = path.into();
        let fp = fingerprint(session);
        let mut done = BTreeMap::new();
        if path.exists() {
            let file = File::open(&path).map_err(|e| journal_err(&path, e))?;
            let mut lines = BufReader::new(file).lines();
            let header = lines
                .next()
                .transpose()
                .map_err(|e| journal_err(&path, e))?
                .unwrap_or_default();
            if header != JOURNAL_MAGIC {
                return Err(FlipperError::usage(format!(
                    "{} is not a sweep checkpoint journal (expected a {JOURNAL_MAGIC} header)",
                    path.display()
                )));
            }
            let fp_line = lines
                .next()
                .transpose()
                .map_err(|e| journal_err(&path, e))?
                .unwrap_or_default();
            let theirs = fp_line.strip_prefix("fingerprint ").unwrap_or("");
            if theirs != fp {
                return Err(FlipperError::usage(format!(
                    "checkpoint journal {} was written for a different dataset \
                     ({theirs}) than this session ({fp}); use a fresh journal path",
                    path.display()
                )));
            }
            for line in lines {
                let line = line.map_err(|e| journal_err(&path, e))?;
                // A torn trailing line (killed mid-append) parses as None
                // and is dropped: that point simply re-mines.
                if let Some((key, row)) = parse_row(&line) {
                    done.insert(key, row);
                }
            }
            let out = OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(|e| journal_err(&path, e))?;
            Ok(SweepJournal {
                path,
                done,
                out: Mutex::new(out),
            })
        } else {
            let mut out = File::create(&path).map_err(|e| journal_err(&path, e))?;
            out.write_all(format!("{JOURNAL_MAGIC}\nfingerprint {fp}\n").as_bytes())
                .and_then(|()| out.flush())
                .map_err(|e| journal_err(&path, e))?;
            Ok(SweepJournal {
                path,
                done,
                out: Mutex::new(out),
            })
        }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of completed points currently recorded.
    pub fn completed_points(&self) -> usize {
        self.done.len()
    }

    /// The recorded summary for `key`, when that point already completed.
    pub(crate) fn completed(&self, key: u64) -> Option<&CheckpointRow> {
        self.done.get(&key)
    }

    /// Append one completed point and flush, so the record survives a kill
    /// that lands right after it.
    pub(crate) fn record(&self, key: u64, row: &CheckpointRow) -> Result<(), FlipperError> {
        let line = format!(
            "{key:016x} {} {} {} {} {}\n",
            row.patterns, row.positive, row.negative, row.candidates, row.label
        );
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        out.write_all(line.as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| journal_err(&self.path, e))
    }
}

/// Parse one journal row; `None` for torn or malformed lines.
fn parse_row(line: &str) -> Option<(u64, CheckpointRow)> {
    let mut fields = line.splitn(6, ' ');
    let key = u64::from_str_radix(fields.next()?, 16).ok()?;
    let patterns = fields.next()?.parse().ok()?;
    let positive = fields.next()?.parse().ok()?;
    let negative = fields.next()?.parse().ok()?;
    let candidates = fields.next()?.parse().ok()?;
    let label = fields.next()?;
    Some((
        key,
        CheckpointRow {
            label: label.to_string(),
            patterns,
            positive,
            negative,
            candidates,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipper_datagen::planted::PlantedParams;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flipper-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn session() -> Session {
        let data = flipper_datagen::planted::generate(&PlantedParams::default());
        Session::from_db(&data.taxonomy, &data.db).unwrap()
    }

    #[test]
    fn rows_round_trip_through_the_file() {
        let path = temp_path("roundtrip.ckpt");
        let _ = std::fs::remove_file(&path);
        let s = session();
        let journal = SweepJournal::open(&path, &s).unwrap();
        assert_eq!(journal.completed_points(), 0);
        let row = CheckpointRow {
            label: "g0.5/e0.1 with spaces".to_string(),
            patterns: 3,
            positive: 7,
            negative: 5,
            candidates: 91,
        };
        let key = point_key(&row.label, "some-config-key");
        journal.record(key, &row).unwrap();
        drop(journal);

        let reopened = SweepJournal::open(&path, &s).unwrap();
        assert_eq!(reopened.completed_points(), 1);
        assert_eq!(reopened.completed(key), Some(&row));
        assert_eq!(reopened.completed(key ^ 1), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_lines_are_dropped_not_fatal() {
        let path = temp_path("torn.ckpt");
        let _ = std::fs::remove_file(&path);
        let s = session();
        let journal = SweepJournal::open(&path, &s).unwrap();
        let row = CheckpointRow {
            label: "ok".to_string(),
            patterns: 1,
            positive: 2,
            negative: 1,
            candidates: 10,
        };
        journal.record(7, &row).unwrap();
        drop(journal);
        // Simulate a kill mid-append: half a line at the end.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"00000000000000ff 4 2");
        std::fs::write(&path, &bytes).unwrap();

        let reopened = SweepJournal::open(&path, &s).unwrap();
        assert_eq!(reopened.completed_points(), 1);
        assert_eq!(reopened.completed(7), Some(&row));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_header_or_dataset_is_a_usage_error() {
        let s = session();
        let path = temp_path("not-a-journal.ckpt");
        std::fs::write(&path, "something else\n").unwrap();
        let err = SweepJournal::open(&path, &s).unwrap_err();
        assert!(matches!(err, FlipperError::Usage(_)), "{err}");

        let path = temp_path("other-dataset.ckpt");
        std::fs::write(
            &path,
            format!("{JOURNAL_MAGIC}\nfingerprint other-data#999\n"),
        )
        .unwrap();
        let err = SweepJournal::open(&path, &s).unwrap_err();
        assert!(matches!(err, FlipperError::Usage(_)), "{err}");
        assert!(err.to_string().contains("different dataset"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn point_keys_separate_label_from_config() {
        // The NUL separator means ("ab", "c") and ("a", "bc") differ.
        assert_ne!(point_key("ab", "c"), point_key("a", "bc"));
        assert_ne!(point_key("x", "k1"), point_key("x", "k2"));
        assert_eq!(point_key("x", "k1"), point_key("x", "k1"));
    }
}
