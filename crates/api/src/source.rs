//! Typed data sources: everything a [`Session`](crate::Session) can ingest.
//!
//! A [`DataSource`] funnels one dataset — wherever it lives — into the one
//! ingestion path the whole stack shares: a [`Taxonomy`] plus a
//! mining-ready [`MultiLevelView`]. File paths are sniffed by magic bytes
//! (FBIN binary vs text interchange), FBIN inputs stream chunk by chunk
//! without ever materializing the raw database, and the five dataset
//! generators plug in through [`Generator`]. A source that materializes a
//! [`TransactionDb`] projects it into the view and drops it; borrowed
//! sources project the caller's database in place.

use crate::error::FlipperError;
use flipper_data::format::{read_dataset, Dataset};
use flipper_data::{MultiLevelView, TransactionDb};
use flipper_datagen::planted::{self, PlantedData, PlantedParams};
use flipper_datagen::quest::{self, QuestData, QuestParams};
use flipper_datagen::surrogate::{self, SurrogateData};
use flipper_store::{stream_view, FbinReader};
use flipper_taxonomy::Taxonomy;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

/// The product of ingesting a [`DataSource`]: everything a session caches.
#[derive(Debug)]
pub struct Ingested {
    /// The dataset taxonomy.
    pub taxonomy: Taxonomy,
    /// The multi-level projection the miner runs against.
    pub view: MultiLevelView,
    /// Human-readable description of where the data came from.
    pub origin: String,
}

/// Anything a [`Session`](crate::Session) can ingest exactly once.
///
/// `ingest` consumes the source: a streamed reader can only be read once,
/// and consuming uniformly keeps the contract honest for every impl.
/// Borrowed impls (`&Dataset`, `&SurrogateData`, …) exist for callers that
/// need to keep the original around — they project the borrowed database
/// and clone only the taxonomy, the one part the session must own.
pub trait DataSource {
    /// Human-readable description of the source, used in reports.
    fn describe(&self) -> String;

    /// Ingest into a taxonomy + view.
    fn ingest(self) -> Result<Ingested, FlipperError>
    where
        Self: Sized;
}

/// Build an [`Ingested`] from a materialized database.
fn ingest_dataset(taxonomy: Taxonomy, db: &TransactionDb, origin: String) -> Ingested {
    let view = MultiLevelView::build(db, &taxonomy);
    Ingested {
        taxonomy,
        view,
        origin,
    }
}

/// A dataset file on disk, format-sniffed by magic bytes: FBIN files are
/// streamed chunk by chunk through the `flipper-store` reader, anything
/// else goes through the text parser.
#[derive(Debug, Clone)]
pub struct PathSource {
    path: PathBuf,
}

impl PathSource {
    /// Source the file at `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        PathSource { path: path.into() }
    }

    /// The underlying path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl DataSource for PathSource {
    fn describe(&self) -> String {
        self.path.display().to_string()
    }

    fn ingest(self) -> Result<Ingested, FlipperError> {
        let origin = self.describe();
        let open = |path: &Path| {
            std::fs::File::open(path)
                .map_err(|e| FlipperError::io(format!("open {}", path.display()), e))
        };
        match crate::io::detect_format(&self.path)? {
            crate::io::FileFormat::Fbin => {
                let reader = FbinReader::new(BufReader::new(open(&self.path)?))?;
                let (taxonomy, view) = stream_view(reader)?;
                Ok(Ingested {
                    taxonomy,
                    view,
                    origin,
                })
            }
            crate::io::FileFormat::Text => {
                let ds = read_dataset(BufReader::new(open(&self.path)?))?;
                Ok(ingest_dataset(ds.taxonomy, &ds.db, origin))
            }
        }
    }
}

/// A text-format dataset from any buffered reader.
#[derive(Debug)]
pub struct TextSource<R> {
    reader: R,
}

impl<R: BufRead> TextSource<R> {
    /// Source the text dataset behind `reader`.
    pub fn new(reader: R) -> Self {
        TextSource { reader }
    }
}

impl<R: BufRead> DataSource for TextSource<R> {
    fn describe(&self) -> String {
        "text stream".to_string()
    }

    fn ingest(self) -> Result<Ingested, FlipperError> {
        let origin = self.describe();
        let ds = read_dataset(self.reader)?;
        Ok(ingest_dataset(ds.taxonomy, &ds.db, origin))
    }
}

/// An FBIN binary dataset from any reader, ingested by streaming: chunks
/// are decoded and projected one at a time, the raw database never exists
/// in memory.
#[derive(Debug)]
pub struct FbinSource<R> {
    reader: R,
}

impl<R: Read> FbinSource<R> {
    /// Source the FBIN stream behind `reader`.
    pub fn new(reader: R) -> Self {
        FbinSource { reader }
    }
}

impl<R: Read> DataSource for FbinSource<R> {
    fn describe(&self) -> String {
        "fbin stream".to_string()
    }

    fn ingest(self) -> Result<Ingested, FlipperError> {
        let origin = self.describe();
        let reader = FbinReader::new(self.reader)?;
        let (taxonomy, view) = stream_view(reader)?;
        Ok(Ingested {
            taxonomy,
            view,
            origin,
        })
    }
}

impl DataSource for Dataset {
    fn describe(&self) -> String {
        format!(
            "in-memory dataset ({} transactions, {} nodes)",
            self.db.len(),
            self.taxonomy.node_count()
        )
    }

    fn ingest(self) -> Result<Ingested, FlipperError> {
        let origin = self.describe();
        Ok(ingest_dataset(self.taxonomy, &self.db, origin))
    }
}

impl DataSource for &Dataset {
    fn describe(&self) -> String {
        Dataset::describe(self)
    }

    fn ingest(self) -> Result<Ingested, FlipperError> {
        let origin = self.describe();
        Ok(ingest_dataset(self.taxonomy.clone(), &self.db, origin))
    }
}

impl DataSource for (Taxonomy, TransactionDb) {
    fn describe(&self) -> String {
        format!(
            "in-memory dataset ({} transactions, {} nodes)",
            self.1.len(),
            self.0.node_count()
        )
    }

    fn ingest(self) -> Result<Ingested, FlipperError> {
        Dataset {
            taxonomy: self.0,
            db: self.1,
        }
        .ingest()
    }
}

macro_rules! borrow_datagen_source {
    ($ty:ty, $label:expr) => {
        impl DataSource for &$ty {
            fn describe(&self) -> String {
                format!("{} ({} transactions)", $label, self.db.len())
            }

            fn ingest(self) -> Result<Ingested, FlipperError> {
                let origin = self.describe();
                Ok(ingest_dataset(self.taxonomy.clone(), &self.db, origin))
            }
        }
    };
}

borrow_datagen_source!(SurrogateData, "surrogate");
borrow_datagen_source!(QuestData, "quest");
borrow_datagen_source!(PlantedData, "planted");

/// The five dataset generators of `flipper-datagen`, packaged as a source:
/// generating and ingesting are one step, so a benchmark or test can open a
/// session on synthetic data in one line.
#[derive(Debug, Clone)]
pub enum Generator {
    /// The Srikant–Agrawal synthetic generator (§5.1 performance study).
    Quest(QuestParams),
    /// Ground-truth datasets with provable planted flipping patterns.
    Planted(PlantedParams),
    /// The GROCERIES surrogate (§5.2, Fig. 10).
    Groceries {
        /// RNG seed.
        seed: u64,
    },
    /// The CENSUS surrogate (§5.2, Fig. 11).
    Census {
        /// RNG seed.
        seed: u64,
    },
    /// The MEDLINE surrogate (§5.2, Fig. 12) at `scale` of the paper's
    /// 640K-citation working set.
    Medline {
        /// Fraction of the full corpus size (1.0 ≈ 640K citations).
        scale: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl Generator {
    /// Short name of the generator kind, as used by `flipper generate`.
    pub fn name(&self) -> &'static str {
        match self {
            Generator::Quest(_) => "quest",
            Generator::Planted(_) => "planted",
            Generator::Groceries { .. } => "groceries",
            Generator::Census { .. } => "census",
            Generator::Medline { .. } => "medline",
        }
    }

    /// Run the generator and package the output as an interchange
    /// [`Dataset`] (ground-truth metadata dropped).
    pub fn dataset(&self) -> Dataset {
        match self {
            Generator::Quest(params) => quest::generate(params).into_dataset(),
            Generator::Planted(params) => planted::generate(params).into_dataset(),
            Generator::Groceries { seed } => surrogate::groceries(*seed).into_dataset(),
            Generator::Census { seed } => surrogate::census(*seed).into_dataset(),
            Generator::Medline { scale, seed } => surrogate::medline(*scale, *seed).into_dataset(),
        }
    }
}

impl DataSource for Generator {
    fn describe(&self) -> String {
        format!("generator:{}", self.name())
    }

    fn ingest(self) -> Result<Ingested, FlipperError> {
        let origin = self.describe();
        let ds = self.dataset();
        Ok(ingest_dataset(ds.taxonomy, &ds.db, origin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipper_data::format::write_dataset;
    use flipper_store::to_fbin_bytes;

    fn toy() -> Dataset {
        Generator::Planted(PlantedParams::default()).dataset()
    }

    #[test]
    fn dataset_and_tuple_sources_materialize_the_db() {
        let ds = toy();
        let ing = (&ds).ingest().unwrap();
        assert_eq!(ing.taxonomy, ds.taxonomy);
        assert_eq!(ing.view, MultiLevelView::build(&ds.db, &ds.taxonomy));
        let ing2 = (ds.taxonomy.clone(), ds.db.clone()).ingest().unwrap();
        assert_eq!(ing2.view, ing.view);
        assert!(ing.origin.contains("in-memory"));
    }

    #[test]
    fn text_and_fbin_streams_agree_with_memory() {
        let ds = toy();
        let reference = MultiLevelView::build(&ds.db, &ds.taxonomy);

        let mut text = Vec::new();
        write_dataset(&mut text, &ds).unwrap();
        let ing = TextSource::new(&text[..]).ingest().unwrap();
        assert_eq!(ing.view, reference);

        let fbin = to_fbin_bytes(&ds).unwrap();
        let ing = FbinSource::new(&fbin[..]).ingest().unwrap();
        assert_eq!(ing.view, reference);
    }

    #[test]
    fn path_source_sniffs_magic_bytes() {
        let dir = std::env::temp_dir().join(format!("flipper-api-src-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds = toy();
        let reference = MultiLevelView::build(&ds.db, &ds.taxonomy);

        let text_path = dir.join("toy.txt");
        let mut text = Vec::new();
        write_dataset(&mut text, &ds).unwrap();
        std::fs::write(&text_path, &text).unwrap();
        // The extension lies on purpose: detection is by content.
        let fbin_path = dir.join("toy.txt.actually-fbin");
        std::fs::write(&fbin_path, to_fbin_bytes(&ds).unwrap()).unwrap();

        let ing = PathSource::new(&text_path).ingest().unwrap();
        assert_eq!(ing.view, reference);
        let ing = PathSource::new(&fbin_path).ingest().unwrap();
        assert_eq!(ing.view, reference);

        let err = PathSource::new(dir.join("missing")).ingest().unwrap_err();
        assert!(matches!(err, FlipperError::Io { .. }));
        assert!(err.to_string().contains("open"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generators_ingest_and_name_themselves() {
        for generator in [
            Generator::Planted(PlantedParams::default()),
            Generator::Quest(QuestParams::default().with_transactions(50)),
            Generator::Groceries { seed: 1 },
        ] {
            let name = generator.name();
            let ing = generator.ingest().unwrap();
            assert!(ing.origin.contains(name));
            assert!(ing.view.num_transactions() > 0, "{name}");
        }
        assert_eq!(Generator::Census { seed: 1 }.name(), "census");
        assert_eq!(
            Generator::Medline {
                scale: 0.01,
                seed: 1
            }
            .name(),
            "medline"
        );
    }
}
