//! Dataset file I/O: generation, format detection, loading and writing.
//!
//! [`Session`](crate::Session) covers the mining path; this module covers
//! the dataset-shuffling paths around it (`flipper generate`, `flipper
//! convert`, `flipper stats`): run one of the five [`Generator`]s, sniff a
//! file's format by magic bytes, load a full [`Dataset`] from either
//! format, write one in either format. All errors are [`FlipperError`]s.

use crate::error::FlipperError;
use flipper_data::format::{read_dataset, write_dataset, Dataset};
use flipper_datagen::planted::{self, PlantedParams};
use flipper_datagen::quest::{self, QuestParams};
use flipper_datagen::surrogate;
use flipper_store::write_fbin;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// The five dataset generators of `flipper-datagen`, as `flipper generate`
/// names them.
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

/// The two on-disk dataset formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileFormat {
    /// The line-oriented text interchange format (`flipper_data::format`).
    Text,
    /// The FBIN chunked columnar binary format (`flipper-store`).
    Fbin,
}

impl FileFormat {
    /// Short name (`text` / `fbin`).
    pub fn name(self) -> &'static str {
        match self {
            FileFormat::Text => "text",
            FileFormat::Fbin => "fbin",
        }
    }

    /// Parse a format name as used by CLI flags.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "text" => Some(FileFormat::Text),
            "fbin" => Some(FileFormat::Fbin),
            _ => None,
        }
    }

    /// The format a `.fbin` extension implies (FBIN), defaulting to text.
    pub fn from_extension(path: &Path) -> Self {
        if path.extension().is_some_and(|e| e == "fbin") {
            FileFormat::Fbin
        } else {
            FileFormat::Text
        }
    }
}

/// Sniff a dataset file's format by its magic bytes.
pub fn detect_format(path: impl AsRef<Path>) -> Result<FileFormat, FlipperError> {
    Ok(crate::source::open(path.as_ref())?.0)
}

/// Load a full [`Dataset`] from `path`, auto-detecting the format by magic
/// bytes — a binary file handed to a text-era script still loads instead of
/// dying with a line-1 parse error (and vice versa).
pub fn load_path(path: impl AsRef<Path>) -> Result<Dataset, FlipperError> {
    match crate::source::open(path.as_ref())? {
        (FileFormat::Fbin, reader) => Ok(flipper_store::read_fbin(reader)?),
        (FileFormat::Text, reader) => Ok(read_dataset(reader)?),
    }
}

/// Write `ds` into `w` in `format`.
pub fn write_to<W: Write>(w: &mut W, ds: &Dataset, format: FileFormat) -> Result<(), FlipperError> {
    match format {
        // The blanket FormatError conversion labels I/O failures as read
        // errors (every other conversion site is a reader); this is the
        // one write path, so restore the correct direction.
        FileFormat::Text => write_dataset(w, ds).map_err(|e| match e {
            flipper_data::format::FormatError::Io(io) => {
                FlipperError::io("writing text dataset", io)
            }
            other => other.into(),
        })?,
        FileFormat::Fbin => write_fbin(w, ds)?,
    }
    Ok(())
}

/// Write `ds` to the file at `path` in `format` (buffered, flushed).
pub fn write_path(
    path: impl AsRef<Path>,
    ds: &Dataset,
    format: FileFormat,
) -> Result<(), FlipperError> {
    let path = path.as_ref();
    let file = File::create(path)
        .map_err(|e| FlipperError::io(format!("create {}", path.display()), e))?;
    let mut w = BufWriter::new(file);
    write_to(&mut w, ds, format)?;
    w.flush()
        .map_err(|e| FlipperError::io(format!("write {}", path.display()), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_names_parse_and_extensions_default() {
        assert_eq!(FileFormat::parse("text"), Some(FileFormat::Text));
        assert_eq!(FileFormat::parse("fbin"), Some(FileFormat::Fbin));
        assert_eq!(FileFormat::parse("parquet"), None);
        assert_eq!(
            FileFormat::from_extension(Path::new("x.fbin")),
            FileFormat::Fbin
        );
        assert_eq!(
            FileFormat::from_extension(Path::new("x.txt")),
            FileFormat::Text
        );
        assert_eq!(FileFormat::Text.name(), "text");
        assert_eq!(FileFormat::Fbin.name(), "fbin");
    }

    #[test]
    fn roundtrip_both_formats_by_detection() {
        let dir = std::env::temp_dir().join(format!("flipper-api-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds = Generator::Planted(PlantedParams::default()).dataset();
        for format in [FileFormat::Text, FileFormat::Fbin] {
            let path = dir.join(format!("toy-{}", format.name()));
            write_path(&path, &ds, format).unwrap();
            assert_eq!(detect_format(&path).unwrap(), format);
            let back = load_path(&path).unwrap();
            assert_eq!(back.taxonomy, ds.taxonomy);
            assert_eq!(back.db, ds.db);
        }
        let err = load_path(dir.join("missing")).unwrap_err();
        assert!(matches!(err, FlipperError::Io { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generators_generate_and_name_themselves() {
        for (generator, name) in [
            (Generator::Planted(PlantedParams::default()), "planted"),
            (
                Generator::Quest(QuestParams::default().with_transactions(50)),
                "quest",
            ),
            (Generator::Groceries { seed: 1 }, "groceries"),
        ] {
            assert_eq!(generator.name(), name);
            assert!(!generator.dataset().db.is_empty(), "{name}");
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
