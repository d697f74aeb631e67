//! Dataset file I/O: format detection, loading and writing.
//!
//! [`Session`](crate::Session) covers the mining path; this module covers
//! the dataset-shuffling paths around it (`flipper generate`, `flipper
//! convert`, `flipper stats`): sniff a file's format by magic bytes, load a
//! full [`Dataset`] from either format, write one in either format. All
//! errors are [`FlipperError`]s.

use crate::error::FlipperError;
use flipper_data::format::{read_dataset, write_dataset, Dataset};
use flipper_store::write_fbin;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

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
    let path = path.as_ref();
    let mut file = std::fs::File::open(path)
        .map_err(|e| FlipperError::io(format!("open {}", path.display()), e))?;
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match file.read(&mut prefix[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FlipperError::io(format!("read {}", path.display()), e)),
        }
    }
    Ok(if flipper_store::is_fbin(&prefix[..filled]) {
        FileFormat::Fbin
    } else {
        FileFormat::Text
    })
}

/// Load a full [`Dataset`] from `path`, auto-detecting the format by magic
/// bytes — a binary file handed to a text-era script still loads instead of
/// dying with a line-1 parse error (and vice versa).
pub fn load_path(path: impl AsRef<Path>) -> Result<Dataset, FlipperError> {
    let path = path.as_ref();
    let format = detect_format(path)?;
    let file = std::fs::File::open(path)
        .map_err(|e| FlipperError::io(format!("open {}", path.display()), e))?;
    let reader = BufReader::new(file);
    match format {
        FileFormat::Fbin => Ok(flipper_store::read_fbin(reader)?),
        FileFormat::Text => Ok(read_dataset(reader)?),
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
    let file = std::fs::File::create(path)
        .map_err(|e| FlipperError::io(format!("create {}", path.display()), e))?;
    let mut w = BufWriter::new(file);
    write_to(&mut w, ds, format)?;
    w.flush()
        .map_err(|e| FlipperError::io(format!("write {}", path.display()), e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Generator;
    use flipper_datagen::planted::PlantedParams;

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
}
