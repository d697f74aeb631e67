//! Where a session's rows come from: a dataset file, opened once and told
//! apart by its magic bytes.
//!
//! Every path-based reader opens its file here — the
//! [`Session`](crate::Session) path constructors and the
//! [`io`](crate::io) loaders alike — so format detection has one rule and
//! a path is opened once.

use crate::error::FlipperError;
use crate::io::FileFormat;
use std::fs::File;
use std::io::{BufReader, Read, Seek};
use std::path::Path;

/// Open the dataset file at `path` and sniff its format by magic bytes;
/// the reader starts at the first byte.
pub(crate) fn open(path: &Path) -> Result<(FileFormat, BufReader<File>), FlipperError> {
    let read_err = |e| FlipperError::io(format!("read {}", path.display()), e);
    let mut file =
        File::open(path).map_err(|e| FlipperError::io(format!("open {}", path.display()), e))?;
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match file.read(&mut prefix[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(read_err(e)),
        }
    }
    file.rewind().map_err(read_err)?;
    let format = if flipper_store::is_fbin(&prefix[..filled]) {
        FileFormat::Fbin
    } else {
        FileFormat::Text
    };
    Ok((format, BufReader::new(file)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{write_path, Generator};
    use crate::Session;
    use flipper_data::format::Dataset;
    use flipper_data::MultiLevelView;
    use flipper_datagen::planted::PlantedParams;
    use std::path::PathBuf;

    fn toy() -> Dataset {
        Generator::Planted(PlantedParams::default()).dataset()
    }

    /// A fresh scratch directory for one test.
    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flipper-api-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A text file and an FBIN file opened by path — the FBIN one streamed
    /// chunk by chunk — give the view of the same database held in memory.
    #[test]
    fn text_and_fbin_streams_agree_with_memory() {
        let dir = temp_dir("streams");
        let ds = toy();
        let reference = Session::from_db(&ds.taxonomy, &ds.db).unwrap();
        for format in [FileFormat::Text, FileFormat::Fbin] {
            let path = dir.join(format!("toy.{}", format.name()));
            write_path(&path, &ds, format).unwrap();
            assert_eq!(open(&path).unwrap().0, format);
            let session = Session::open_path(&path).unwrap();
            assert_eq!(session.view(), reference.view(), "{}", format.name());
            assert_eq!(session.taxonomy(), reference.taxonomy());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Both formats load by content, whatever the extension says; a
    /// missing file is a typed I/O error naming the failed open.
    #[test]
    fn path_source_sniffs_magic_bytes() {
        let dir = temp_dir("sniff");
        let ds = toy();
        let reference = MultiLevelView::build(&ds.db, &ds.taxonomy).unwrap();

        let text_path = dir.join("toy.txt");
        write_path(&text_path, &ds, FileFormat::Text).unwrap();
        // The extension lies on purpose: detection is by content.
        let fbin_path = dir.join("toy.txt.actually-fbin");
        write_path(&fbin_path, &ds, FileFormat::Fbin).unwrap();

        for path in [&text_path, &fbin_path] {
            let session = Session::open_path(path).unwrap();
            assert_eq!(session.view(), &reference, "{}", path.display());
            assert_eq!(session.taxonomy(), &ds.taxonomy);
            assert_eq!(session.origin(), path.display().to_string());
        }

        let err = Session::open_path(dir.join("missing")).unwrap_err();
        assert!(matches!(err, FlipperError::Io { .. }));
        assert!(err.to_string().contains("open"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
