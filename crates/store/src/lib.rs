//! # flipper-store
//!
//! **FBIN**, the chunked columnar binary storage format for flipper datasets,
//! plus streaming ingestion into the mining stack.
//!
//! The text interchange format (`flipper_data::format`) is convenient but
//! slow at scale: every load re-parses names line by line and the whole file
//! must sit in memory. FBIN stores the same information — a taxonomy and its
//! transactions — dictionary-encoded and chunked:
//!
//! ```text
//! file   := magic version flags section*
//! magic  := "FBIN"                     (4 bytes)
//! version:= u16 LE (currently 1)       flags := u16 LE (must be 0)
//!
//! section        := tag(u8) payload_len(u32 LE) payload crc32(u32 LE)
//! tag            := 0x01 dictionary | 0x02 chunk | 0x03 end
//! sections order := dictionary, chunk*, end      (nothing after end)
//!
//! dictionary payload := varint entry_count, then per entry (taxonomy nodes
//!     in id order, synthetic rebalancing copies omitted):
//!     varint name_len, name bytes (UTF-8),
//!     varint parent_code           (0 = level-1 category,
//!                                   else 1 + parent's entry index)
//! chunk payload := varint txn_count, then per transaction:
//!     varint item_count,
//!     varint first item id, then item_count-1 varint gaps (sorted strictly
//!     increasing dictionary indices, delta-encoded)
//! end payload   := varint total_txn_count, varint chunk_count
//! ```
//!
//! All varints are unsigned LEB128. Every section payload is guarded by a
//! CRC-32 (IEEE), and the end section's totals let the reader distinguish a
//! complete file from one cut short — truncation and bit rot both surface as
//! typed [`StoreError`]s, never as garbage data.
//!
//! Two read paths:
//!
//! * [`read_fbin`] / [`FbinReader::read_dataset`] — materialize a
//!   [`Dataset`], **bit-identical** to parsing the equivalent text file
//!   (the dictionary carries exactly the information of the text
//!   `[taxonomy]` section, in the same order, and is replayed through the
//!   same [`TaxonomyBuilder`](flipper_taxonomy::TaxonomyBuilder) path);
//! * [`FbinReader::chunks`] — iterate transaction chunks with bounded
//!   memory, each decoded flat into one [`RowChunk`](flipper_data::RowChunk)
//!   (no per-row allocation); [`stream_view`] pipes them straight into
//!   [`MultiLevelViewBuilder`], which commits them to per-level tid-lists
//!   on the calling thread, so mining can start from a file without the raw database, or any
//!   projected copy of it, ever existing in memory.
//!
//! [`FbinWriter`] is the streaming producer: it accepts transactions
//! incrementally and flushes a chunk section whenever [`TARGET_CHUNK_BYTES`]
//! of encoded transactions accumulate.
//!
//! A third read path, [`FbinReader::salvage`] / [`salvage_view`], trades
//! completeness for availability: damaged chunk sections are quarantined
//! into a [`SalvageReport`] and mining proceeds on what survived — always
//! flagged, never silent. Section reads and writes are also
//! `flipper-guard` fault-injection sites, so the whole failure surface is
//! exercised deterministically in tests.

mod crc32;
mod error;
mod reader;
mod varint;
mod writer;

pub use error::StoreError;
pub use reader::{read_fbin, ChunkReader, FbinReader, QuarantinedChunk, SalvageReport};
pub use writer::{write_fbin, FbinWriter, TARGET_CHUNK_BYTES};

use flipper_data::format::Dataset;
use flipper_data::{MultiLevelView, MultiLevelViewBuilder};
use flipper_taxonomy::Taxonomy;
use std::io::Read;

/// The four magic bytes every FBIN file starts with.
pub const FBIN_MAGIC: [u8; 4] = *b"FBIN";

/// Current format version, written to (and accepted from) the header.
pub const FBIN_VERSION: u16 = 1;

/// Section tags of the FBIN framing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum SectionTag {
    /// String dictionary + taxonomy structure.
    Dict = 0x01,
    /// A batch of delta-encoded transactions.
    Chunk = 0x02,
    /// Totals trailer; must be the last section.
    End = 0x03,
}

impl SectionTag {
    pub(crate) fn from_byte(b: u8) -> Option<Self> {
        match b {
            0x01 => Some(SectionTag::Dict),
            0x02 => Some(SectionTag::Chunk),
            0x03 => Some(SectionTag::End),
            _ => None,
        }
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            SectionTag::Dict => "dictionary",
            SectionTag::Chunk => "chunk",
            SectionTag::End => "end",
        }
    }
}

/// Whether `prefix` (the first bytes of a file) identifies an FBIN stream.
/// Used by CLIs to auto-detect the input format by magic bytes.
pub fn is_fbin(prefix: &[u8]) -> bool {
    prefix.len() >= FBIN_MAGIC.len() && prefix[..FBIN_MAGIC.len()] == FBIN_MAGIC
}

/// Streamed ingestion: consume every chunk of `reader` into a mining-ready
/// [`MultiLevelView`] without ever materializing the raw transaction
/// database. Decode and the commit to the abstraction levels both run on
/// the calling thread, one chunk at a time. The resulting view equals
/// [`MultiLevelView::build`] over the fully loaded database, so a
/// `flipper_core::mine_with_view` run over it gives the same bytes.
pub fn stream_view<R: Read>(
    reader: FbinReader<R>,
) -> Result<(Taxonomy, MultiLevelView), StoreError> {
    let (taxonomy, mut chunks) = reader.into_parts();
    let view = ingest(&taxonomy, &mut chunks)?;
    Ok((taxonomy, view))
}

/// Salvage ingestion: like [`stream_view`], but opened via
/// [`FbinReader::salvage`] — chunk sections that fail their checksum or
/// decode are quarantined instead of failing the read, and a truncated tail
/// ends the stream gracefully. Returns the [`SalvageReport`] alongside the
/// view; callers **must** surface [`SalvageReport::is_degraded`], because a
/// degraded view mines only what survived. On an intact file the view (and
/// any mining result over it) is byte-identical to [`stream_view`]'s.
pub fn salvage_view<R: Read>(
    r: R,
) -> Result<(Taxonomy, MultiLevelView, SalvageReport), StoreError> {
    let (taxonomy, mut chunks) = FbinReader::salvage(r)?.into_parts();
    let view = ingest(&taxonomy, &mut chunks)?;
    let report = chunks.into_salvage_report().unwrap_or_default();
    Ok((taxonomy, view, report))
}

/// Feed every chunk of `chunks` through a [`MultiLevelViewBuilder`]. Each
/// chunk's decode runs under a `store.decode` span and its projection
/// under `store.chunk`, both inside one `view.build`.
fn ingest<R: Read>(
    taxonomy: &Taxonomy,
    chunks: &mut ChunkReader<R>,
) -> Result<MultiLevelView, StoreError> {
    let build_span = flipper_obs::span("view.build");
    let mut builder = MultiLevelViewBuilder::new(taxonomy);
    loop {
        let decode_span = flipper_obs::span("store.decode");
        let Some(chunk) = chunks.next() else {
            break;
        };
        let chunk = chunk?;
        drop(decode_span.arg("rows", chunk.len() as u64));
        let span = flipper_obs::span("store.chunk");
        builder.push_chunk(chunk.rows())?;
        drop(span.arg("rows", chunk.len() as u64));
    }
    let view = builder.finish()?;
    drop(build_span.arg("rows", chunks.transactions_seen()));
    Ok(view)
}

/// Serialize a dataset to FBIN bytes in memory. Convenience for tests and
/// the CLI `convert` subcommand; streams through [`write_fbin`].
pub fn to_fbin_bytes(ds: &Dataset) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::new();
    write_fbin(&mut out, ds)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipper_data::format::{read_dataset, write_dataset};
    use flipper_data::TransactionDb;
    use flipper_taxonomy::NodeId;
    use std::io::Cursor;

    fn toy_dataset() -> Dataset {
        let tax = Taxonomy::from_edges([
            ("drinks", ""),
            ("food", ""),
            ("beer", "drinks"),
            ("soda", "drinks"),
            ("bread", "food"),
            ("cheese", "food"),
        ])
        .unwrap();
        let g = |s: &str| tax.node_by_name(s).unwrap();
        let db = TransactionDb::new(vec![
            vec![g("beer"), g("bread")],
            vec![g("beer"), g("cheese")],
            vec![g("soda"), g("bread"), g("cheese")],
        ])
        .unwrap();
        Dataset { taxonomy: tax, db }
    }

    #[test]
    fn roundtrip_toy() {
        let ds = toy_dataset();
        let bytes = to_fbin_bytes(&ds).unwrap();
        assert!(is_fbin(&bytes));
        let back = read_fbin(&bytes[..]).unwrap();
        assert_eq!(ds.taxonomy, back.taxonomy);
        assert_eq!(ds.db, back.db);
    }

    #[test]
    fn matches_text_path_exactly() {
        let ds = toy_dataset();
        let mut text = Vec::new();
        write_dataset(&mut text, &ds).unwrap();
        let via_text = read_dataset(Cursor::new(&text[..])).unwrap();
        let via_fbin = read_fbin(&to_fbin_bytes(&ds).unwrap()[..]).unwrap();
        assert_eq!(via_text.taxonomy, via_fbin.taxonomy);
        assert_eq!(via_text.db, via_fbin.db);
    }

    #[test]
    fn unbalanced_taxonomy_roundtrips_through_padding() {
        // A shallow leaf gets a synthetic copy under LeafCopy; the dict
        // stores the original name and the reader re-pads and re-maps.
        let tax =
            Taxonomy::from_edges([("drinks", ""), ("snacks", ""), ("beer", "drinks")]).unwrap();
        let beer = tax.node_by_name("beer").unwrap();
        let padded = tax.node_by_name("snacks#1").unwrap();
        assert!(tax.is_synthetic(padded));
        let db = TransactionDb::new(vec![vec![beer, padded]]).unwrap();
        let ds = Dataset { taxonomy: tax, db };
        let back = read_fbin(&to_fbin_bytes(&ds).unwrap()[..]).unwrap();
        assert_eq!(ds.taxonomy, back.taxonomy);
        assert_eq!(ds.db, back.db);
    }

    #[test]
    fn small_chunks_split_and_recombine() {
        let ds = toy_dataset();
        let mut out = Vec::new();
        // 1-byte target: every transaction flushes its own chunk.
        let mut w = FbinWriter::with_chunk_size(&mut out, &ds.taxonomy, 1).unwrap();
        for txn in ds.db.iter() {
            w.write_transaction(txn).unwrap();
        }
        w.finish().unwrap();
        let mut reader = FbinReader::new(&out[..]).unwrap();
        let chunks: Vec<_> = reader.chunks().collect::<Result<Vec<_>, _>>().unwrap();
        assert_eq!(chunks.len(), 3, "one chunk per transaction");
        assert_eq!(reader.chunks().transactions_seen(), 3);
        let back = FbinReader::new(&out[..]).unwrap().read_dataset().unwrap();
        assert_eq!(ds.db, back.db);
    }

    /// The flat chunks hand back exactly the rows that were written, in
    /// order, at every chunking, on a balanced and a leaf-copy-padded
    /// taxonomy. Items within a row come in dictionary order, which under
    /// padding need not be node-id order, so rows compare as sets.
    #[test]
    fn chunk_rows_match_the_written_rows() {
        let padded = Taxonomy::from_edges([
            ("drinks", ""),
            ("snacks", ""),
            ("beer", "drinks"),
            ("wine", "drinks"),
        ])
        .unwrap();
        let g = |s: &str| padded.node_by_name(s).unwrap();
        let db = TransactionDb::new(vec![
            vec![g("beer"), g("snacks#1")],
            vec![g("wine")],
            vec![g("beer"), g("wine"), g("snacks#1")],
        ])
        .unwrap();
        for ds in [
            toy_dataset(),
            Dataset {
                taxonomy: padded,
                db,
            },
        ] {
            for target in [1usize, 4, TARGET_CHUNK_BYTES] {
                let mut out = Vec::new();
                let mut w = FbinWriter::with_chunk_size(&mut out, &ds.taxonomy, target).unwrap();
                for txn in ds.db.iter() {
                    w.write_transaction(txn).unwrap();
                }
                w.finish().unwrap();
                let mut reader = FbinReader::new(&out[..]).unwrap();
                let mut rows: Vec<Vec<NodeId>> = Vec::new();
                for chunk in reader.chunks() {
                    let chunk = chunk.unwrap();
                    assert_eq!(chunk.rows().len(), chunk.len());
                    assert!(!chunk.is_empty());
                    rows.extend(chunk.rows().map(|row| {
                        let mut row = row.to_vec();
                        row.sort_unstable();
                        row
                    }));
                }
                let written: Vec<Vec<NodeId>> = ds.db.iter().map(<[NodeId]>::to_vec).collect();
                assert_eq!(rows, written, "chunk target {target}");
            }
        }
    }

    #[test]
    fn writer_rejects_bad_transactions() {
        let ds = toy_dataset();
        let mut w = FbinWriter::new(Vec::new(), &ds.taxonomy).unwrap();
        assert!(matches!(
            w.write_transaction(&[]).unwrap_err(),
            StoreError::Data(flipper_data::DataError::EmptyTransaction { .. })
        ));
        let drinks = ds.taxonomy.node_by_name("drinks").unwrap();
        assert!(matches!(
            w.write_transaction(&[drinks]).unwrap_err(),
            StoreError::Data(flipper_data::DataError::NonLeafItem { .. })
        ));
        assert!(matches!(
            w.write_transaction(&[NodeId::from_index(999)]).unwrap_err(),
            StoreError::UnknownItem { .. }
        ));
        assert!(matches!(
            w.write_transaction(&[NodeId::ROOT]).unwrap_err(),
            StoreError::UnknownItem { .. }
        ));
    }

    #[test]
    fn duplicate_items_are_deduplicated() {
        let ds = toy_dataset();
        let beer = ds.taxonomy.node_by_name("beer").unwrap();
        let bread = ds.taxonomy.node_by_name("bread").unwrap();
        let mut w = FbinWriter::new(Vec::new(), &ds.taxonomy).unwrap();
        w.write_transaction(&[bread, beer, bread, beer]).unwrap();
        let out = w.finish().unwrap();
        let back = read_fbin(&out[..]).unwrap();
        assert_eq!(back.db.transaction(0).len(), 2);
    }

    #[test]
    fn empty_database_is_rejected_on_read() {
        let ds = toy_dataset();
        let w = FbinWriter::new(Vec::new(), &ds.taxonomy).unwrap();
        let out = w.finish().unwrap();
        assert!(matches!(
            read_fbin(&out[..]).unwrap_err(),
            StoreError::Data(flipper_data::DataError::EmptyDatabase)
        ));
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = read_fbin(&b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, StoreError::BadMagic(m) if &m == b"NOPE"));
        assert!(!is_fbin(b"NO"));
        assert!(!is_fbin(b""));
    }

    #[test]
    fn future_version_is_rejected() {
        let ds = toy_dataset();
        let mut bytes = to_fbin_bytes(&ds).unwrap();
        bytes[4] = 0xFF; // version low byte
        assert!(matches!(
            read_fbin(&bytes[..]).unwrap_err(),
            StoreError::UnsupportedVersion(_)
        ));
        bytes[4] = 0; // version 0 is also invalid
        assert!(matches!(
            read_fbin(&bytes[..]).unwrap_err(),
            StoreError::UnsupportedVersion(0)
        ));
    }

    #[test]
    fn nonzero_flags_are_rejected() {
        let ds = toy_dataset();
        let mut bytes = to_fbin_bytes(&ds).unwrap();
        bytes[6] = 1;
        assert!(matches!(
            read_fbin(&bytes[..]).unwrap_err(),
            StoreError::Corrupt {
                context: "header",
                ..
            }
        ));
    }

    #[test]
    fn every_truncation_fails_typed_never_panics() {
        let ds = toy_dataset();
        let bytes = to_fbin_bytes(&ds).unwrap();
        for cut in 0..bytes.len() {
            let err = read_fbin(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not parse");
        }
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let ds = toy_dataset();
        let bytes = to_fbin_bytes(&ds).unwrap();
        // Flip one byte inside the dictionary payload (header is 8 bytes,
        // section frame is 5, so offset 14 sits inside the payload).
        let mut corrupt = bytes.clone();
        corrupt[14] ^= 0x40;
        assert!(matches!(
            read_fbin(&corrupt[..]).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
        // Any flipped bit anywhere in the file must fail one way or another
        // (checksum, frame structure, or totals) — never parse silently.
        for i in 8..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            assert!(read_fbin(&corrupt[..]).is_err(), "flip at byte {i}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let ds = toy_dataset();
        let mut bytes = to_fbin_bytes(&ds).unwrap();
        bytes.push(0xAA);
        assert!(matches!(
            read_fbin(&bytes[..]).unwrap_err(),
            StoreError::Corrupt {
                context: "end section",
                ..
            }
        ));
    }

    /// `(tag, start, end)` byte spans of every section in an FBIN file,
    /// walked off the frame headers. Test-side ground truth for picking
    /// corruption targets.
    fn section_spans(bytes: &[u8]) -> Vec<(u8, usize, usize)> {
        let mut spans = Vec::new();
        let mut i = 8; // header
        while i < bytes.len() {
            let tag = bytes[i];
            let len = u32::from_le_bytes(bytes[i + 1..i + 5].try_into().unwrap()) as usize;
            let end = i + 5 + len + 4;
            spans.push((tag, i, end));
            i = end;
        }
        spans
    }

    /// A 3-transaction file written with a 1-byte chunk target, so every
    /// transaction lands in its own chunk section.
    fn three_chunk_file() -> (Dataset, Vec<u8>) {
        let ds = toy_dataset();
        let mut out = Vec::new();
        let mut w = FbinWriter::with_chunk_size(&mut out, &ds.taxonomy, 1).unwrap();
        for txn in ds.db.iter() {
            w.write_transaction(txn).unwrap();
        }
        w.finish().unwrap();
        (ds, out)
    }

    #[test]
    fn salvage_on_intact_file_matches_strict_read() {
        let (ds, bytes) = three_chunk_file();
        let mut reader = FbinReader::salvage(&bytes[..]).unwrap();
        let rows: Vec<_> = reader
            .chunks()
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
            .iter()
            .flat_map(|c| c.rows().map(<[NodeId]>::to_vec))
            .collect();
        let report = reader.into_parts().1.into_salvage_report().unwrap();
        assert!(!report.is_degraded(), "intact file: {}", report.summary());
        assert_eq!(report.chunks_kept, 3);
        assert_eq!(report.txns_kept, 3);
        assert_eq!(rows.len(), ds.db.len());
        assert!(report.summary().starts_with("intact"));
    }

    #[test]
    fn salvage_quarantines_exactly_the_damaged_chunk() {
        let (ds, bytes) = three_chunk_file();
        let chunks: Vec<_> = section_spans(&bytes)
            .into_iter()
            .filter(|(tag, _, _)| *tag == 0x02)
            .collect();
        assert_eq!(chunks.len(), 3);
        // Corrupt the middle chunk's payload (skip the 5-byte frame head).
        let (_, start, _) = chunks[1];
        let mut corrupt = bytes.clone();
        corrupt[start + 5] ^= 0x40;
        // Strict mode still fails typed.
        assert!(matches!(
            read_fbin(&corrupt[..]).unwrap_err(),
            StoreError::ChecksumMismatch {
                section: "chunk",
                ..
            }
        ));
        // Salvage keeps chunks 0 and 2 and quarantines exactly chunk 1.
        let mut reader = FbinReader::salvage(&corrupt[..]).unwrap();
        let rows: Vec<_> = reader
            .chunks()
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
            .iter()
            .flat_map(|c| c.rows().map(<[NodeId]>::to_vec))
            .collect();
        let report = reader.into_parts().1.into_salvage_report().unwrap();
        assert!(report.is_degraded());
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].index, 1);
        assert_eq!(report.quarantined[0].byte_offset, start as u64);
        assert!(report.quarantined[0].reason.contains("checksum"));
        assert_eq!(report.chunks_kept, 2);
        assert_eq!(report.txns_kept, 2);
        assert_eq!(rows[0], ds.db.transaction(0));
        assert_eq!(rows[1], ds.db.transaction(2));
        // The lost transaction is accounted for in the notes.
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("1 of 3 transactions lost")));
    }

    #[test]
    fn salvage_survives_mid_chunk_truncation() {
        let (ds, bytes) = three_chunk_file();
        let chunks: Vec<_> = section_spans(&bytes)
            .into_iter()
            .filter(|(tag, _, _)| *tag == 0x02)
            .collect();
        // Cut mid-way through the second chunk section.
        let (_, start, end) = chunks[1];
        let cut = start + (end - start) / 2;
        // Strict mode: typed error, never a panic.
        assert!(read_fbin(&bytes[..cut]).is_err());
        // Salvage mode: the intact prefix survives, the tail becomes a note.
        let mut reader = FbinReader::salvage(&bytes[..cut]).unwrap();
        let rows: Vec<_> = reader
            .chunks()
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
            .iter()
            .flat_map(|c| c.rows().map(<[NodeId]>::to_vec))
            .collect();
        let report = reader.into_parts().1.into_salvage_report().unwrap();
        assert_eq!(report.chunks_kept, 1);
        assert_eq!(rows, vec![ds.db.transaction(0).to_vec()]);
        assert!(report.is_degraded());
        assert!(
            report.notes.iter().any(|n| n.contains("stream ends early")),
            "notes: {:?}",
            report.notes
        );
    }

    #[test]
    fn every_bitflip_is_typed_in_strict_and_flagged_in_salvage() {
        let (ds, bytes) = three_chunk_file();
        let originals: Vec<Vec<_>> = ds.db.iter().map(<[_]>::to_vec).collect();
        for i in 8..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            // Strict: any flip anywhere must fail typed (also covered for
            // the default chunking by flipped_payload_byte_fails_checksum).
            assert!(read_fbin(&corrupt[..]).is_err(), "strict flip at byte {i}");
            // Salvage: either a typed error (pre-chunk corruption) or a
            // result that is flagged degraded — never a silent difference,
            // and every surviving transaction is genuine.
            let Ok(mut reader) = FbinReader::salvage(&corrupt[..]) else {
                continue;
            };
            let mut rows: Vec<Vec<_>> = Vec::new();
            let mut failed = false;
            for chunk in reader.chunks().by_ref() {
                match chunk {
                    Ok(c) => rows.extend(c.rows().map(<[NodeId]>::to_vec)),
                    Err(_) => failed = true,
                }
            }
            if failed {
                continue; // typed error is an acceptable outcome
            }
            let report = reader.into_parts().1.into_salvage_report().unwrap();
            assert!(
                report.is_degraded(),
                "flip at byte {i} salvaged without a degradation flag"
            );
            for row in &rows {
                assert!(
                    originals.contains(row),
                    "flip at byte {i} fabricated transaction {row:?}"
                );
            }
        }
    }

    #[test]
    fn injected_read_faults_surface_typed_or_quarantined() {
        use flipper_guard::fault::{self, FaultKind, FaultPlan, SITE_STORE_READ};
        let (ds, bytes) = three_chunk_file();
        // Hit 1 is the dictionary; hit 3 is the second chunk section.
        for kind in [FaultKind::Io, FaultKind::BitFlip, FaultKind::Truncate] {
            let armed = fault::arm(FaultPlan::new(0xF1F0).inject(SITE_STORE_READ, 3, kind));
            let err = read_fbin(&bytes[..]).unwrap_err();
            assert!(
                matches!(err, StoreError::Io(_) | StoreError::ChecksumMismatch { .. }),
                "{kind:?} surfaced as {err}"
            );
            assert_eq!(armed.fired().len(), 1, "{kind:?} did not fire");
            drop(armed);
            // Salvage turns the payload corruptions into quarantine.
            if matches!(kind, FaultKind::BitFlip | FaultKind::Truncate) {
                let _armed = fault::arm(FaultPlan::new(0xF1F0).inject(SITE_STORE_READ, 3, kind));
                let mut reader = FbinReader::salvage(&bytes[..]).unwrap();
                let rows: Vec<_> = reader
                    .chunks()
                    .collect::<Result<Vec<_>, _>>()
                    .unwrap()
                    .iter()
                    .flat_map(|c| c.rows().map(<[NodeId]>::to_vec))
                    .collect();
                let report = reader.into_parts().1.into_salvage_report().unwrap();
                assert_eq!(report.quarantined.len(), 1, "{kind:?}");
                assert_eq!(report.quarantined[0].index, 1);
                assert_eq!(rows.len(), 2);
            }
        }
        // An injected latency stalls but changes nothing.
        let _armed = fault::arm(FaultPlan::new(1).inject(SITE_STORE_READ, 2, FaultKind::Latency));
        let back = read_fbin(&bytes[..]).unwrap();
        assert_eq!(back.db, ds.db);
    }

    #[test]
    fn injected_write_faults_surface_typed() {
        use flipper_guard::fault::{self, FaultKind, FaultPlan, SITE_STORE_WRITE};
        let ds = toy_dataset();
        // Hit 1 is the dictionary section: the writer fails to open.
        {
            let _armed = fault::arm(FaultPlan::new(9).inject(SITE_STORE_WRITE, 1, FaultKind::Io));
            let Err(err) = FbinWriter::new(Vec::new(), &ds.taxonomy) else {
                panic!("injected write fault should fail the writer");
            };
            assert!(matches!(err, StoreError::Io(_)));
        }
        // A panic kind degrades to the same typed I/O error — the store
        // layer never panics, not even under injection.
        {
            let _armed =
                fault::arm(FaultPlan::new(9).inject(SITE_STORE_WRITE, 2, FaultKind::Panic));
            let mut w = FbinWriter::with_chunk_size(Vec::new(), &ds.taxonomy, 1).unwrap();
            let err = ds
                .db
                .iter()
                .try_for_each(|txn| w.write_transaction(txn))
                .unwrap_err();
            assert!(matches!(err, StoreError::Io(_)));
        }
        // Latency stalls but the file still round-trips bit-identically.
        {
            let _armed =
                fault::arm(FaultPlan::new(9).inject(SITE_STORE_WRITE, 1, FaultKind::Latency));
            let delayed = to_fbin_bytes(&ds).unwrap();
            drop(_armed);
            assert_eq!(delayed, to_fbin_bytes(&ds).unwrap());
        }
    }

    #[test]
    fn salvage_view_flags_degradation_and_mines_survivors() {
        let (ds, bytes) = three_chunk_file();
        // Intact: identical to stream_view, not degraded.
        let (tax, view, report) = salvage_view(&bytes[..]).unwrap();
        let (tax2, view2) = stream_view(FbinReader::new(&bytes[..]).unwrap()).unwrap();
        assert_eq!(tax, tax2);
        assert_eq!(view, view2);
        assert!(!report.is_degraded());
        // Damaged: the surviving two chunks still build a view.
        let chunks: Vec<_> = section_spans(&bytes)
            .into_iter()
            .filter(|(tag, _, _)| *tag == 0x02)
            .collect();
        let mut corrupt = bytes.clone();
        corrupt[chunks[0].1 + 5] ^= 0x01;
        let (_, view, report) = salvage_view(&corrupt[..]).unwrap();
        assert!(report.is_degraded());
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.txns_kept, 2);
        let full = MultiLevelView::build(&ds.db, &ds.taxonomy).unwrap();
        assert_ne!(view, full, "a degraded view must differ from the full one");
    }

    /// FNV-1a (64-bit) of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// The FBIN bytes of two fixed datasets, pinned by hash: any change to
    /// the writer's framing, varints or checksum shows up here.
    #[test]
    fn fbin_bytes_are_pinned() {
        let groceries = flipper_datagen::surrogate::groceries(3).into_dataset();
        let quest = flipper_datagen::quest::generate(
            &flipper_datagen::quest::QuestParams::default()
                .with_transactions(1_000)
                .with_seed(7),
        )
        .into_dataset();
        for (name, ds, expect) in [
            ("groceries(3)", groceries, 0x1b3b_0f53_7afc_c082),
            ("quest N=1000 seed 7", quest, 0x2683_6c7b_39c5_ab1b),
        ] {
            let bytes = to_fbin_bytes(&ds).unwrap();
            assert_eq!(fnv1a(&bytes), expect, "{name}");
        }
    }

    #[test]
    fn stream_view_matches_full_load_view() {
        let ds = toy_dataset();
        let mut out = Vec::new();
        let mut w = FbinWriter::with_chunk_size(&mut out, &ds.taxonomy, 4).unwrap();
        for txn in ds.db.iter() {
            w.write_transaction(txn).unwrap();
        }
        w.finish().unwrap();
        let full = MultiLevelView::build(&ds.db, &ds.taxonomy).unwrap();
        let (tax, view) = stream_view(FbinReader::new(&out[..]).unwrap()).unwrap();
        assert_eq!(tax, ds.taxonomy);
        assert_eq!(view, full);
    }
}
