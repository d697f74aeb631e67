//! The FBIN reader: full-load, chunk-streaming, and salvage paths.
//!
//! [`FbinReader::new`] parses the header and dictionary and rebuilds the
//! taxonomy; from there either [`FbinReader::read_dataset`] materializes the
//! whole database (bit-identical to parsing the text format), or
//! [`FbinReader::chunks`] iterates transaction chunks one at a time, each
//! decoded flat into a [`RowChunk`], so ingestion can run with bounded
//! memory and no per-row allocation.
//!
//! A chunk is decoded by one loop over its payload (`decode_chunk`). Its
//! varint reads and checks (zero-width row, zero gap, id overflow, id past
//! the dictionary, overlong or overflowing varint, truncation, trailing
//! bytes) return small `Copy` fault codes, and the [`StoreError`] with its
//! message is built only when the chunk fails, so a valid chunk moves no
//! error value through the loop.
//!
//! [`FbinReader::salvage`] opens the same stream in **salvage mode**: chunk
//! sections whose checksum or decode fails are quarantined — recorded in a
//! [`SalvageReport`] with their index, byte offset and reason — instead of
//! failing the read, and a truncated tail ends the stream gracefully with a
//! note. Header and dictionary corruption stay fatal (without a dictionary
//! there is nothing to salvage), and real I/O errors are never masked.
//!
//! Section reads are a `flipper_guard` fault-injection site
//! ([`flipper_guard::fault::SITE_STORE_READ`]): an armed plan can fail a
//! read with a synthetic I/O error, corrupt or truncate a payload *after*
//! it left the stream (so framing stays aligned and the CRC must catch it),
//! or stall it. Disarmed cost is one relaxed atomic load per section.

use crate::crc32::crc32;
use crate::error::StoreError;
use crate::varint::{read_len, read_varint, PayloadCursor, VarintFault};
use crate::{SectionTag, FBIN_MAGIC, FBIN_VERSION};
use flipper_data::format::{deepest_copy, Dataset};
use flipper_data::{RowChunk, TransactionDb};
use flipper_guard::fault::SITE_STORE_READ;
use flipper_guard::Fault;
use flipper_taxonomy::{NodeId, Taxonomy, TaxonomyBuilder};
use std::io::Read;

/// Upper bound on a single section payload. A corrupt length field fails
/// here instead of attempting a multi-gigabyte allocation.
const MAX_SECTION_BYTES: usize = 1 << 30;

/// Byte size of the fixed FBIN header (magic + version + flags).
const HEADER_BYTES: u64 = 8;

/// Reader over an FBIN stream: header + dictionary are parsed eagerly, the
/// transaction chunks lazily.
pub struct FbinReader<R: Read> {
    taxonomy: Taxonomy,
    chunks: ChunkReader<R>,
}

impl<R: Read> FbinReader<R> {
    /// Open an FBIN stream, balancing the dictionary's taxonomy exactly as
    /// the text reader does.
    pub fn new(r: R) -> Result<Self, StoreError> {
        Self::open(r, false)
    }

    /// Open an FBIN stream in **salvage mode**: damaged chunk sections are quarantined
    /// instead of failing the read. Inspect
    /// [`ChunkReader::salvage_report`] after draining the chunks — a
    /// degraded report means the decoded data is a strict subset of the
    /// file's contents.
    pub fn salvage(r: R) -> Result<Self, StoreError> {
        Self::open(r, true)
    }

    fn open(mut r: R, salvage: bool) -> Result<Self, StoreError> {
        let mut magic = [0u8; 4];
        read_exact(&mut r, &mut magic, "header")?;
        if magic != FBIN_MAGIC {
            return Err(StoreError::BadMagic(magic));
        }
        let mut word = [0u8; 2];
        read_exact(&mut r, &mut word, "header")?;
        let version = u16::from_le_bytes(word);
        if version == 0 || version > FBIN_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        read_exact(&mut r, &mut word, "header")?;
        if u16::from_le_bytes(word) != 0 {
            return Err(StoreError::Corrupt {
                context: "header",
                message: format!("unknown header flags {:#06x}", u16::from_le_bytes(word)),
            });
        }
        let mut offset = HEADER_BYTES;
        let (tag, payload) = read_section(&mut r, &mut offset)?;
        if tag != SectionTag::Dict {
            return Err(StoreError::Corrupt {
                context: "dictionary",
                message: format!("expected the dictionary section first, found {tag:?}"),
            });
        }
        let (taxonomy, node_of) = decode_dict(&payload)?;
        Ok(FbinReader {
            taxonomy,
            chunks: ChunkReader {
                r,
                node_of,
                state: ChunkState::Reading,
                txns_seen: 0,
                chunks_seen: 0,
                offset,
                salvage: salvage.then(SalvageReport::default),
            },
        })
    }

    /// The taxonomy reconstructed from the dictionary section.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// Iterate over transaction chunks without materializing the database.
    /// Each item is one chunk's transactions as a flat [`RowChunk`] of leaf
    /// node ids of [`FbinReader::taxonomy`], one allocation pair per chunk
    /// (per-transaction canonicalization — sorting, deduplication — is left
    /// to the consumer, e.g. [`TransactionDb::new`] or
    /// `MultiLevelViewBuilder`).
    pub fn chunks(&mut self) -> &mut ChunkReader<R> {
        &mut self.chunks
    }

    /// Split into the taxonomy and the chunk stream, for streaming consumers
    /// that need to own both.
    pub fn into_parts(self) -> (Taxonomy, ChunkReader<R>) {
        (self.taxonomy, self.chunks)
    }

    /// Full-load path: materialize the whole dataset. The result is
    /// bit-identical to parsing the equivalent text-format file.
    pub fn read_dataset(mut self) -> Result<Dataset, StoreError> {
        let mut rows: Vec<Vec<NodeId>> = Vec::new();
        for chunk in self.chunks() {
            rows.extend(chunk?.rows().map(<[NodeId]>::to_vec));
        }
        let db = TransactionDb::new(rows)?;
        db.validate_against(&self.taxonomy)?;
        Ok(Dataset {
            taxonomy: self.taxonomy,
            db,
        })
    }
}

/// One chunk section a salvage read set aside instead of decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedChunk {
    /// 0-based index among the file's chunk sections (kept + quarantined,
    /// in stream order).
    pub index: u64,
    /// Byte offset of the section's tag byte in the stream.
    pub byte_offset: u64,
    /// Why the chunk was set aside (checksum mismatch, decode error, …).
    pub reason: String,
}

/// What a salvage read recovered and what it had to leave behind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Chunk sections set aside, in stream order.
    pub quarantined: Vec<QuarantinedChunk>,
    /// Chunk sections decoded successfully.
    pub chunks_kept: u64,
    /// Transactions decoded successfully.
    pub txns_kept: u64,
    /// Structural anomalies that ended or degraded the stream without
    /// pointing at one specific chunk (truncated tail, totals mismatch,
    /// trailing data, …).
    pub notes: Vec<String>,
}

impl SalvageReport {
    /// Did the read lose or distrust anything? `false` means the salvage
    /// read saw a fully intact file and decoded exactly what a strict read
    /// would have.
    pub fn is_degraded(&self) -> bool {
        !self.quarantined.is_empty() || !self.notes.is_empty()
    }

    /// One-line human-readable degradation summary.
    pub fn summary(&self) -> String {
        if !self.is_degraded() {
            return format!(
                "intact: {} chunks, {} transactions",
                self.chunks_kept, self.txns_kept
            );
        }
        let mut parts = vec![format!(
            "kept {} chunks / {} transactions",
            self.chunks_kept, self.txns_kept
        )];
        if !self.quarantined.is_empty() {
            parts.push(format!("quarantined {} chunks", self.quarantined.len()));
        }
        parts.extend(self.notes.iter().cloned());
        parts.join("; ")
    }
}

enum ChunkState {
    /// Expecting chunk or end sections.
    Reading,
    /// End section consumed and verified; the stream is exhausted.
    Done,
    /// An error was yielded; the stream stays terminated.
    Failed,
}

/// Streaming iterator over the transaction chunks of an FBIN file, each
/// decoded into one flat [`RowChunk`]. Yields `Err` once on the first structural problem, then terminates. The end
/// section's totals are verified before the iterator reports exhaustion, so
/// a truncated file can never silently look complete.
///
/// In salvage mode (see [`FbinReader::salvage`]) structural problems inside
/// chunk sections are quarantined into the [`SalvageReport`] instead, and
/// only real I/O errors or pre-chunk corruption still yield `Err`.
pub struct ChunkReader<R: Read> {
    r: R,
    /// Dictionary index → leaf node (deepest synthetic copy, matching how
    /// the text reader maps item names after rebalancing).
    node_of: Vec<NodeId>,
    state: ChunkState,
    txns_seen: u64,
    chunks_seen: u64,
    /// Byte offset of the next section's tag byte.
    offset: u64,
    /// `Some` iff this reader salvages; accumulates the degradation record.
    salvage: Option<SalvageReport>,
}

impl<R: Read> ChunkReader<R> {
    /// Transactions decoded so far.
    pub fn transactions_seen(&self) -> u64 {
        self.txns_seen
    }

    /// The salvage record so far (`None` unless the reader was opened via
    /// [`FbinReader::salvage`]). Complete once the iterator is drained.
    pub fn salvage_report(&self) -> Option<&SalvageReport> {
        self.salvage.as_ref()
    }

    /// Consume the reader and take the salvage record (`None` unless opened
    /// in salvage mode).
    pub fn into_salvage_report(self) -> Option<SalvageReport> {
        self.salvage
    }

    fn next_chunk(&mut self) -> Option<Result<RowChunk, StoreError>> {
        match self.state {
            ChunkState::Reading => {}
            ChunkState::Done | ChunkState::Failed => return None,
        }
        match self.advance() {
            Ok(Some(rows)) => Some(Ok(rows)),
            Ok(None) => {
                self.state = ChunkState::Done;
                None
            }
            Err(e) => {
                self.state = ChunkState::Failed;
                Some(Err(e))
            }
        }
    }

    fn advance(&mut self) -> Result<Option<RowChunk>, StoreError> {
        loop {
            let frame = match read_frame(&mut self.r, &mut self.offset) {
                Ok(f) => f,
                // Real I/O failures are never salvaged away.
                Err(e @ StoreError::Io(_)) => return Err(e),
                // A broken frame (truncation, bad tag, absurd length) cannot
                // be resynced past: salvage keeps what it has and notes why
                // the stream ended early.
                Err(e) => match &mut self.salvage {
                    Some(report) => {
                        report.notes.push(format!("stream ends early: {e}"));
                        return Ok(None);
                    }
                    None => return Err(e),
                },
            };
            if let Some(crc_err) = frame.crc_error {
                match (&mut self.salvage, frame.tag) {
                    (Some(report), SectionTag::Chunk) => {
                        let index = self.chunks_seen + report.quarantined.len() as u64;
                        report.quarantined.push(QuarantinedChunk {
                            index,
                            byte_offset: frame.start,
                            reason: crc_err.to_string(),
                        });
                        continue;
                    }
                    (Some(report), tag) => {
                        report
                            .notes
                            .push(format!("{} section failed its checksum", tag.name()));
                        return Ok(None);
                    }
                    (None, _) => return Err(crc_err),
                }
            }
            match frame.tag {
                SectionTag::Chunk => match decode_chunk(&frame.payload, &self.node_of)
                    .map_err(|f| f.into_error(self.node_of.len()))
                {
                    Ok(rows) => {
                        self.txns_seen += rows.len() as u64;
                        self.chunks_seen += 1;
                        if let Some(report) = &mut self.salvage {
                            report.chunks_kept = self.chunks_seen;
                            report.txns_kept = self.txns_seen;
                        }
                        return Ok(Some(rows));
                    }
                    Err(e) => match &mut self.salvage {
                        Some(report) => {
                            let index = self.chunks_seen + report.quarantined.len() as u64;
                            report.quarantined.push(QuarantinedChunk {
                                index,
                                byte_offset: frame.start,
                                reason: e.to_string(),
                            });
                            continue;
                        }
                        None => return Err(e),
                    },
                },
                SectionTag::End => return self.finish_end(&frame.payload),
                SectionTag::Dict => match &mut self.salvage {
                    Some(report) => {
                        report
                            .notes
                            .push("duplicate dictionary section skipped".to_string());
                        continue;
                    }
                    None => {
                        return Err(StoreError::Corrupt {
                            context: "chunk stream",
                            message: "duplicate dictionary section".to_string(),
                        })
                    }
                },
            }
        }
    }

    /// Verify the end-section totals and the absence of trailing data —
    /// fatally in strict mode, as report notes in salvage mode (where a
    /// totals shortfall explained by quarantined chunks is expected).
    fn finish_end(&mut self, payload: &[u8]) -> Result<Option<RowChunk>, StoreError> {
        let mut c = PayloadCursor::new(payload, "end section");
        let parsed = c.read_varint().and_then(|total_txns| {
            let total_chunks = c.read_varint()?;
            if !c.is_exhausted() {
                return Err(StoreError::Corrupt {
                    context: "end section",
                    message: format!("{} trailing bytes", c.remaining()),
                });
            }
            Ok((total_txns, total_chunks))
        });
        let (total_txns, total_chunks) = match parsed {
            Ok(totals) => totals,
            Err(e) => match &mut self.salvage {
                Some(report) => {
                    report.notes.push(format!("end section unreadable: {e}"));
                    return Ok(None);
                }
                None => return Err(e),
            },
        };
        if total_txns != self.txns_seen || total_chunks != self.chunks_seen {
            let quarantined = self
                .salvage
                .as_ref()
                .map_or(0, |r| r.quarantined.len() as u64);
            match &mut self.salvage {
                Some(report) => {
                    if total_chunks == self.chunks_seen + quarantined
                        && total_txns >= self.txns_seen
                    {
                        report.notes.push(format!(
                            "{} of {total_txns} transactions lost to quarantined chunks",
                            total_txns - self.txns_seen
                        ));
                    } else {
                        report.notes.push(format!(
                            "end section totals mismatch: file claims {total_txns} transactions \
                             in {total_chunks} chunks, decoded {} in {} \
                             (plus {quarantined} quarantined)",
                            self.txns_seen, self.chunks_seen
                        ));
                    }
                }
                None => {
                    return Err(StoreError::Corrupt {
                        context: "end section",
                        message: format!(
                            "totals mismatch: file claims {total_txns} transactions in \
                             {total_chunks} chunks, decoded {} in {}",
                            self.txns_seen, self.chunks_seen
                        ),
                    })
                }
            }
        }
        let mut probe = [0u8; 1];
        if self.r.read(&mut probe)? != 0 {
            match &mut self.salvage {
                Some(report) => {
                    report
                        .notes
                        .push("trailing data after the end section".to_string());
                }
                None => {
                    return Err(StoreError::Corrupt {
                        context: "end section",
                        message: "trailing data after the end section".to_string(),
                    })
                }
            }
        }
        Ok(None)
    }
}

impl<R: Read> Iterator for ChunkReader<R> {
    type Item = Result<RowChunk, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_chunk()
    }
}

/// `read_exact` with a typed truncation error carrying `context`.
fn read_exact<R: Read>(r: &mut R, buf: &mut [u8], context: &'static str) -> Result<(), StoreError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated { context }
        } else {
            StoreError::Io(e)
        }
    })
}

/// One framed section read off the stream, CRC verdict included. `start` is
/// the byte offset of the section's tag byte; `crc_error` is `Some` when
/// the payload does not match its stored checksum — salvage mode can then
/// skip the section, because the frame itself was intact and the stream is
/// still aligned on the next section.
struct Frame {
    tag: SectionTag,
    payload: Vec<u8>,
    crc_error: Option<StoreError>,
    start: u64,
}

/// Read one framed section: tag, length, payload, CRC-32. Advances
/// `offset` past the section. This is the `store.read.section` fault site.
fn read_frame<R: Read>(r: &mut R, offset: &mut u64) -> Result<Frame, StoreError> {
    let fault = flipper_guard::fault::injected(SITE_STORE_READ);
    match fault {
        // The storage layer must never panic, not even under injection:
        // unhonoured kinds degrade to the synthetic I/O error.
        Some(Fault::Io) | Some(Fault::Panic) => {
            return Err(StoreError::Io(std::io::Error::other(
                "injected fault: read i/o error",
            )))
        }
        Some(Fault::Latency { spins }) => flipper_guard::fault::spin(spins),
        _ => {}
    }
    let start = *offset;
    let mut tag_byte = [0u8; 1];
    read_exact(r, &mut tag_byte, "section frame")?;
    let tag = SectionTag::from_byte(tag_byte[0]).ok_or_else(|| StoreError::Corrupt {
        context: "section frame",
        message: format!("unknown section tag {:#04x}", tag_byte[0]),
    })?;
    let mut len_bytes = [0u8; 4];
    read_exact(r, &mut len_bytes, tag.name())?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_SECTION_BYTES {
        return Err(StoreError::Corrupt {
            context: tag.name(),
            message: format!("section length {len} exceeds the {MAX_SECTION_BYTES}-byte cap"),
        });
    }
    let mut payload = vec![0u8; len];
    read_exact(r, &mut payload, tag.name())?;
    // Injected payload corruption happens after the bytes left the stream,
    // so framing stays aligned and the CRC check below must catch it.
    match fault {
        Some(Fault::BitFlip { byte, mask }) if !payload.is_empty() => {
            let at = byte % payload.len();
            payload[at] ^= mask;
        }
        Some(Fault::Truncate { keep }) if !payload.is_empty() => {
            payload.truncate(keep % payload.len());
        }
        _ => {}
    }
    let mut crc_bytes = [0u8; 4];
    read_exact(r, &mut crc_bytes, tag.name())?;
    let expected = u32::from_le_bytes(crc_bytes);
    let actual = crc32(&payload);
    *offset = start + 1 + 4 + len as u64 + 4;
    let crc_error = (expected != actual).then(|| StoreError::ChecksumMismatch {
        section: tag.name(),
        expected,
        actual,
    });
    Ok(Frame {
        tag,
        payload,
        crc_error,
        start,
    })
}

/// Strict section read: a checksum mismatch is an error. Salvage callers
/// use [`read_frame`] directly and decide per tag.
fn read_section<R: Read>(r: &mut R, offset: &mut u64) -> Result<(SectionTag, Vec<u8>), StoreError> {
    let frame = read_frame(r, offset)?;
    match frame.crc_error {
        Some(e) => Err(e),
        None => Ok((frame.tag, frame.payload)),
    }
}

/// Decode the dictionary payload and precompute the dictionary-index →
/// leaf-node map.
///
/// Dictionaries are written level-ordered, so the hot path is
/// [`Taxonomy::from_balanced_level_order`] — a single arena-building pass
/// with no rebalancing machinery, under which entry `i` is node `i + 1` and
/// the node map is the identity. When that fails (an unbalanced dictionary
/// that needs leaf-copy padding), fall back to
/// replaying the entries through [`TaxonomyBuilder`] — the exact code path
/// the text reader uses, entry for entry, which is what keeps the two
/// formats bit-identical.
fn decode_dict(payload: &[u8]) -> Result<(Taxonomy, Vec<NodeId>), StoreError> {
    let mut c = PayloadCursor::new(payload, "dictionary");
    let count = c.read_len()?;
    // Names borrow the payload — no per-entry allocation on this pass.
    let mut entries: Vec<(&str, u32)> = Vec::with_capacity(count.min(payload.len()));
    for i in 0..count {
        let name_len = c.read_len()?;
        let name =
            std::str::from_utf8(c.read_bytes(name_len)?).map_err(|_| StoreError::Corrupt {
                context: "dictionary",
                message: format!("entry {i} name is not valid UTF-8"),
            })?;
        let parent_code = c.read_len()?;
        if parent_code > i {
            return Err(StoreError::Corrupt {
                context: "dictionary",
                message: format!(
                    "entry {i} references parent {}, which is not an earlier entry",
                    parent_code - 1
                ),
            });
        }
        // The parent code is exactly the parent's node id under level-order
        // reconstruction (0 = root, else 1 + parent entry index).
        entries.push((name, parent_code as u32));
    }
    if !c.is_exhausted() {
        return Err(StoreError::Corrupt {
            context: "dictionary",
            message: format!("{} trailing bytes", c.remaining()),
        });
    }
    if let Ok(taxonomy) = Taxonomy::from_balanced_level_order(&entries) {
        // Balanced: no synthetic copies exist, so entry i maps to node i+1.
        let node_of = (1..=entries.len()).map(NodeId::from_index).collect();
        return Ok((taxonomy, node_of));
    }
    let mut builder = TaxonomyBuilder::new();
    for (i, (name, parent)) in entries.iter().enumerate() {
        if *parent == 0 {
            builder.add_root_child(name)?;
        } else {
            let parent_idx = *parent as usize - 1;
            debug_assert!(parent_idx < i);
            builder.add_child(name, entries[parent_idx].0)?;
        }
    }
    let taxonomy = builder.build()?;
    let mut node_of = Vec::with_capacity(entries.len());
    for (name, _) in &entries {
        let node = taxonomy
            .node_by_name(name)
            .ok_or_else(|| StoreError::Corrupt {
                context: "dictionary",
                message: format!("entry {name:?} vanished during rebalancing"),
            })?;
        node_of.push(deepest_copy(&taxonomy, node));
    }
    Ok((taxonomy, node_of))
}

/// Why a chunk payload failed to decode: a `Copy` code that the decode
/// loop returns instead of building a [`StoreError`] per read. The error,
/// with its message, is built by [`ChunkFault::into_error`] only once the
/// chunk has failed.
#[derive(Debug, Clone, Copy)]
enum ChunkFault {
    Varint(VarintFault),
    /// Transaction `t` has width 0.
    EmptyRow(usize),
    /// Transaction `t` has a zero gap, so its ids do not increase.
    ZeroGap(usize),
    /// An id plus its gap overflows `u64`.
    IdOverflow,
    /// An id past the end of the dictionary.
    IdOutOfRange(u64),
    /// Bytes left over after the last transaction.
    Trailing(usize),
}

impl From<VarintFault> for ChunkFault {
    fn from(f: VarintFault) -> Self {
        ChunkFault::Varint(f)
    }
}

impl ChunkFault {
    fn into_error(self, dict_len: usize) -> StoreError {
        let message = match self {
            ChunkFault::Varint(f) => return f.into_error("chunk"),
            ChunkFault::EmptyRow(t) => format!("transaction {t} is empty"),
            ChunkFault::ZeroGap(t) => format!("transaction {t} has a non-increasing item id"),
            ChunkFault::IdOverflow => "item id overflows u64".to_string(),
            ChunkFault::IdOutOfRange(id) => {
                format!("item id {id} out of range for a {dict_len}-entry dictionary")
            }
            ChunkFault::Trailing(n) => format!("{n} trailing bytes"),
        };
        StoreError::Corrupt {
            context: "chunk",
            message,
        }
    }
}

/// Decode one chunk payload into a flat chunk of leaf node ids: one pass
/// over `payload`, every check kept, no error value built unless the chunk
/// fails.
fn decode_chunk(payload: &[u8], node_of: &[NodeId]) -> Result<RowChunk, ChunkFault> {
    let node = |id: u64| -> Result<NodeId, ChunkFault> {
        usize::try_from(id)
            .ok()
            .and_then(|i| node_of.get(i).copied())
            .ok_or(ChunkFault::IdOutOfRange(id))
    };
    let mut pos = 0;
    let txn_count = read_len(payload, &mut pos)?;
    // Every item takes at least one payload byte and every transaction at
    // least two, so both reserves are bounded by the (already checksummed)
    // payload size even if the counts are corrupt.
    let mut rows = RowChunk::with_capacity(txn_count.min(payload.len()), payload.len());
    for t in 0..txn_count {
        let width = read_len(payload, &mut pos)?;
        if width == 0 {
            return Err(ChunkFault::EmptyRow(t));
        }
        let mut id = read_varint(payload, &mut pos)?;
        rows.push_item(node(id)?);
        for _ in 1..width {
            let gap = read_varint(payload, &mut pos)?;
            if gap == 0 {
                return Err(ChunkFault::ZeroGap(t));
            }
            id = id.checked_add(gap).ok_or(ChunkFault::IdOverflow)?;
            rows.push_item(node(id)?);
        }
        rows.end_row();
    }
    match payload.len() - pos {
        0 => Ok(rows),
        n => Err(ChunkFault::Trailing(n)),
    }
}

/// Read a whole FBIN dataset (the full-load path).
pub fn read_fbin<R: Read>(r: R) -> Result<Dataset, StoreError> {
    FbinReader::new(r)?.read_dataset()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32::crc32;
    use crate::varint::write_varint;
    use crate::{stream_view, to_fbin_bytes};

    /// A six-entry dictionary: `drinks` (0), `food` (1) and the leaves
    /// `beer` (2), `soda` (3), `bread` (4), `cheese` (5).
    fn dataset() -> Dataset {
        let taxonomy = Taxonomy::from_edges([
            ("drinks", ""),
            ("food", ""),
            ("beer", "drinks"),
            ("soda", "drinks"),
            ("bread", "food"),
            ("cheese", "food"),
        ])
        .unwrap();
        let beer = taxonomy.node_by_name("beer").unwrap();
        let db = TransactionDb::new(vec![vec![beer]]).unwrap();
        Dataset { taxonomy, db }
    }

    /// One framed section with a valid CRC.
    fn section(tag: SectionTag, payload: &[u8]) -> Vec<u8> {
        let mut out = vec![tag as u8];
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out
    }

    /// A file holding [`dataset`]'s header and dictionary, then one chunk
    /// section carrying `payload` under a valid CRC, then an end section
    /// claiming `txns` transactions in one chunk. Returns the file and the
    /// chunk section's byte offset.
    fn file_with_chunk(payload: &[u8], txns: u8) -> (Vec<u8>, u64) {
        let valid = to_fbin_bytes(&dataset()).unwrap();
        let dict_len = u32::from_le_bytes(valid[9..13].try_into().unwrap()) as usize;
        let dict_end = 8 + 1 + 4 + dict_len + 4;
        let mut out = valid[..dict_end].to_vec();
        out.extend(section(SectionTag::Chunk, payload));
        out.extend(section(SectionTag::End, &[txns, 1]));
        (out, dict_end as u64)
    }

    fn varint(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, v);
        out
    }

    /// `Some(message)`: a `Corrupt` error in context `chunk` with exactly
    /// that message. `None`: `Truncated` in context `chunk`.
    type Expect = Option<&'static str>;

    fn assert_pinned(case: &str, err: &StoreError, expect: Expect) {
        match (err, expect) {
            (StoreError::Corrupt { context, message }, Some(m)) => {
                assert_eq!(*context, "chunk", "{case}");
                assert_eq!(message, m, "{case}");
            }
            (StoreError::Truncated { context }, None) => assert_eq!(*context, "chunk", "{case}"),
            _ => panic!("{case}: expected {expect:?}, got {err:?}"),
        }
    }

    /// The chunk decoder's own checks. Each case is a chunk payload under
    /// a valid CRC, so neither the checksum nor the framing rejects it
    /// first; the strict reads must fail with exactly the pinned error, and
    /// a salvage read must quarantine the chunk with the same text.
    #[test]
    fn chunk_decode_errors_are_pinned() {
        let cat = |parts: &[&[u8]]| parts.concat();
        let cases: Vec<(&str, Vec<u8>, Expect)> = vec![
            (
                "zero-width row",
                vec![2, 1, 2, 0],
                Some("transaction 1 is empty"),
            ),
            (
                "zero gap",
                vec![1, 2, 2, 0],
                Some("transaction 0 has a non-increasing item id"),
            ),
            (
                "id past the dictionary",
                vec![1, 2, 2, 4],
                Some("item id 6 out of range for a 6-entry dictionary"),
            ),
            (
                "first id past the dictionary",
                cat(&[&[1, 1], &varint(u64::MAX)]),
                Some("item id 18446744073709551615 out of range for a 6-entry dictionary"),
            ),
            (
                "id sum overflowing u64",
                cat(&[&[1, 2, 2], &varint(u64::MAX)]),
                Some("item id overflows u64"),
            ),
            (
                "11-byte varint",
                cat(&[&[1, 1], &[0x80; 10], &[0x00]]),
                Some("varint overflows u64"),
            ),
            (
                "varint overflowing u64",
                cat(&[&[1, 1], &[0xFF; 9], &[0x02]]),
                Some("varint overflows u64"),
            ),
            (
                "row count overflowing u64",
                cat(&[&[0xFF; 9], &[0x7F]]),
                Some("varint overflows u64"),
            ),
            ("varint cut at payload end", vec![1, 2, 2, 0x81], None),
            ("fewer rows than txn_count", vec![3, 1, 2, 1, 3], None),
            ("empty payload", vec![], None),
            (
                "trailing bytes",
                vec![1, 1, 2, 7, 7],
                Some("2 trailing bytes"),
            ),
        ];
        for (case, payload, expect) in cases {
            let (bytes, chunk_offset) = file_with_chunk(&payload, 1);
            let err = read_fbin(&bytes[..]).unwrap_err();
            assert_pinned(case, &err, expect);
            let Err(streamed) = stream_view(FbinReader::new(&bytes[..]).unwrap()) else {
                panic!("{case}: stream_view accepted the chunk");
            };
            assert_pinned(case, &streamed, expect);
            assert_eq!(streamed.to_string(), err.to_string(), "{case}");

            let mut reader = FbinReader::salvage(&bytes[..]).unwrap();
            for chunk in reader.chunks() {
                chunk.unwrap();
            }
            let report = reader.into_parts().1.into_salvage_report().unwrap();
            assert_eq!(
                report.quarantined,
                vec![QuarantinedChunk {
                    index: 0,
                    byte_offset: chunk_offset,
                    reason: err.to_string(),
                }],
                "{case}"
            );
            assert_eq!(report.chunks_kept, 0, "{case}");
        }
    }

    /// The same framing with a well-formed payload decodes, so the cases
    /// above fail on their payloads alone.
    #[test]
    fn hand_built_chunk_decodes() {
        // Rows {beer, cheese} and {soda}: ids 2, 2+3 and 3.
        let (bytes, _) = file_with_chunk(&[2, 2, 2, 3, 1, 3], 2);
        let ds = read_fbin(&bytes[..]).unwrap();
        let names: Vec<Vec<&str>> = ds
            .db
            .iter()
            .map(|row| row.iter().map(|&n| ds.taxonomy.name(n)).collect())
            .collect();
        assert_eq!(names, vec![vec!["beer", "cheese"], vec!["soda"]]);
    }
}
