//! The streaming FBIN writer.
//!
//! [`FbinWriter`] accepts transactions **incrementally** and never holds more
//! than one encoded chunk in memory, so arbitrarily large datasets can be
//! serialized with bounded peak memory. The taxonomy (the dictionary) must
//! be known up front — it is written as the first section — but the
//! transaction stream can be produced lazily.

use crate::crc32::crc32;
use crate::error::StoreError;
use crate::varint::write_varint;
use crate::{SectionTag, FBIN_MAGIC, FBIN_VERSION};
use flipper_data::format::Dataset;
use flipper_data::DataError;
use flipper_taxonomy::{NodeId, Taxonomy};
use std::io::Write;

/// Default target size of one encoded transaction chunk. Chunks are flushed
/// once their encoded body reaches this size, so readers can process a file
/// with ~this much transaction memory in flight.
pub const TARGET_CHUNK_BYTES: usize = 64 * 1024;

/// Streaming writer for the FBIN format.
///
/// ```
/// use flipper_store::{FbinWriter, read_fbin};
/// use flipper_taxonomy::Taxonomy;
///
/// let tax = Taxonomy::from_edges(
///     [("drinks", ""), ("food", ""), ("beer", "drinks"), ("bread", "food")]).unwrap();
/// let beer = tax.node_by_name("beer").unwrap();
/// let bread = tax.node_by_name("bread").unwrap();
///
/// let mut out = Vec::new();
/// let mut w = FbinWriter::new(&mut out, &tax).unwrap();
/// w.write_transaction(&[beer, bread]).unwrap();
/// w.write_transaction(&[beer]).unwrap();
/// w.finish().unwrap();
///
/// let ds = read_fbin(&out[..]).unwrap();
/// assert_eq!(ds.db.len(), 2);
/// ```
pub struct FbinWriter<W: Write> {
    w: W,
    /// Node id → dictionary index. Synthetic rebalancing copies map to their
    /// nearest non-synthetic ancestor (which is what the text format writes
    /// too); the root maps to the `u32::MAX` sentinel.
    dict_of: Vec<u32>,
    /// Whether each node may appear in a transaction (leaf at tree height).
    is_valid_item: Vec<bool>,
    /// Encoded transactions of the pending chunk.
    chunk_body: Vec<u8>,
    chunk_txns: u64,
    total_txns: u64,
    chunk_count: u64,
    target_chunk_bytes: usize,
    /// Reusable per-transaction dictionary-index buffer.
    scratch: Vec<u32>,
}

impl<W: Write> FbinWriter<W> {
    /// Start an FBIN file on `w` for transactions over `tax`, with the
    /// default [`TARGET_CHUNK_BYTES`] chunking. Writes the header and the
    /// dictionary section immediately.
    pub fn new(w: W, tax: &Taxonomy) -> Result<Self, StoreError> {
        Self::with_chunk_size(w, tax, TARGET_CHUNK_BYTES)
    }

    /// Like [`FbinWriter::new`] with an explicit chunk-size target (clamped
    /// to at least 1; mainly useful for tests that want many small chunks).
    pub fn with_chunk_size(
        mut w: W,
        tax: &Taxonomy,
        target_chunk_bytes: usize,
    ) -> Result<Self, StoreError> {
        let (dict_of, is_valid_item, dict_payload) = build_dict(tax);
        w.write_all(&FBIN_MAGIC)?;
        w.write_all(&FBIN_VERSION.to_le_bytes())?;
        w.write_all(&0u16.to_le_bytes())?; // reserved flags
        write_section(&mut w, SectionTag::Dict, &dict_payload)?;
        Ok(FbinWriter {
            w,
            dict_of,
            is_valid_item,
            chunk_body: Vec::with_capacity(target_chunk_bytes.max(1)),
            chunk_txns: 0,
            total_txns: 0,
            chunk_count: 0,
            target_chunk_bytes: target_chunk_bytes.max(1),
            scratch: Vec::new(),
        })
    }

    /// Append one transaction (leaf items of the writer's taxonomy, in any
    /// order; duplicates are removed). Flushes a chunk section whenever the
    /// pending chunk reaches the target size.
    pub fn write_transaction(&mut self, items: &[NodeId]) -> Result<(), StoreError> {
        if items.is_empty() {
            return Err(StoreError::Data(DataError::EmptyTransaction {
                txn: self.total_txns as usize,
            }));
        }
        self.scratch.clear();
        for &item in items {
            let idx = item.index();
            if idx >= self.dict_of.len() || self.dict_of[idx] == u32::MAX {
                return Err(StoreError::UnknownItem {
                    txn: self.total_txns,
                    item,
                });
            }
            if !self.is_valid_item[idx] {
                return Err(StoreError::Data(DataError::NonLeafItem {
                    txn: self.total_txns as usize,
                    item,
                }));
            }
            self.scratch.push(self.dict_of[idx]);
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();

        write_varint(&mut self.chunk_body, self.scratch.len() as u64);
        let mut prev = 0u64;
        for (i, &id) in self.scratch.iter().enumerate() {
            let id = u64::from(id);
            // First item absolute, the rest as strictly positive gaps from
            // the sorted predecessor.
            let delta = if i == 0 { id } else { id - prev };
            write_varint(&mut self.chunk_body, delta);
            prev = id;
        }
        self.chunk_txns += 1;
        self.total_txns += 1;
        if self.chunk_body.len() >= self.target_chunk_bytes {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), StoreError> {
        if self.chunk_txns == 0 {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(self.chunk_body.len() + 4);
        write_varint(&mut payload, self.chunk_txns);
        payload.extend_from_slice(&self.chunk_body);
        write_section(&mut self.w, SectionTag::Chunk, &payload)?;
        self.chunk_body.clear();
        self.chunk_txns = 0;
        self.chunk_count += 1;
        Ok(())
    }

    /// Flush the pending chunk, write the end section (total transaction and
    /// chunk counts, so readers can detect a cut-short file) and return the
    /// underlying writer. A file is only valid once `finish` has run.
    pub fn finish(mut self) -> Result<W, StoreError> {
        self.flush_chunk()?;
        let mut payload = Vec::with_capacity(12);
        write_varint(&mut payload, self.total_txns);
        write_varint(&mut payload, self.chunk_count);
        write_section(&mut self.w, SectionTag::End, &payload)?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Write one framed section: tag, little-endian payload length, payload,
/// CRC-32 of the payload. This is the `store.write.section` fault site
/// ([`flipper_guard::fault::SITE_STORE_WRITE`]): an armed plan can fail a
/// write with a synthetic I/O error or stall it; other fault kinds degrade
/// to the I/O error, because the writer must never panic or emit corrupt
/// frames — a write either completes or fails typed.
fn write_section<W: Write>(w: &mut W, tag: SectionTag, payload: &[u8]) -> Result<(), StoreError> {
    match flipper_guard::fault::injected(flipper_guard::fault::SITE_STORE_WRITE) {
        None => {}
        Some(flipper_guard::Fault::Latency { spins }) => flipper_guard::fault::spin(spins),
        Some(_) => {
            return Err(StoreError::Io(std::io::Error::other(
                "injected fault: write i/o error",
            )))
        }
    }
    let len = u32::try_from(payload.len()).map_err(|_| StoreError::Corrupt {
        context: "writer",
        message: format!("section payload of {} bytes exceeds u32", payload.len()),
    })?;
    w.write_all(&[tag as u8])?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    Ok(())
}

/// Build the node-id → dictionary-index map and the encoded dictionary
/// payload. Dictionary entries are the non-synthetic nodes in node-id order
/// (so parents always precede children), each as `name` plus a parent code
/// (`0` = level-1 category, else `1 +` the parent's dictionary index) —
/// exactly the information the text format's `[taxonomy]` section carries,
/// which is what makes text↔FBIN round-trips bit-identical.
fn build_dict(tax: &Taxonomy) -> (Vec<u32>, Vec<bool>, Vec<u8>) {
    let n = tax.node_count();
    let mut dict_of = vec![u32::MAX; n];
    let mut is_valid_item = vec![false; n];
    let mut entries: Vec<NodeId> = Vec::with_capacity(n - 1);
    for node in tax.node_ids().skip(1) {
        if tax.is_synthetic(node) {
            // Written under the original name, like the text format: the
            // reader re-pads and re-maps to the deepest copy.
            // lint:allow(panic-hygiene) taxonomy invariant: synthetic padding nodes are never roots
            let parent = tax.parent(node).expect("synthetic nodes are not roots");
            dict_of[node.index()] = dict_of[parent.index()];
        } else {
            dict_of[node.index()] = entries.len() as u32;
            entries.push(node);
        }
        is_valid_item[node.index()] = tax.is_leaf(node) && tax.level_of(node) == tax.height();
    }
    let mut payload = Vec::new();
    write_varint(&mut payload, entries.len() as u64);
    for &node in &entries {
        let name = tax.name(node).as_bytes();
        write_varint(&mut payload, name.len() as u64);
        payload.extend_from_slice(name);
        // lint:allow(panic-hygiene) node_ids().skip(1) iterates non-root nodes only
        let parent = tax.parent(node).expect("non-root");
        let code = if parent.is_root() {
            0
        } else {
            u64::from(dict_of[parent.index()]) + 1
        };
        write_varint(&mut payload, code);
    }
    (dict_of, is_valid_item, payload)
}

/// Serialize a whole in-memory dataset to FBIN. Streams the transactions
/// through [`FbinWriter`], so this is also the reference for how the
/// streaming API is meant to be used.
pub fn write_fbin<W: Write>(w: W, ds: &Dataset) -> Result<(), StoreError> {
    let mut writer = FbinWriter::new(w, &ds.taxonomy)?;
    for txn in ds.db.iter() {
        writer.write_transaction(txn)?;
    }
    writer.finish()?;
    Ok(())
}
