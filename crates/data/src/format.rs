//! A plain-text dataset format bundling a taxonomy and its transactions.
//!
//! ```text
//! # comments and blank lines are ignored
//! [taxonomy]
//! drinks
//! beer<TAB>drinks
//! canned beer<TAB>beer
//! [transactions]
//! canned beer<TAB>pretzels
//! ```
//!
//! The `[taxonomy]` section lists `child\tparent` pairs (a line with no tab
//! declares a level-1 category). Parents must appear before children. The
//! `[transactions]` section lists one transaction per line, items separated
//! by tabs. This is the interchange format of the `flipper` CLI.

use crate::transaction::TransactionDb;
use flipper_taxonomy::{NodeId, Taxonomy, TaxonomyBuilder};
use std::io::{BufRead, Read, Write};

/// Errors from parsing or writing the dataset format.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the text, with a 1-based line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Taxonomy construction failed.
    Taxonomy(flipper_taxonomy::TaxonomyError),
    /// Database construction failed.
    Data(crate::transaction::DataError),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "i/o error: {e}"),
            FormatError::Parse { line, message } => write!(f, "line {line}: {message}"),
            FormatError::Taxonomy(e) => write!(f, "taxonomy error: {e}"),
            FormatError::Data(e) => write!(f, "data error: {e}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<std::io::Error> for FormatError {
    fn from(e: std::io::Error) -> Self {
        FormatError::Io(e)
    }
}

impl From<flipper_taxonomy::TaxonomyError> for FormatError {
    fn from(e: flipper_taxonomy::TaxonomyError) -> Self {
        FormatError::Taxonomy(e)
    }
}

impl From<crate::transaction::DataError> for FormatError {
    fn from(e: crate::transaction::DataError) -> Self {
        FormatError::Data(e)
    }
}

/// A parsed dataset: the taxonomy plus the transactions over its leaves.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The (balanced) taxonomy.
    pub taxonomy: Taxonomy,
    /// The transactions.
    pub db: TransactionDb,
}

/// Parse a dataset from a reader. An unbalanced taxonomy is balanced by
/// padding its shallow leaves with synthetic copies (Fig. 3 \[B\], see
/// [`TaxonomyBuilder::build`]).
pub fn read_dataset<R: BufRead>(mut reader: R) -> Result<Dataset, FormatError> {
    // The classic format mix-up: an FBIN binary dataset (see the
    // `flipper-store` crate) handed to the text parser. Sniff the magic
    // bytes before touching lines — binary content would otherwise surface
    // as a baffling line-1 parse or UTF-8 error. A single `fill_buf` may
    // legally return fewer than 4 bytes, so read the prefix explicitly and
    // chain it back in front of the remaining stream.
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match reader.read(&mut prefix[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if prefix[..filled] == *b"FBIN" {
        return Err(FormatError::Parse {
            line: 1,
            message: "this looks like an FBIN binary dataset (magic bytes \"FBIN\"), \
                      not the text format; read it with the flipper-store FBIN \
                      reader or convert it with `flipper convert`"
                .to_string(),
        });
    }
    let reader = std::io::Cursor::new(prefix)
        .take(filled as u64)
        .chain(reader);
    #[derive(PartialEq)]
    enum Section {
        Preamble,
        Taxonomy,
        Transactions,
    }
    let mut section = Section::Preamble;
    let mut builder = TaxonomyBuilder::new();
    let mut raw_txns: Vec<(usize, Vec<String>)> = Vec::new();

    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line {
            "[taxonomy]" => {
                section = Section::Taxonomy;
                continue;
            }
            "[transactions]" => {
                section = Section::Transactions;
                continue;
            }
            _ => {}
        }
        match section {
            Section::Preamble => {
                return Err(FormatError::Parse {
                    line: lineno,
                    message: format!("unexpected content before [taxonomy]: {line:?}"),
                });
            }
            Section::Taxonomy => {
                let (child, parent) = match line.split_once('\t') {
                    Some((child, parent)) => (child.trim(), Some(parent)),
                    None => (line.trim(), None),
                };
                if child.is_empty() {
                    return Err(FormatError::Parse {
                        line: lineno,
                        message: "empty node name".to_string(),
                    });
                }
                match parent.map(str::trim).filter(|p| !p.is_empty()) {
                    None => builder.add_root_child(child)?,
                    Some(parent) => builder.add_child(child, parent)?,
                }
            }
            Section::Transactions => {
                let items: Vec<String> = line
                    .split('\t')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if items.is_empty() {
                    return Err(FormatError::Parse {
                        line: lineno,
                        message: "empty transaction".to_string(),
                    });
                }
                raw_txns.push((lineno, items));
            }
        }
    }

    let taxonomy = builder.build()?;
    let mut rows: Vec<Vec<NodeId>> = Vec::with_capacity(raw_txns.len());
    for (lineno, items) in raw_txns {
        let mut row = Vec::with_capacity(items.len());
        for name in items {
            let Some(node) = taxonomy.node_by_name(&name) else {
                return Err(FormatError::Parse {
                    line: lineno,
                    message: format!("unknown item {name:?}"),
                });
            };
            // Items written at a padded position: accept the original name
            // and remap to its deepest synthetic copy so the data stays at
            // leaf level after LeafCopy rebalancing.
            let node = deepest_copy(&taxonomy, node);
            row.push(node);
        }
        rows.push(row);
    }
    let db = TransactionDb::new(rows)?;
    db.validate_against(&taxonomy).map_err(FormatError::Data)?;
    Ok(Dataset { taxonomy, db })
}

/// Follow synthetic self-copies down to the leaf level (identity for
/// ordinary leaves and internal nodes without copies).
///
/// Public because every dataset reader (the text parser here, the FBIN
/// reader in `flipper-store`) must remap items written under their original
/// names through exactly the same rule, or the formats would drift.
pub fn deepest_copy(tax: &Taxonomy, node: NodeId) -> NodeId {
    let mut cur = node;
    loop {
        let next = tax
            .children(cur)
            .iter()
            .copied()
            .find(|&c| tax.is_synthetic(c) && tax.name(c).starts_with(tax.name(node)));
        match next {
            Some(c) => cur = c,
            None => return cur,
        }
    }
}

/// Serialize a dataset back to the text format. Synthetic padding nodes are
/// written under their original names so a round-trip is stable.
pub fn write_dataset<W: Write>(w: &mut W, ds: &Dataset) -> Result<(), FormatError> {
    writeln!(
        w,
        "# flipper dataset: {} nodes, {} transactions",
        ds.taxonomy.node_count(),
        ds.db.len()
    )?;
    writeln!(w, "[taxonomy]")?;
    // Every node but the root has a parent.
    for (node, parent) in ds
        .taxonomy
        .node_ids()
        .filter_map(|node| Some((node, ds.taxonomy.parent(node)?)))
    {
        if ds.taxonomy.is_synthetic(node) {
            continue;
        }
        if parent.is_root() {
            writeln!(w, "{}", ds.taxonomy.name(node))?;
        } else {
            writeln!(
                w,
                "{}\t{}",
                ds.taxonomy.name(node),
                ds.taxonomy.name(parent)
            )?;
        }
    }
    writeln!(w, "[transactions]")?;
    for txn in ds.db.iter() {
        let names: Vec<&str> = txn
            .iter()
            .map(|&it| original_name(&ds.taxonomy, it))
            .collect();
        writeln!(w, "{}", names.join("\t"))?;
    }
    Ok(())
}

/// Name of the nearest non-synthetic ancestor-or-self.
fn original_name(tax: &Taxonomy, node: NodeId) -> &str {
    let mut cur = node;
    while let Some(parent) = tax.parent(cur).filter(|_| tax.is_synthetic(cur)) {
        cur = parent;
    }
    tax.name(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "\
# demo
[taxonomy]
drinks
food
beer\tdrinks
soda\tdrinks
bread\tfood
cheese\tfood
[transactions]
beer\tbread
beer\tcheese
soda\tbread
";

    #[test]
    fn parse_sample() {
        let ds = read_dataset(Cursor::new(SAMPLE)).unwrap();
        assert_eq!(ds.taxonomy.height(), 2);
        assert_eq!(ds.db.len(), 3);
        let beer = ds.taxonomy.node_by_name("beer").unwrap();
        assert_eq!(ds.db.transaction(0).len(), 2);
        assert!(ds.db.transaction(0).contains(&beer));
    }

    #[test]
    fn roundtrip_preserves_dataset() {
        let ds = read_dataset(Cursor::new(SAMPLE)).unwrap();
        let mut out = Vec::new();
        write_dataset(&mut out, &ds).unwrap();
        let back = read_dataset(Cursor::new(&out[..])).unwrap();
        assert_eq!(ds.taxonomy, back.taxonomy);
        assert_eq!(ds.db, back.db);
    }

    #[test]
    fn unbalanced_input_is_padded_and_items_remapped() {
        // "snacks" is a level-1 leaf in a height-2 tree: LeafCopy pads it,
        // and a transaction mentioning "snacks" maps to the padded copy.
        let text = "\
[taxonomy]
drinks
snacks
beer\tdrinks
[transactions]
beer\tsnacks
";
        let ds = read_dataset(Cursor::new(text)).unwrap();
        assert_eq!(ds.taxonomy.height(), 2);
        let padded = ds.taxonomy.node_by_name("snacks#1").unwrap();
        assert!(ds.db.transaction(0).contains(&padded));
        // And the round-trip writes it back as "snacks".
        let mut out = Vec::new();
        write_dataset(&mut out, &ds).unwrap();
        let text2 = String::from_utf8(out).unwrap();
        assert!(text2.contains("beer\tsnacks"));
        assert!(!text2.contains("snacks#1"));
    }

    #[test]
    fn unknown_item_reports_line() {
        let text = "[taxonomy]\nx\n[transactions]\nx\ty\n";
        let err = read_dataset(Cursor::new(text)).unwrap_err();
        match err {
            FormatError::Parse { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("\"y\""));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn fbin_magic_is_sniffed_even_through_tiny_buffers() {
        // FBIN-looking bytes produce the pointed mix-up error…
        let fbin = b"FBIN\x01\x00\x00\x00\x01garbage";
        for capacity in [1usize, 2, 64] {
            let r = std::io::BufReader::with_capacity(capacity, &fbin[..]);
            let err = read_dataset(r).unwrap_err();
            assert!(
                err.to_string().contains("FBIN"),
                "capacity {capacity}: {err}"
            );
        }
        // …while a real text dataset still parses through the same tiny
        // buffer (the sniffed prefix is chained back in front).
        let r = std::io::BufReader::with_capacity(1, SAMPLE.as_bytes());
        let ds = read_dataset(r).unwrap();
        assert_eq!(ds.db.len(), 3);
        // Inputs shorter than the magic are ordinary (bad) text.
        let err = read_dataset(std::io::Cursor::new(b"FB")).unwrap_err();
        assert!(!err.to_string().contains("FBIN dataset"));
    }

    #[test]
    fn content_before_section_rejected() {
        let err = read_dataset(Cursor::new("oops\n[taxonomy]\nx\n")).unwrap_err();
        assert!(matches!(err, FormatError::Parse { line: 1, .. }));
    }

    #[test]
    fn empty_node_name_rejected() {
        let err = read_dataset(Cursor::new("[taxonomy]\n\tparent\n")).unwrap_err();
        assert!(matches!(err, FormatError::Parse { line: 2, .. }));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n# hi\n[taxonomy]\n\nx\n# mid\ny\n[transactions]\n\nx\ty\n";
        let ds = read_dataset(Cursor::new(text)).unwrap();
        assert_eq!(ds.db.len(), 1);
    }

    #[test]
    fn error_display_variants() {
        let e = FormatError::Parse {
            line: 3,
            message: "bad".into(),
        };
        assert_eq!(e.to_string(), "line 3: bad");
        let e: FormatError = std::io::Error::other("disk").into();
        assert!(e.to_string().contains("disk"));
    }
}
