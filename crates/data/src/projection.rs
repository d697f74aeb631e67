//! Multi-level views of a transaction database through a taxonomy.
//!
//! An `(h, k)`-itemset is evaluated against the database in which every item
//! has been replaced by its level-`h` generalization (paper §2.2, Fig. 4).
//! [`MultiLevelView`] holds what the miner reads of that projection at each
//! level — per-item supports and sorted tid-lists (Zaki's vertical layout) —
//! so the miner can evaluate any cell of the search table without touching
//! the raw data again.
//!
//! The view also owns two caches of the tid-lists that the counting kernel
//! builds lazily, once per level, and shares with every later counter:
//!
//! * each level's table of packed bitmaps for its dense items (see
//!   [`crate::BitsetCounter::BITMAP_RATIO`]), built by the first counter
//!   over the view;
//! * each level's projected rows, the horizontal layout: every
//!   transaction's level-`h` items, ascending, transposed from the
//!   tid-lists by a counting sort. They are built by the first batch that
//!   counts a prefix group by projection (see [`crate::BitsetCounter`]),
//!   so a mine that never projects at a level never pays for its rows.
//!
//! Neither cache is part of the view's value: views compare equal whether
//! or not theirs are built.

use crate::bitset::{self, Bitmap};
use crate::transaction::TransactionDb;
use crate::DataError;
use flipper_taxonomy::{NodeId, Taxonomy};
use std::sync::OnceLock;

/// The projection of a database to one abstraction level.
#[derive(Debug, Clone)]
pub struct LevelView {
    /// The abstraction level (1 = most general, `H` = leaves).
    pub level: usize,
    /// Sorted transaction-id list per node id (empty for absent nodes); a
    /// node's support is the length of its list.
    tidsets: Vec<Vec<u32>>,
    /// Nodes with non-zero support at this level, ascending by id.
    present: Vec<NodeId>,
    /// The dense items' bitmaps by node id, built on first use by
    /// [`MultiLevelView::bitmaps`].
    bitmaps: OnceLock<Vec<Option<Bitmap>>>,
    /// The transactions as horizontal rows, built on first use by
    /// [`MultiLevelView::rows`].
    rows: OnceLock<LevelRows>,
}

/// Equal when the projections are: the lazily built bitmaps and rows are
/// left out.
impl PartialEq for LevelView {
    fn eq(&self, other: &Self) -> bool {
        self.level == other.level && self.tidsets == other.tidsets && self.present == other.present
    }
}

impl Eq for LevelView {}

impl LevelView {
    /// Support of a single node at this level.
    #[inline]
    pub fn item_support(&self, item: NodeId) -> u64 {
        self.tidset(item).len() as u64
    }

    /// Sorted tid-list of a node (empty slice if absent).
    #[inline]
    pub fn tidset(&self, item: NodeId) -> &[u32] {
        self.tidsets
            .get(item.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Nodes with non-zero support at this level, ascending by id.
    #[inline]
    pub fn present_items(&self) -> &[NodeId] {
        &self.present
    }

    /// The number of (transaction, item) occurrences at this level: the sum
    /// of the supports, `N · w̄_h` for the mean projected width `w̄_h`.
    pub(crate) fn occurrences(&self) -> u64 {
        self.present
            .iter()
            .map(|&item| self.item_support(item))
            .sum()
    }
}

/// One level's transactions as horizontal rows in CSR form: row `t` is
/// `items[offsets[t]..offsets[t + 1]]`, the level-`h` items of transaction
/// `t`, ascending.
#[derive(Debug, Clone)]
pub(crate) struct LevelRows {
    /// `N + 1` entries; `offsets[N]` is the level's occurrence count.
    offsets: Vec<u32>,
    items: Vec<NodeId>,
}

impl LevelRows {
    /// Transpose `lv`'s tid-lists over `n` transactions by a counting sort:
    /// one pass sizes the rows, a second fills them. Items are visited in
    /// ascending id order, so every row comes out ascending.
    ///
    /// # Panics
    /// Panics when the level holds more than `u32::MAX` occurrences; the
    /// kernel never asks for such a level's rows.
    fn transpose(lv: &LevelView, n: usize) -> Self {
        let total = lv.occurrences();
        assert!(
            total <= u64::from(u32::MAX),
            "{total} occurrences overflow the rows' u32 offsets"
        );
        let mut offsets = vec![0u32; n + 1];
        for &item in &lv.present {
            for &t in lv.tidset(item) {
                offsets[t as usize + 1] += 1;
            }
        }
        for t in 1..=n {
            offsets[t] += offsets[t - 1];
        }
        let mut items = vec![NodeId::ROOT; total as usize];
        let mut cursor = offsets[..n].to_vec();
        for &item in &lv.present {
            for &t in lv.tidset(item) {
                let at = &mut cursor[t as usize];
                items[*at as usize] = item;
                *at += 1;
            }
        }
        LevelRows { offsets, items }
    }

    /// The items of transaction `t`, ascending.
    #[inline]
    pub(crate) fn row(&self, t: u32) -> &[NodeId] {
        let t = t as usize;
        &self.items[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// Number of rows, `N`.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Heap bytes held by the offsets and the items.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets[..]) + std::mem::size_of_val(&self.items[..])
    }
}

/// Projections of one database to every level of a taxonomy. Equality
/// compares the projections only ([`LevelView`]'s equality leaves out the
/// bitmaps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiLevelView {
    levels: Vec<LevelView>, // levels[h-1] is level h
    num_transactions: usize,
    max_width: usize,
}

impl MultiLevelView {
    /// Project `db` through `tax` at every level `1..=height`.
    ///
    /// Delegates to [`MultiLevelViewBuilder`] (one chunk), so
    /// the full-load and chunk-streamed paths can never drift apart.
    ///
    /// # Errors
    /// What [`MultiLevelViewBuilder::push_chunk`] rejects: for a
    /// [`TransactionDb`] that is [`DataError::NonLeafItem`], a row holding
    /// an item that is not a leaf at the taxonomy height, or
    /// [`DataError::TooManyTransactions`].
    pub fn build(db: &TransactionDb, tax: &Taxonomy) -> Result<Self, DataError> {
        let _span = flipper_obs::span("view.build").arg("rows", db.len() as u64);
        let mut builder = MultiLevelViewBuilder::new(tax);
        builder.push_chunk((0..db.len()).map(|t| db.transaction(t)))?;
        builder.finish()
    }

    /// The view at abstraction level `h` (1-based).
    ///
    /// # Panics
    /// Panics if `h` is 0 or exceeds the taxonomy height.
    #[inline]
    pub fn level(&self, h: usize) -> &LevelView {
        assert!(
            h >= 1 && h <= self.levels.len(),
            "level {h} out of range 1..={}",
            self.levels.len()
        );
        &self.levels[h - 1]
    }

    /// Number of abstraction levels (= taxonomy height).
    #[inline]
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Number of transactions.
    #[inline]
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// Width of the widest transaction (distinct leaf items): the paper's
    /// bound on the number of columns of the search table.
    #[inline]
    pub fn max_width(&self) -> usize {
        self.max_width
    }

    /// Level `h`'s bitmap table by node id (`Some` for the items the
    /// storage rule promotes), built on the first call for `h` and shared
    /// by every later one, from any thread.
    pub(crate) fn bitmaps(&self, h: usize) -> &[Option<Bitmap>] {
        let lv = self.level(h);
        lv.bitmaps
            .get_or_init(|| bitset::view_bitmaps(lv, self.num_transactions))
    }

    /// Level `h`'s transactions as horizontal rows, built on the first call
    /// for `h` inside a `view.rows` span that records the level `h`, the
    /// number of `rows` and their `bytes`, and shared by every later call,
    /// from any thread.
    pub(crate) fn rows(&self, h: usize) -> &LevelRows {
        let lv = self.level(h);
        lv.rows.get_or_init(|| {
            let mut span = flipper_obs::span("view.rows").arg("h", h as u64);
            let rows = LevelRows::transpose(lv, self.num_transactions);
            span.add_arg("rows", rows.len() as u64);
            span.add_arg("bytes", rows.bytes() as u64);
            rows
        })
    }
}

/// The most transactions a view can hold. Tids are `u32`, and `u32::MAX`
/// itself is the builder's "no tid yet" mark.
const MAX_TRANSACTIONS: usize = u32::MAX as usize;

/// One level of a [`MultiLevelViewBuilder`]: the view under construction
/// plus what committing a row to it needs.
struct LevelBuild {
    view: LevelView,
    /// Every leaf's level-`h` ancestor, indexed by node id (other entries
    /// are unused).
    anc: Vec<NodeId>,
    /// The last tid pushed to each node's tid-list, indexed by node id
    /// (`u32::MAX` = none): a row that maps two leaves to one ancestor
    /// counts it once.
    last: Vec<u32>,
}

impl LevelBuild {
    /// Append `rows` as tids `base..`. Item order within a row does not
    /// matter, and a repeated item counts once, like a repeated ancestor.
    fn commit<'r>(&mut self, rows: impl Iterator<Item = &'r [NodeId]>, base: u32) {
        for (row, tid) in rows.zip(base..) {
            for &item in row {
                let a = self.anc[item.index()].index();
                if self.last[a] != tid {
                    self.last[a] = tid;
                    self.view.tidsets[a].push(tid);
                }
            }
        }
    }
}

/// Incremental, chunk-at-a-time construction of a [`MultiLevelView`] —
/// the ingestion end of the streaming pipeline.
///
/// Feed transaction chunks (e.g. from an FBIN chunk reader) with
/// [`MultiLevelViewBuilder::push_chunk`]. Each chunk is first validated in
/// place, then committed straight from the caller's rows to every
/// abstraction level through precomputed ancestor tables, one level after
/// another; the chunk is never copied. Tids are appended **in order**, and
/// no per-row allocation is made. The finished view is bit-identical to
/// [`MultiLevelView::build`] over the concatenation of all chunks — so
/// mining a streamed input produces exactly the results of mining a fully
/// loaded one, without the raw database ever materializing.
pub struct MultiLevelViewBuilder {
    /// `leaf[i]`: node `i` is a leaf at the taxonomy height, the only items
    /// a row may hold.
    leaf: Vec<bool>,
    levels: Vec<LevelBuild>,
    num_transactions: usize,
    max_width: usize,
    /// A copy of one unsorted row, sorted to count its distinct items;
    /// reused across rows.
    scratch: Vec<NodeId>,
}

impl MultiLevelViewBuilder {
    /// Start an empty builder over `tax`.
    pub fn new(tax: &Taxonomy) -> Self {
        let node_count = tax.node_count();
        let height = tax.height();
        let leaf = (0..node_count)
            .map(|i| {
                let node = NodeId::from_index(i);
                tax.level_of(node) == height && tax.is_leaf(node)
            })
            .collect();
        let levels = (1..=height)
            .map(|h| {
                // Parents precede their children in id order, so one
                // forward pass resolves every node below level `h`.
                let mut anc = vec![NodeId::ROOT; node_count];
                for node in tax.node_ids() {
                    let level = tax.level_of(node);
                    if level == h {
                        anc[node.index()] = node;
                    } else if level > h {
                        let parent = tax.parent(node).unwrap_or(NodeId::ROOT);
                        anc[node.index()] = anc[parent.index()];
                    }
                }
                LevelBuild {
                    view: LevelView {
                        level: h,
                        tidsets: vec![Vec::new(); node_count],
                        present: Vec::new(),
                        bitmaps: OnceLock::new(),
                        rows: OnceLock::new(),
                    },
                    anc,
                    last: vec![u32::MAX; node_count],
                }
            })
            .collect();
        MultiLevelViewBuilder {
            leaf,
            levels,
            num_transactions: 0,
            max_width: 0,
            scratch: Vec::new(),
        }
    }

    /// A builder that has already ingested `num_transactions` rows (none of
    /// which touch any tid-list), for exercising the transaction limit.
    #[cfg(test)]
    fn starting_at(tax: &Taxonomy, num_transactions: usize) -> Self {
        MultiLevelViewBuilder {
            num_transactions,
            ..Self::new(tax)
        }
    }

    /// Transactions ingested so far.
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// Ingest one chunk of transactions (leaf items, any order, duplicates
    /// allowed — each row counts as its sorted, deduplicated form, exactly
    /// like [`TransactionDb::new`]).
    ///
    /// The rows are read in place, once to validate them all and then once
    /// per level to commit them, so their iterator must be `Clone`. Only an
    /// unsorted row (one not strictly increasing) is copied, one at a time,
    /// to count its distinct items for the widest-row width.
    ///
    /// # Errors
    /// Rejects empty rows, items that are not leaves of the taxonomy, and
    /// rows past [`DataError::TooManyTransactions`]'s limit; the reported
    /// transaction index is global across all pushed chunks, and a row's
    /// reported non-leaf item is its smallest. A rejected chunk leaves the
    /// builder exactly as it was.
    pub fn push_chunk<'r, I>(&mut self, rows: I) -> Result<(), DataError>
    where
        I: IntoIterator<Item = &'r [NodeId]>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        // Pass 1: validate every row before any state the view depends on
        // changes.
        let base = self.num_transactions;
        let mut count = 0;
        let mut max_width = self.max_width;
        for row in rows.clone() {
            let txn = base + count;
            if txn >= MAX_TRANSACTIONS {
                return Err(DataError::TooManyTransactions {
                    limit: MAX_TRANSACTIONS,
                });
            }
            if row.is_empty() {
                return Err(DataError::EmptyTransaction { txn });
            }
            let is_leaf = |item: &NodeId| self.leaf.get(item.index()).copied().unwrap_or(false);
            if let Some(item) = row.iter().copied().filter(|i| !is_leaf(i)).min() {
                return Err(DataError::NonLeafItem { txn, item });
            }
            let width = if row.windows(2).all(|w| w[0] < w[1]) {
                row.len()
            } else {
                self.scratch.clear();
                self.scratch.extend_from_slice(row);
                self.scratch.sort_unstable();
                self.scratch.dedup();
                self.scratch.len()
            };
            max_width = max_width.max(width);
            count += 1;
        }
        // Pass 2: commit the rows, every level on its own.
        for lv in &mut self.levels {
            lv.commit(rows.clone(), base as u32);
        }
        self.num_transactions += count;
        self.max_width = max_width;
        Ok(())
    }

    /// Finalize the view.
    ///
    /// # Errors
    /// Returns [`DataError::EmptyDatabase`] when no transactions were
    /// ingested, mirroring [`TransactionDb::new`].
    pub fn finish(self) -> Result<MultiLevelView, DataError> {
        if self.num_transactions == 0 {
            return Err(DataError::EmptyDatabase);
        }
        let levels = self
            .levels
            .into_iter()
            .map(|lv| {
                let mut view = lv.view;
                view.present = (0..view.tidsets.len())
                    .filter(|&i| !view.tidsets[i].is_empty())
                    .map(NodeId::from_index)
                    .collect();
                view
            })
            .collect();
        Ok(MultiLevelView {
            levels,
            num_transactions: self.num_transactions,
            max_width: self.max_width,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256pp};

    /// The Fig. 4 toy taxonomy and database.
    pub(crate) fn toy() -> (Taxonomy, TransactionDb) {
        let tax = Taxonomy::from_edges([
            ("a", ""),
            ("b", ""),
            ("a1", "a"),
            ("a2", "a"),
            ("b1", "b"),
            ("b2", "b"),
            ("a11", "a1"),
            ("a12", "a1"),
            ("a21", "a2"),
            ("a22", "a2"),
            ("b11", "b1"),
            ("b12", "b1"),
            ("b21", "b2"),
            ("b22", "b2"),
        ])
        .unwrap();
        let g = |s: &str| tax.node_by_name(s).unwrap();
        let rows = vec![
            vec![g("a11"), g("a22"), g("b11"), g("b22")],
            vec![g("a11"), g("a21"), g("b11")],
            vec![g("a12"), g("a21")],
            vec![g("a12"), g("a22"), g("b21")],
            vec![g("a12"), g("a22"), g("b21")],
            vec![g("a12"), g("a21"), g("b22")],
            vec![g("a21"), g("b12")],
            vec![g("b12"), g("b21"), g("b22")],
            vec![g("b12"), g("b21")],
            vec![g("a22"), g("b12"), g("b22")],
        ];
        let db = TransactionDb::new(rows).unwrap();
        db.validate_against(&tax).unwrap();
        (tax, db)
    }

    /// `db`'s rows projected to level `h` by walking the taxonomy: the
    /// independent reference the builder is checked against.
    fn reference_rows(db: &TransactionDb, tax: &Taxonomy, h: usize) -> Vec<Vec<NodeId>> {
        db.iter()
            .map(|txn| {
                let mut row: Vec<NodeId> = txn
                    .iter()
                    .map(|&it| tax.ancestor_at_level(it, h).unwrap())
                    .collect();
                row.sort_unstable();
                row.dedup();
                row
            })
            .collect()
    }

    /// Assert that `view` holds exactly the tid-lists, supports and
    /// present items of `rows` projected by [`reference_rows`], and
    /// `max_width` is the widest canonical row.
    fn assert_matches_reference(view: &MultiLevelView, tax: &Taxonomy, rows: &[Vec<NodeId>]) {
        let db = TransactionDb::new(rows.to_vec()).unwrap();
        assert_eq!(view.height(), tax.height());
        assert_eq!(view.num_transactions(), db.len());
        assert_eq!(view.max_width(), db.max_width());
        for h in 1..=tax.height() {
            let mut tids = vec![Vec::new(); tax.node_count()];
            for (tid, row) in reference_rows(&db, tax, h).iter().enumerate() {
                for &it in row {
                    tids[it.index()].push(tid as u32);
                }
            }
            let lv = view.level(h);
            let present: Vec<NodeId> = (0..tax.node_count())
                .filter(|&i| !tids[i].is_empty())
                .map(NodeId::from_index)
                .collect();
            assert_eq!(lv.present_items(), present.as_slice(), "level {h}");
            for (i, expect) in tids.iter().enumerate() {
                let node = NodeId::from_index(i);
                assert_eq!(lv.tidset(node), expect.as_slice(), "level {h} {node}");
                assert_eq!(lv.item_support(node), expect.len() as u64);
            }
        }
    }

    /// A random taxonomy: each new node hangs under a random earlier node
    /// of depth below `max_depth` (or starts a new category), so leaves sit
    /// at mixed depths and `LeafCopy` pads the shallow ones with synthetic
    /// copies, as in the census surrogate.
    fn random_padded_taxonomy(rng: &mut Xoshiro256pp, nodes: usize, max_depth: usize) -> Taxonomy {
        let mut names: Vec<(String, String)> = Vec::new();
        let mut depth: Vec<usize> = Vec::new();
        for i in 0..nodes {
            let open: Vec<usize> = (0..i).filter(|&j| depth[j] < max_depth).collect();
            let parent = if open.is_empty() || rng.gen_range(0..4) == 0 {
                None
            } else {
                Some(open[rng.gen_range(0..open.len())])
            };
            names.push((
                format!("n{i}"),
                parent.map_or(String::new(), |p| format!("n{p}")),
            ));
            depth.push(parent.map_or(1, |p| depth[p] + 1));
        }
        Taxonomy::from_edges(names.iter().map(|(c, p)| (c.as_str(), p.as_str()))).unwrap()
    }

    /// Random rows of 1–6 leaves, drawn with repeats and in random order.
    fn random_rows(rng: &mut Xoshiro256pp, tax: &Taxonomy, n: usize) -> Vec<Vec<NodeId>> {
        let leaves = tax.leaves();
        (0..n)
            .map(|_| {
                (0..rng.gen_range(1..=6))
                    .map(|_| leaves[rng.gen_range(0..leaves.len())])
                    .collect()
            })
            .collect()
    }

    /// The builder against the reference projection on random uniform and
    /// leaf-copy-padded taxonomies, with unsorted rows holding duplicates,
    /// at every chunking and thread count.
    #[test]
    fn builder_matches_reference_projection() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xB11D);
        let mut taxonomies = vec![
            Taxonomy::uniform(2, 3, 3).unwrap(),
            Taxonomy::uniform(3, 2, 4).unwrap(),
        ];
        for _ in 0..3 {
            taxonomies.push(random_padded_taxonomy(&mut rng, 24, 4));
        }
        assert!(
            taxonomies
                .iter()
                .any(|t| t.node_ids().any(|n| t.is_synthetic(n))),
            "at least one taxonomy is padded"
        );
        for tax in &taxonomies {
            let rows = random_rows(&mut rng, tax, 40);
            assert!(rows.iter().any(|r| r.windows(2).any(|w| w[0] >= w[1])));
            for chunk_len in [1usize, 3, rows.len()] {
                let mut b = MultiLevelViewBuilder::new(tax);
                for chunk in rows.chunks(chunk_len) {
                    b.push_chunk(chunk.iter().map(Vec::as_slice)).unwrap();
                }
                assert_eq!(b.num_transactions(), rows.len());
                assert_matches_reference(&b.finish().unwrap(), tax, &rows);
            }
        }
    }

    #[test]
    fn leaf_level_is_identity() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax).unwrap();
        assert_eq!(mlv.height(), 3);
        assert_eq!(mlv.num_transactions(), 10);
        assert_eq!(mlv.max_width(), 4);
        // Every leaf's tid-list is exactly the rows holding it.
        for &leaf in tax.leaves() {
            let expect: Vec<u32> = db
                .iter()
                .enumerate()
                .filter(|(_, txn)| txn.contains(&leaf))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(mlv.level(3).tidset(leaf), expect.as_slice(), "{leaf}");
        }
    }

    /// The lazily built bitmaps and rows are caches, not part of the value:
    /// a view whose caches were built equals a fresh build and its own
    /// clone.
    #[test]
    fn equality_ignores_built_bitmaps() {
        let (tax, db) = toy();
        let built = MultiLevelView::build(&db, &tax).unwrap();
        for h in 1..=built.height() {
            assert!(built.bitmaps(h).iter().any(Option::is_some), "level {h}");
            assert_eq!(built.rows(h).len(), db.len(), "level {h}");
        }
        let fresh = MultiLevelView::build(&db, &tax).unwrap();
        assert!(built.levels.iter().all(|lv| lv.bitmaps.get().is_some()));
        assert!(built.levels.iter().all(|lv| lv.rows.get().is_some()));
        assert!(fresh.levels.iter().all(|lv| lv.bitmaps.get().is_none()));
        assert!(fresh.levels.iter().all(|lv| lv.rows.get().is_none()));
        assert_eq!(built, fresh);
        assert_eq!(built.clone(), fresh);
        assert_eq!(fresh.clone(), built);
    }

    /// The CSR rows are the transposed tid-lists: on random uniform and
    /// padded taxonomies, row `t` of level `h` holds exactly the items whose
    /// tid-list holds `t`, ascending, equals the reference projection of
    /// transaction `t`, and the rows' bytes are the offsets' plus the items'.
    #[test]
    fn rows_are_the_transposed_tidlists() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xC5A);
        let taxonomies = [
            Taxonomy::uniform(3, 3, 2).unwrap(),
            random_padded_taxonomy(&mut rng, 30, 4),
        ];
        for tax in &taxonomies {
            let db = TransactionDb::new(random_rows(&mut rng, tax, 60)).unwrap();
            let view = MultiLevelView::build(&db, tax).unwrap();
            for h in 1..=view.height() {
                let lv = view.level(h);
                let rows = view.rows(h);
                assert_eq!(rows.len(), db.len());
                let mut occurrences = 0;
                for (t, expect) in reference_rows(&db, tax, h).iter().enumerate() {
                    let row = rows.row(t as u32);
                    assert!(row.windows(2).all(|w| w[0] < w[1]), "h {h} row {t}");
                    assert_eq!(row, expect.as_slice(), "h {h} row {t}");
                    let transposed: Vec<NodeId> = lv
                        .present_items()
                        .iter()
                        .copied()
                        .filter(|&it| lv.tidset(it).binary_search(&(t as u32)).is_ok())
                        .collect();
                    assert_eq!(row, transposed.as_slice(), "h {h} row {t}");
                    occurrences += row.len();
                }
                assert_eq!(lv.occurrences(), occurrences as u64, "h {h}");
                assert_eq!(rows.bytes(), 4 * (db.len() + 1) + 4 * occurrences);
                assert!(std::ptr::eq(view.rows(h), rows), "built once");
            }
        }
    }

    #[test]
    fn level1_projection_matches_paper_figure() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax).unwrap();
        let a = tax.node_by_name("a").unwrap();
        let b = tax.node_by_name("b").unwrap();
        let v1 = mlv.level(1);
        // Fig. 4 right column: D3 = {a}, D8/D9 = {b}, everything else {a, b}.
        let holds = |item: NodeId, tid: u32| v1.tidset(item).contains(&tid);
        assert!(holds(a, 2) && !holds(b, 2));
        assert!(holds(b, 7) && !holds(a, 7));
        assert!(holds(b, 8) && !holds(a, 8));
        assert!(holds(a, 0) && holds(b, 0));
        assert_eq!(v1.present_items(), &[a, b]);
        // Supports from the figure: a appears in D1–D7 and D10 (8 rows);
        // b appears everywhere except D3 (9 rows).
        assert_eq!(v1.item_support(a), 8);
        assert_eq!(v1.item_support(b), 9);
    }

    #[test]
    fn level2_projection_merges_siblings() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax).unwrap();
        let a1 = tax.node_by_name("a1").unwrap();
        let a2 = tax.node_by_name("a2").unwrap();
        let v2 = mlv.level(2);
        // D2 = {a11, a21, b11} → {a1, a2, b1}: 3 distinct level-2 items.
        let d2: Vec<NodeId> = v2
            .present_items()
            .iter()
            .copied()
            .filter(|&it| v2.tidset(it).contains(&1))
            .collect();
        assert_eq!(d2.len(), 3);
        assert!(d2.contains(&a1));
        assert!(d2.contains(&a2));
        // D1 = {a11, a22, b11, b22}: b11 and b22 merge into b1 and b2, but
        // a1 holds tid 0 once.
        assert_eq!(v2.tidset(a1).iter().filter(|&&t| t == 0).count(), 1);
        // Supports from Fig. 4 middle column.
        assert_eq!(v2.item_support(a1), 6); // D1-D6
        assert_eq!(v2.item_support(a2), 8); // D1-D7, D10
    }

    #[test]
    fn tidsets_agree_with_supports() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax).unwrap();
        for h in 1..=3 {
            let v = mlv.level(h);
            for &item in v.present_items() {
                let tids = v.tidset(item);
                assert_eq!(
                    tids.len() as u64,
                    v.item_support(item),
                    "level {h} item {item}"
                );
                assert!(
                    tids.windows(2).all(|w| w[0] < w[1]),
                    "tidset must be sorted unique"
                );
                for &tid in tids {
                    assert!(db
                        .transaction(tid as usize)
                        .iter()
                        .any(|&leaf| tax.ancestor_at_level(leaf, h).unwrap() == item));
                }
            }
        }
    }

    #[test]
    fn absent_item_has_zero_support_and_empty_tidset() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax).unwrap();
        let a11 = tax.node_by_name("a11").unwrap();
        // a11 is a leaf; at level 1 only categories are present.
        assert_eq!(mlv.level(1).item_support(a11), 0);
        assert!(mlv.level(1).tidset(a11).is_empty());
        assert!(!mlv.level(1).present_items().contains(&a11));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn level_zero_panics() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax).unwrap();
        let _ = mlv.level(0);
    }

    #[test]
    fn builder_chunked_matches_build() {
        let (tax, db) = toy();
        let full = MultiLevelView::build(&db, &tax).unwrap();
        let rows: Vec<&[NodeId]> = db.iter().collect();
        for chunk_len in [1usize, 3, 10] {
            let mut b = MultiLevelViewBuilder::new(&tax);
            for chunk in rows.chunks(chunk_len) {
                b.push_chunk(chunk.iter().copied()).unwrap();
            }
            assert_eq!(b.finish().unwrap(), full, "chunk_len={chunk_len}");
        }
    }

    #[test]
    fn builder_rejects_bad_chunks_atomically() {
        let (tax, db) = toy();
        let rows: Vec<&[NodeId]> = db.iter().collect();
        let full = MultiLevelView::build(&db, &tax).unwrap();
        let a1 = tax.node_by_name("a1").unwrap();
        let wide: Vec<NodeId> = tax.leaves().to_vec();
        let mut b = MultiLevelViewBuilder::new(&tax);
        b.push_chunk(rows[..4].iter().copied()).unwrap();
        // Chunks whose LAST row is invalid (an internal node, or empty),
        // after a valid row wider than any in the database: the valid
        // prefix must NOT be ingested — the failed chunk leaves no
        // trace, not in the tid-lists and not in `max_width`. An unsorted
        // row reports its smallest non-leaf item, as its canonical form
        // would.
        let (inner_b, b22) = (
            tax.node_by_name("b").unwrap(),
            tax.node_by_name("b22").unwrap(),
        );
        assert!(inner_b < a1);
        let bad_last: [(&[NodeId], DataError); 3] = [
            (&[a1], DataError::NonLeafItem { txn: 11, item: a1 }),
            (&[], DataError::EmptyTransaction { txn: 11 }),
            (
                &[b22, a1, inner_b],
                DataError::NonLeafItem {
                    txn: 11,
                    item: inner_b,
                },
            ),
        ];
        for (last, expect) in bad_last {
            let mut bad: Vec<&[NodeId]> = rows[4..].to_vec();
            bad.push(&wide);
            bad.push(last);
            assert_eq!(b.push_chunk(bad.iter().copied()).unwrap_err(), expect);
            assert_eq!(
                b.num_transactions(),
                4,
                "failed chunk must not be partially ingested"
            );
        }
        // The builder stays usable: retry with the valid rows and match
        // the full build exactly.
        b.push_chunk(rows[4..].iter().copied()).unwrap();
        assert_eq!(b.finish().unwrap(), full);
        // Empty rows and empty builders report the canonical errors.
        let mut b = MultiLevelViewBuilder::new(&tax);
        assert_eq!(
            b.push_chunk([&[][..]]).unwrap_err(),
            DataError::EmptyTransaction { txn: 0 }
        );
        assert_eq!(
            MultiLevelViewBuilder::new(&tax).finish().unwrap_err(),
            DataError::EmptyDatabase
        );
    }

    /// Tids are `u32`: the builder refuses, whole, a chunk that would
    /// number a transaction past the limit instead of wrapping its tid.
    #[test]
    fn builder_rejects_transactions_past_the_tid_limit() {
        let (tax, db) = toy();
        let row = db.transaction(0);
        let limit = DataError::TooManyTransactions {
            limit: MAX_TRANSACTIONS,
        };
        let mut b = MultiLevelViewBuilder::starting_at(&tax, MAX_TRANSACTIONS - 1);
        assert_eq!(b.push_chunk([row, row]).unwrap_err(), limit);
        assert_eq!(b.num_transactions(), MAX_TRANSACTIONS - 1);
        b.push_chunk([row]).unwrap();
        assert_eq!(b.num_transactions(), MAX_TRANSACTIONS);
        assert_eq!(b.push_chunk([row]).unwrap_err(), limit);
        let view = b.finish().unwrap();
        assert_eq!(view.level(3).tidset(row[0]), &[u32::MAX - 1]);
        assert!(limit.to_string().contains(&MAX_TRANSACTIONS.to_string()));
    }

    #[test]
    fn present_items_sorted_and_exact() {
        let (tax, db) = toy();
        let mlv = MultiLevelView::build(&db, &tax).unwrap();
        let v1 = mlv.level(1);
        let names: Vec<&str> = v1.present_items().iter().map(|&n| tax.name(n)).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
