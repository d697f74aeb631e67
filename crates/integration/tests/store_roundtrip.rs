//! FBIN storage gates: text↔FBIN round-trip idempotence, full-load and
//! chunk-streamed mining equivalence, and corruption/truncation behavior.
//!
//! These are the cross-crate acceptance tests for the `flipper-store`
//! subsystem: a dataset must survive any composition of the two formats with
//! **bit-identical** content, mining an FBIN input — loaded or streamed, at
//! any thread count — must produce exactly the text path's `MiningResult`,
//! and damaged files must fail with typed errors rather than panics or
//! silently wrong data.

use flipper_core::{mine_with_view, FlipperConfig, MinSupports, MiningResult};
use flipper_data::format::{read_dataset, write_dataset, Dataset};
use flipper_data::VerticalMemo;
use flipper_datagen::{planted, quest, surrogate};
use flipper_measures::Thresholds;
use flipper_store::{read_fbin, stream_view, to_fbin_bytes, FbinReader, FbinWriter, StoreError};
use std::io::Cursor;

fn quest_dataset() -> Dataset {
    quest::generate(&quest::QuestParams {
        num_transactions: 500,
        roots: 3,
        fanout: 2,
        levels: 3,
        num_patterns: 20,
        ..Default::default()
    })
    .into_dataset()
}

fn text_bytes(ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    write_dataset(&mut out, ds).expect("text serialization succeeds");
    out
}

/// Assert two mining results agree on everything the paper reports:
/// patterns (itemsets, labels, per-level supports and correlations), cell
/// summaries and run statistics (all but wall-clock time).
fn assert_results_identical(a: &MiningResult, b: &MiningResult, ctx: &str) {
    assert_eq!(a.patterns, b.patterns, "{ctx}: patterns");
    assert_eq!(a.cells, b.cells, "{ctx}: cell summaries");
    let (s, t) = (&a.stats, &b.stats);
    assert_eq!(s.candidates_generated, t.candidates_generated, "{ctx}");
    assert_eq!(s.frequent_found, t.frequent_found, "{ctx}");
    assert_eq!(s.positive_found, t.positive_found, "{ctx}");
    assert_eq!(s.negative_found, t.negative_found, "{ctx}");
    assert_eq!(s.pruned_by_sibp, t.pruned_by_sibp, "{ctx}");
    assert_eq!(s.pruned_by_support, t.pruned_by_support, "{ctx}");
    assert_eq!(s.cells_evaluated, t.cells_evaluated, "{ctx}");
    assert_eq!(s.tpg_cap, t.tpg_cap, "{ctx}");
    assert_eq!(s.peak_resident_itemsets, t.peak_resident_itemsets, "{ctx}");
    assert_eq!(s.counter, t.counter, "{ctx}: counter stats");
}

/// text → fbin → text is the identity on the serialized text bytes, for
/// both generator families the paper's experiments use.
#[test]
fn text_fbin_text_is_idempotent() {
    let cases = [
        ("quest", quest_dataset()),
        (
            "planted",
            planted::generate(&planted::PlantedParams::default()).into_dataset(),
        ),
    ];
    for (name, ds) in cases {
        let text1 = text_bytes(&ds);
        let via_text = read_dataset(Cursor::new(&text1[..])).unwrap();
        let fbin = to_fbin_bytes(&via_text).unwrap();
        let via_fbin = read_fbin(&fbin[..]).unwrap();
        assert_eq!(via_text.taxonomy, via_fbin.taxonomy, "{name}");
        assert_eq!(via_text.db, via_fbin.db, "{name}");
        let text2 = text_bytes(&via_fbin);
        assert_eq!(text1, text2, "{name}: text→fbin→text must be the identity");
        // And fbin → fbin is stable too.
        assert_eq!(fbin, to_fbin_bytes(&via_fbin).unwrap(), "{name}");
    }
}

/// The census surrogate carries leaf-copy padding (synthetic nodes): the
/// round-trip through the dictionary (which stores original names only)
/// must re-pad identically.
#[test]
fn padded_taxonomy_roundtrips() {
    let ds = surrogate::census(9).into_dataset();
    let back = read_fbin(&to_fbin_bytes(&ds).unwrap()[..]).unwrap();
    assert_eq!(ds.taxonomy, back.taxonomy);
    assert_eq!(ds.db, back.db);
}

/// Acceptance gate: mining an FBIN input through BOTH the full-load path
/// and the `chunks()` streaming path yields bit-identical `MiningResult`s
/// (patterns, labels, counts, stats) to the text path, at 1 and 4
/// counting threads.
#[test]
fn fbin_mining_matches_text_mining_loaded_and_streamed() {
    let ds = quest_dataset();
    let text = text_bytes(&ds);
    let fbin = to_fbin_bytes(&ds).unwrap();

    let base = FlipperConfig::new(
        Thresholds::new(0.4, 0.2),
        MinSupports::Fractions(vec![0.05, 0.01, 0.005]),
    );
    for threads in [1usize, 4] {
        let cfg = base.clone().with_threads(threads);
        let text_ds = read_dataset(Cursor::new(&text[..])).unwrap();
        let mine = |ds: &Dataset| {
            flipper_api::Session::from_db(&ds.taxonomy, &ds.db)
                .unwrap()
                .mine(&cfg)
                .unwrap()
        };
        let baseline = mine(&text_ds);
        assert!(
            baseline.stats.candidates_generated > 0,
            "config must exercise the miner"
        );

        let loaded = read_fbin(&fbin[..]).unwrap();
        assert_eq!(loaded.taxonomy, text_ds.taxonomy);
        assert_eq!(loaded.db, text_ds.db);
        let loaded_result = mine(&loaded);
        assert_results_identical(
            &loaded_result,
            &baseline,
            &format!("fbin full-load, threads={threads}"),
        );

        let (tax, view) = stream_view(FbinReader::new(&fbin[..]).unwrap()).unwrap();
        assert_eq!(tax, text_ds.taxonomy);
        let streamed_result =
            mine_with_view(&tax, &view, &cfg, &VerticalMemo::new(), None).unwrap();
        assert_results_identical(
            &streamed_result,
            &baseline,
            &format!("fbin streamed, threads={threads}"),
        );
    }
}

/// Streaming with many small chunks must agree with one big chunk — the
/// chunk boundaries carry no information.
#[test]
fn chunk_size_does_not_affect_results() {
    let ds = quest_dataset();
    let mut tiny_chunks = Vec::new();
    let mut w = FbinWriter::with_chunk_size(&mut tiny_chunks, &ds.taxonomy, 64).unwrap();
    for txn in ds.db.iter() {
        w.write_transaction(txn).unwrap();
    }
    w.finish().unwrap();
    let big = to_fbin_bytes(&ds).unwrap();
    let (tax_a, view_a) = stream_view(FbinReader::new(&tiny_chunks[..]).unwrap()).unwrap();
    let (tax_b, view_b) = stream_view(FbinReader::new(&big[..]).unwrap()).unwrap();
    assert_eq!(tax_a, tax_b);
    assert_eq!(view_a, view_b);
    // A 64-byte target on a 500-transaction dataset really produced many
    // chunks (otherwise this test tests nothing).
    let mut r = FbinReader::new(&tiny_chunks[..]).unwrap();
    assert!(r.chunks().count() > 10, "expected many small chunks");
}

/// Every strict prefix of a valid file fails with a typed error — never a
/// panic, never a silent partial dataset.
#[test]
fn truncation_always_fails_typed() {
    let ds = planted::generate(&planted::PlantedParams::default()).into_dataset();
    let bytes = to_fbin_bytes(&ds).unwrap();
    for cut in 0..bytes.len() {
        match read_fbin(&bytes[..cut]) {
            Ok(_) => panic!("prefix of {cut}/{} bytes parsed successfully", bytes.len()),
            Err(
                StoreError::Truncated { .. }
                | StoreError::BadMagic(_)
                | StoreError::ChecksumMismatch { .. }
                | StoreError::Corrupt { .. },
            ) => {}
            Err(other) => panic!("unexpected error kind at cut {cut}: {other:?}"),
        }
    }
}

/// A flipped payload byte is caught by the section checksum.
#[test]
fn bit_rot_fails_checksum() {
    let ds = quest_dataset();
    let bytes = to_fbin_bytes(&ds).unwrap();
    // Inside the dictionary payload.
    let mut corrupt = bytes.clone();
    corrupt[20] ^= 0x04;
    assert!(matches!(
        read_fbin(&corrupt[..]).unwrap_err(),
        StoreError::ChecksumMismatch { .. }
    ));
    // Deep inside the transaction chunks (three quarters into the file).
    let mut corrupt = bytes.clone();
    let k = bytes.len() * 3 / 4;
    corrupt[k] ^= 0x04;
    let err = read_fbin(&corrupt[..]).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::ChecksumMismatch { .. }
                | StoreError::Corrupt { .. }
                | StoreError::Truncated { .. }
        ),
        "unexpected error kind: {err:?}"
    );
    // Streaming hits the same wall: the iterator yields the error.
    let mut reader = FbinReader::new(&corrupt[..]).unwrap();
    let outcome: Result<Vec<_>, _> = reader.chunks().collect();
    assert!(outcome.is_err(), "streamed read must also surface bit rot");
}
