//! Support-cache equivalence: seeding a sweep from the session-level
//! support cache is a pure cost lever — the labeled results and their
//! `flipper-results/v1` bytes are identical to an unseeded sweep.

use flipper_api::{FlipperConfig, Generator, JsonWriter, MinSupports, Session};
use flipper_datagen::quest::QuestParams;
use flipper_measures::Thresholds;

fn quest_dataset() -> flipper_api::Dataset {
    Generator::Quest(QuestParams::default().with_transactions(300).with_seed(11)).dataset()
}

fn quest_config() -> FlipperConfig {
    FlipperConfig::new(
        Thresholds::new(0.5, 0.25),
        MinSupports::Counts(vec![6, 3, 2, 1]),
    )
}

/// Seeded sweeps answer already-counted supports from the session cache;
/// the labeled results — and their serialized bytes — are identical to an
/// unseeded sweep of the same grid.
#[test]
fn seeded_sweep_is_byte_identical_to_unseeded() {
    let dataset = quest_dataset();
    let base = quest_config();
    let render = |runs: &[flipper_api::SweepRun], session: &Session| {
        let mut json = JsonWriter::new(Vec::new());
        flipper_api::emit_runs(&mut json, session.taxonomy(), runs).unwrap();
        json.into_inner()
    };
    // Fresh session per mode so the seeded one owns a warm cache and the
    // unseeded one never builds any.
    let seeded_session = Session::open(&dataset).unwrap();
    let grid = |session: &Session, seed: bool| {
        session
            .sweep()
            .with_seeding(seed)
            .thresholds_grid(&base, &[0.5, 0.4, 0.3], &[0.1, 0.25])
            .run()
            .unwrap()
    };
    let warmup = grid(&seeded_session, true);
    assert!(!warmup.is_empty());
    assert!(
        seeded_session.support_cache_len() > 0,
        "sweep must deposit supports into the session cache"
    );
    let seeded = grid(&seeded_session, true);
    assert!(
        seeded_session.support_cache_stats().seed_hits > 0,
        "warm sweep must hit the support cache"
    );
    let unseeded_session = Session::open(&dataset).unwrap();
    let unseeded = grid(&unseeded_session, false);
    assert_eq!(
        String::from_utf8_lossy(&render(&seeded, &seeded_session)),
        String::from_utf8_lossy(&render(&unseeded, &unseeded_session)),
        "seeding changes counting cost, never results"
    );
}
