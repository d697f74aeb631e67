//! Input generation. Runs in a child process (`flipper-perfbench gen …`)
//! so that the generators' memory never counts toward the measured
//! process's peak RSS, and the measured process sees only FBIN files.
//!
//! `--data-seed` picks the generator seed, i.e. *which* dataset; `--seed`
//! picks a permutation of its transactions. Mining results are facts about
//! the transaction multiset, so every `--seed` of one data seed must give
//! byte-identical `flipper-results/v1` output (pinned in
//! `fingerprints.txt`), while the files the program reads differ.

use crate::Workload;
use flipper_api::{FlipperConfig, MinSupports};
use flipper_data::format::Dataset;
use flipper_data::TransactionDb;
use flipper_datagen::{quest, surrogate};
use flipper_rng::{Rng, Xoshiro256pp};
use std::path::Path;

/// Quest transaction count: large enough that BASIC mining takes about a
/// second, small enough that a run holds a dozen iterations.
const QUEST_TRANSACTIONS: usize = 20_000;
/// MEDLINE surrogate scale (1.0 ≈ the paper's 640K citations).
const MEDLINE_SCALE: f64 = 0.1;

/// Write `<name>.fbin` plus `<name>.params` (γ, ε and the per-level
/// minimum-support fractions the dataset is mined at) for every dataset of
/// `workload` into `dir`.
pub fn generate(
    workload: Workload,
    data_seed: u64,
    shuffle_seed: u64,
    dir: &Path,
) -> Result<(), String> {
    for &name in workload.datasets() {
        let (ds, gamma, epsilon, min_support) = match name {
            "quest" => {
                let params = quest::QuestParams::default()
                    .with_transactions(QUEST_TRANSACTIONS)
                    .with_seed(data_seed);
                // The paper's defaults: γ 0.3, ε 0.1, θ 1%/0.1%/0.05%/0.01%.
                let cfg = FlipperConfig::default();
                let MinSupports::Fractions(fractions) = cfg.min_support else {
                    return Err("default minimum supports are not fractions".into());
                };
                let t = cfg.thresholds;
                (
                    quest::generate(&params).into_dataset(),
                    t.gamma,
                    t.epsilon,
                    fractions,
                )
            }
            other => {
                let data = match other {
                    "census" => surrogate::census(data_seed),
                    "medline" => surrogate::medline(MEDLINE_SCALE, data_seed),
                    "groceries" => surrogate::groceries(data_seed),
                    _ => return Err(format!("no generator for dataset {other}")),
                };
                let (gamma, epsilon) = data.thresholds;
                let min_support = data.min_support.clone();
                (data.into_dataset(), gamma, epsilon, min_support)
            }
        };
        let ds = shuffled(ds, shuffle_seed)?;
        let bytes = flipper_store::to_fbin_bytes(&ds).map_err(|e| format!("encode {name}: {e}"))?;
        write(&dir.join(format!("{name}.fbin")), &bytes)?;
        let fractions: Vec<String> = min_support.iter().map(f64::to_string).collect();
        let params = format!("{gamma} {epsilon} {}\n", fractions.join(","));
        write(&dir.join(format!("{name}.params")), params.as_bytes())?;
    }
    Ok(())
}

/// The same transactions in a seeded Fisher–Yates order.
fn shuffled(ds: Dataset, seed: u64) -> Result<Dataset, String> {
    let mut rows: Vec<_> = ds.db.iter().map(<[_]>::to_vec).collect();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    for i in (1..rows.len()).rev() {
        let j = rng.gen_range(0..=i);
        rows.swap(i, j);
    }
    let db = TransactionDb::new(rows).map_err(|e| format!("shuffled database: {e}"))?;
    Ok(Dataset {
        taxonomy: ds.taxonomy,
        db,
    })
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}
