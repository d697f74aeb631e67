//! One iteration of each workload, timed around the public `flipper-api`
//! calls the CLI itself makes: `Session::open_path`, `Session::mine` or
//! `Sweep::run`, `JsonWriter`, and (surrogates) `flipper_store::to_fbin_bytes`.

use crate::Workload;
use flipper_api::{
    FlipperConfig, JsonWriter, MinSupports, MiningResult, PruningConfig, ResultSink, RunStats,
    Session, Taxonomy, Thresholds,
};
use flipper_data::format::Dataset;
use std::any::Any;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `quest-sweep`, sweep A: γ ∈ {0.5, 0.4, 0.3} × ε ∈ {0.25, 0.1}.
const SWEEP_A: (&[f64], &[f64]) = (&[0.5, 0.4, 0.3], &[0.25, 0.1]);
/// `quest-sweep`, sweep B — the paper's tuning recipe: γ 0.3 with ε lowered
/// step by step. Two of its points were mined by sweep A, so B seeds from
/// what A absorbed into the session support cache.
const SWEEP_B: (&[f64], &[f64]) = (&[0.3], &[0.25, 0.2, 0.15, 0.1, 0.05]);

/// One dataset a workload mines, with its configuration.
pub struct Input {
    pub name: &'static str,
    /// The generated file.
    pub path: PathBuf,
    pub cfg: FlipperConfig,
    /// `surrogates` only: the dataset each pass re-encodes to `pass_path`
    /// and then opens.
    pub dataset: Option<Dataset>,
    pub pass_path: PathBuf,
}

impl Input {
    /// Read `<name>.fbin` / `<name>.params` from `dir` and build the
    /// workload's configuration.
    pub fn load(workload: Workload, name: &'static str, dir: &Path) -> Result<Input, String> {
        let path = dir.join(format!("{name}.fbin"));
        let params_path = dir.join(format!("{name}.params"));
        let params = std::fs::read_to_string(&params_path)
            .map_err(|e| format!("read {}: {e}", params_path.display()))?;
        let bad = || format!("malformed {}: {params:?}", params_path.display());
        let mut fields = params.split_whitespace();
        let float = |s: Option<&str>| s.and_then(|s| s.parse::<f64>().ok()).ok_or_else(bad);
        let gamma = float(fields.next())?;
        let epsilon = float(fields.next())?;
        let min_support = fields
            .next()
            .ok_or_else(bad)?
            .split(',')
            .map(|f| f.parse::<f64>().map_err(|_| bad()))
            .collect::<Result<Vec<_>, _>>()?;
        let (pruning, threads) = match workload {
            Workload::QuestBasic => (PruningConfig::BASIC, 2),
            Workload::QuestSweep | Workload::Surrogates => (PruningConfig::FULL, 1),
        };
        let cfg = FlipperConfig {
            thresholds: Thresholds { gamma, epsilon },
            min_support: MinSupports::Fractions(min_support),
            pruning,
            threads,
            ..Default::default()
        };
        let dataset = match workload {
            Workload::Surrogates => Some(read_dataset(&path)?),
            _ => None,
        };
        Ok(Input {
            name,
            pass_path: dir.join(format!("{name}.pass.fbin")),
            path,
            cfg,
            dataset,
        })
    }

    /// The file an iteration opens: the generated one, or for `surrogates`
    /// the one each pass writes.
    pub fn opened_path(&self) -> &Path {
        match self.dataset {
            Some(_) => &self.pass_path,
            None => &self.path,
        }
    }
}

/// Materialize an FBIN file (untimed set-up).
pub fn read_dataset(path: &Path) -> Result<Dataset, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    flipper_store::read_fbin(std::io::BufReader::new(file))
        .map_err(|e| format!("read {}: {e}", path.display()))
}

/// The work counters of one mining run that must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    pub candidates: u64,
    pub support_pruned: u64,
    pub sibp_pruned: u64,
    pub cells: u64,
    pub frequent: u64,
    pub peak_resident: u64,
    pub seeded: u64,
    pub intersections: u64,
    pub prefix_reuses: u64,
    pub counted: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
}

impl Counters {
    fn of(s: &RunStats) -> Counters {
        Counters {
            candidates: s.candidates_generated,
            support_pruned: s.pruned_by_support,
            sibp_pruned: s.pruned_by_sibp,
            cells: s.cells_evaluated,
            frequent: s.frequent_found,
            peak_resident: s.peak_resident_itemsets,
            seeded: s.seeded_supports,
            intersections: s.counter.intersections,
            prefix_reuses: s.counter.prefix_reuses,
            counted: s.counter.candidates_counted,
            cache_lookups: s.cache.lookups,
            cache_hits: s.cache.exact_hits + s.cache.parent_hits,
        }
    }
}

/// One operation: a mine call, or one point of a sweep.
pub struct Op {
    pub label: String,
    /// Its `flipper-results/v1` bytes and counters, or why it failed.
    pub outcome: Result<(Vec<u8>, Counters), String>,
}

/// What one iteration measured. Times are seconds, summed over the
/// iteration's calls of each kind.
#[derive(Default)]
pub struct Sample {
    pub run_s: f64,
    pub setup_s: f64,
    pub mine_s: f64,
    pub emit_s: f64,
    pub encode_s: f64,
    pub ops: Vec<Op>,
    /// Per sweep: support-cache seed (hits, lookups) it added.
    pub seed_rounds: Vec<(u64, u64)>,
}

impl Sample {
    fn fail(&mut self, label: &str, count: usize, why: String) {
        for _ in 0..count {
            self.ops.push(Op {
                label: label.to_string(),
                outcome: Err(why.clone()),
            });
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run one iteration of `workload`, from opening the data to writing the
/// results. Sessions and results are dropped after the clock stops.
pub fn iterate(workload: Workload, inputs: &[Input]) -> Sample {
    let mut s = Sample::default();
    let mut keep: Vec<Box<dyn Any>> = Vec::new();
    let t = Instant::now();
    match workload {
        Workload::QuestSweep => sweep_pass(&inputs[0], &mut s, &mut keep),
        Workload::QuestBasic | Workload::Surrogates => {
            for input in inputs {
                mine_pass(input, &mut s, &mut keep);
            }
        }
    }
    s.run_s = secs(t);
    drop(keep);
    s
}

/// Open a session on `path`, charging the time to `setup_s`.
fn open(path: &Path, s: &mut Sample) -> Result<Session, String> {
    let t = Instant::now();
    let session = Session::open_path(path).map_err(|e| e.to_string());
    s.setup_s += secs(t);
    session
}

/// `[encode → write →] open → mine → emit` on one input.
fn mine_pass(input: &Input, s: &mut Sample, keep: &mut Vec<Box<dyn Any>>) {
    if let Some(ds) = &input.dataset {
        let t = Instant::now();
        let bytes = flipper_store::to_fbin_bytes(ds);
        s.encode_s += secs(t);
        let written = bytes
            .map_err(|e| e.to_string())
            .and_then(|b| std::fs::write(&input.pass_path, b).map_err(|e| e.to_string()));
        if let Err(e) = written {
            return s.fail(input.name, 1, format!("encode {}: {e}", input.name));
        }
    }
    let session = match open(input.opened_path(), s) {
        Ok(session) => session,
        Err(e) => return s.fail(input.name, 1, e),
    };
    let t = Instant::now();
    let result = session.mine(&input.cfg);
    s.mine_s += secs(t);
    match result {
        Ok(result) => {
            emit(s, input.name, session.taxonomy(), &input.cfg, &result);
            keep.push(Box::new(result));
        }
        Err(e) => s.fail(input.name, 1, e.to_string()),
    }
    keep.push(Box::new(session));
}

/// `open → sweep A → sweep B → emit` on a fresh session.
fn sweep_pass(input: &Input, s: &mut Sample, keep: &mut Vec<Box<dyn Any>>) {
    let points = |(gammas, epsilons): (&[f64], &[f64])| {
        gammas
            .iter()
            .map(|g| epsilons.iter().filter(|&e| e < g).count())
            .sum::<usize>()
    };
    let session = match open(&input.path, s) {
        Ok(session) => session,
        Err(e) => return s.fail("sweep", points(SWEEP_A) + points(SWEEP_B), e),
    };
    for (name, grid) in [("sweep A", SWEEP_A), ("sweep B", SWEEP_B)] {
        let before = session.support_cache_stats();
        let t = Instant::now();
        let runs = session
            .sweep()
            .thresholds_grid(&input.cfg, grid.0, grid.1)
            .run();
        s.mine_s += secs(t);
        let after = session.support_cache_stats();
        s.seed_rounds.push((
            after.seed_hits - before.seed_hits,
            after.seed_lookups - before.seed_lookups,
        ));
        match runs {
            Ok(runs) => {
                for run in &runs {
                    emit(s, &run.label, session.taxonomy(), &run.config, &run.result);
                }
                keep.push(Box::new(runs));
            }
            Err(e) => s.fail(name, points(grid), e.to_string()),
        }
    }
    keep.push(Box::new(session));
}

/// Write one operation's `flipper-results/v1` document, charging the time
/// to `emit_s`.
fn emit(
    s: &mut Sample,
    label: &str,
    taxonomy: &Taxonomy,
    cfg: &FlipperConfig,
    result: &MiningResult,
) {
    let t = Instant::now();
    let mut json = JsonWriter::new(Vec::new());
    let written = json
        .consume(label, taxonomy, cfg, result)
        .and_then(|()| json.finish());
    s.emit_s += secs(t);
    s.ops.push(Op {
        label: label.to_string(),
        outcome: written
            .map(|()| (json.into_inner(), Counters::of(&result.stats)))
            .map_err(|e| e.to_string()),
    });
}

/// Decode every chunk of `path` with no projection — the `store` layer's
/// share of `Session::open_path`.
pub fn decode_only(path: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut reader = flipper_store::FbinReader::new(std::io::BufReader::new(file))
        .map_err(|e| format!("decode {}: {e}", path.display()))?;
    for chunk in reader.chunks() {
        std::hint::black_box(chunk.map_err(|e| format!("decode {}: {e}", path.display()))?);
    }
    Ok(secs(t))
}
