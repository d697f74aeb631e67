//! flipper-perfbench: one benchmark of the flipper pipeline, three
//! workloads, end-to-end metrics untraced and a per-layer split traced.
//!
//! ```text
//! flipper-perfbench --workload quest-basic|quest-sweep|surrogates
//!                   --seed N --seconds S --trace 0|1 [--data-seed N]
//! ```
//!
//! A run generates its inputs (in a child process), mines one untimed
//! reference iteration, then repeats timed iterations for `--seconds`.
//! With `--trace 1` every other iteration runs with the `flipper-obs`
//! recorder on, and its spans give the per-layer split. Every operation's
//! `flipper-results/v1` bytes and work counters are checked against the
//! reference and, where pinned, against `fingerprints.txt`; a mismatch or
//! an `Err` counts as a failed operation. The last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. See
//! `NOTES.md` for what each metric means.

mod gen;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Counters, Input, Sample};

/// Fingerprints of the reference results, one line per operation:
/// `<workload> <data-seed> <label> <fnv1a-64 hex>`.
const PINS: &str = include_str!("../fingerprints.txt");

/// Iterations a run always measures, however short `--seconds` is.
const MIN_SAMPLES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QuestBasic,
    QuestSweep,
    Surrogates,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        [
            Workload::QuestBasic,
            Workload::QuestSweep,
            Workload::Surrogates,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::QuestBasic => "quest-basic",
            Workload::QuestSweep => "quest-sweep",
            Workload::Surrogates => "surrogates",
        }
    }

    /// The generator seed used when `--data-seed` is absent.
    fn default_data_seed(self) -> u64 {
        match self {
            Workload::QuestBasic | Workload::QuestSweep => 7,
            Workload::Surrogates => 3,
        }
    }

    pub fn datasets(self) -> &'static [&'static str] {
        match self {
            Workload::QuestBasic | Workload::QuestSweep => &["quest"],
            Workload::Surrogates => &["census", "medline", "groceries"],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    data_seed: u64,
    seconds: f64,
    trace: bool,
    /// `gen` mode: the directory to write inputs to.
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (gen_mode, flags) = match args.first().map(String::as_str) {
        Some("gen") => (true, &args[1..]),
        _ => (false, args),
    };
    let get = |key: &str| -> Option<String> {
        let at = flags.iter().position(|a| a == key)?;
        flags.get(at + 1).cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let number = |v: Option<String>, key: &str| -> Result<Option<f64>, String> {
        v.map(|v| v.parse::<f64>().map_err(|_| format!("bad {key} {v:?}")))
            .transpose()
    };
    let int = |v: Option<String>, key: &str| -> Result<Option<u64>, String> {
        v.map(|v| v.parse::<u64>().map_err(|_| format!("bad {key} {v:?}")))
            .transpose()
    };
    Ok(Args {
        workload,
        seed: int(get("--seed"), "--seed")?.unwrap_or(1),
        data_seed: int(get("--data-seed"), "--data-seed")?.unwrap_or(workload.default_data_seed()),
        seconds: number(get("--seconds"), "--seconds")?.unwrap_or(10.0),
        trace: int(get("--trace"), "--trace")?.unwrap_or(0) == 1,
        out: if gen_mode {
            Some(get("--out").ok_or("gen needs --out")?.into())
        } else {
            None
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|args| match &args.out {
        Some(dir) => gen::generate(args.workload, args.data_seed, args.seed, dir),
        None => run(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Inputs live in a per-process directory under the build directory and
/// are removed when the run ends.
fn run(args: &Args) -> Result<(), String> {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let dir = Path::new(&base).join(format!("perfbench-data-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let outcome = generate_in_child(args, &dir).and_then(|()| measure(args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    let report = outcome?;
    report.print(args);
    Ok(())
}

fn generate_in_child(args: &Args, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("gen")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--data-seed", &args.data_seed.to_string()])
        .arg("--out")
        .arg(dir)
        .status()
        .map_err(|e| format!("spawn generator: {e}"))?;
    if !status.success() {
        return Err(format!("generator failed: {status}"));
    }
    Ok(())
}

/// The per-layer split of one traced iteration, in seconds.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    decode: f64,
    encode: f64,
    run: f64,
    cell: f64,
    gen: f64,
    count: f64,
    queue: f64,
}

impl Layers {
    fn from_capture(capture: &flipper_obs::Capture) -> Layers {
        let mut l = Layers::default();
        for ev in &capture.events {
            let dur = ev.dur_ns as f64 / 1e9;
            match ev.name {
                "mine.run" => l.run += dur,
                "mine.cell" => l.cell += dur,
                "mine.gen" => l.gen += dur,
                "mine.count" => l.count += dur,
                "exec.shard" => {
                    let queue_ns = ev.args.iter().find(|(k, _)| *k == "queue_ns");
                    l.queue += queue_ns.map_or(0.0, |&(_, ns)| ns as f64 / 1e9);
                }
                _ => {}
            }
        }
        l
    }
}

struct Report {
    attempted: usize,
    failed: usize,
    untraced: Vec<Sample>,
    traced: Vec<(Sample, Layers)>,
    reference: Sample,
    peak_rss_mb: f64,
    fingerprints: Vec<(String, Option<u64>)>,
    pinned: bool,
}

fn measure(args: &Args, dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let inputs = w
        .datasets()
        .iter()
        .map(|&name| Input::load(w, name, dir))
        .collect::<Result<Vec<_>, _>>()?;
    // The quest workloads never encode; a traced run still times
    // `to_fbin_bytes` on their dataset, off the clock of the iteration.
    let encode_source = match (args.trace, w) {
        (true, Workload::QuestBasic | Workload::QuestSweep) => {
            Some(workload::read_dataset(&inputs[0].path)?)
        }
        _ => None,
    };

    // Untimed reference iteration: warms caches and fixes the expected
    // fingerprints and counters. The peak RSS is read right after it — the
    // high-water mark of one iteration, as one CLI invocation would see it,
    // not of allocator drift over however many iterations fit the run.
    let reference = workload::iterate(w, &inputs);
    let peak_rss_mb = peak_rss_mb()?;
    // A reference operation that failed has no fingerprint or counters, so
    // every later iteration's copy of it fails the check too.
    let fingerprints: Vec<(String, Option<u64>)> = reference
        .ops
        .iter()
        .map(|op| {
            (
                op.label.clone(),
                op.outcome.as_ref().ok().map(|(b, _)| fnv1a(b)),
            )
        })
        .collect();
    let pins = pinned(w, args.data_seed);
    let expected: Vec<Option<u64>> = match &pins {
        Some(pins) => pins.iter().copied().map(Some).collect(),
        None => fingerprints.iter().map(|&(_, f)| f).collect(),
    };
    let counters: Vec<Option<Counters>> = reference
        .ops
        .iter()
        .map(|op| op.outcome.as_ref().ok().map(|&(_, c)| c))
        .collect();
    let check = |s: &Sample| -> usize {
        let mut failed = s.ops.len().abs_diff(expected.len());
        for (i, op) in s.ops.iter().enumerate() {
            let ok = match &op.outcome {
                Ok((bytes, c)) => {
                    expected.get(i) == Some(&Some(fnv1a(bytes)))
                        && counters.get(i) == Some(&Some(*c))
                }
                Err(e) => {
                    eprintln!("operation {} failed: {e}", op.label);
                    false
                }
            };
            failed += usize::from(!ok);
        }
        failed
    };
    let mut attempted = reference.ops.len().max(expected.len());
    let mut failed = check(&reference);

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = std::time::Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds
        || untraced.len() < MIN_SAMPLES
        || (args.trace && traced.len() < MIN_SAMPLES)
    {
        let trace_this = args.trace && i % 2 == 1;
        i += 1;
        if trace_this {
            flipper_obs::enable();
            let _ = flipper_obs::drain();
        }
        let sample = workload::iterate(w, &inputs);
        attempted += sample.ops.len().max(expected.len());
        failed += check(&sample);
        if !trace_this {
            untraced.push(sample);
            continue;
        }
        let capture = flipper_obs::drain();
        flipper_obs::disable();
        let mut layers = Layers::from_capture(&capture);
        for input in &inputs {
            layers.decode += workload::decode_only(input.opened_path())?;
        }
        layers.encode = match &encode_source {
            Some(ds) => {
                let t = std::time::Instant::now();
                let bytes = flipper_store::to_fbin_bytes(ds).map_err(|e| e.to_string())?;
                let secs = t.elapsed().as_secs_f64();
                drop(std::hint::black_box(bytes));
                secs
            }
            None => sample.encode_s,
        };
        traced.push((sample, layers));
    }
    Ok(Report {
        attempted,
        failed,
        untraced,
        traced,
        reference,
        peak_rss_mb,
        fingerprints,
        pinned: pins.is_some(),
    })
}

/// The pinned fingerprints of `(workload, data_seed)`, in operation order.
fn pinned(w: Workload, data_seed: u64) -> Option<Vec<u64>> {
    let pins: Vec<u64> = PINS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f[..] {
                [name, seed, _label, hex] if name == w.name() && seed.parse() == Ok(data_seed) => {
                    u64::from_str_radix(hex, 16).ok()
                }
                _ => None,
            }
        })
        .collect();
    (!pins.is_empty()).then_some(pins)
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Report {
    fn print(&self, args: &Args) {
        let w = args.workload.name();
        let n = self.untraced.len();
        println!(
            "workload {w}  seed {}  data-seed {}  threads available {}",
            args.seed,
            args.data_seed,
            std::thread::available_parallelism().map_or(0, |p| p.get())
        );
        for (label, fp) in &self.fingerprints {
            let fp = fp.map_or("failed".to_string(), |f| format!("{f:016x}"));
            eprintln!("fingerprint: {w} {} {label} {fp}", args.data_seed);
        }
        println!(
            "correctness: {} failed of {} attempted operations (fail_ratio {}), \
             fingerprints {}",
            self.failed,
            self.attempted,
            ratio(self.failed as u64, self.attempted as u64),
            if self.pinned {
                "checked against fingerprints.txt"
            } else {
                "checked against the reference iteration only (no pin for this data seed)"
            }
        );
        let run_s: Vec<f64> = self.untraced.iter().map(|s| s.run_s).collect();
        println!("run_s over {n} untraced iterations: {}", tail(&run_s));

        let metrics = if args.trace {
            self.per_layer()
        } else {
            let m = |f: fn(&Sample) -> f64| median(self.untraced.iter().map(f).collect());
            vec![
                ("run_s", m(|s| s.run_s), "s"),
                ("setup_s", m(|s| s.setup_s), "s"),
                ("mine_s", m(|s| s.mine_s), "s"),
                ("peak_rss_mb", self.peak_rss_mb, "MB"),
            ]
        };
        for (name, value, unit) in &metrics {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        if args.trace {
            self.print_shares();
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    finite(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }

    /// Every per-layer metric: medians over the traced iterations for
    /// times, the reference iteration's totals for counters.
    fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let t = |f: &dyn Fn(&Sample, &Layers) -> f64| {
            median(self.traced.iter().map(|(s, l)| f(s, l)).collect())
        };
        let c: Counters = self
            .reference
            .ops
            .iter()
            .filter_map(|op| op.outcome.as_ref().ok().map(|&(_, c)| c))
            .fold(Counters::default(), |mut a, c| {
                a.candidates += c.candidates;
                a.support_pruned += c.support_pruned;
                a.sibp_pruned += c.sibp_pruned;
                a.cells += c.cells;
                a.frequent += c.frequent;
                a.peak_resident = a.peak_resident.max(c.peak_resident);
                a.intersections += c.intersections;
                a.prefix_reuses += c.prefix_reuses;
                a.counted += c.counted;
                a.cache_lookups += c.cache_lookups;
                a.cache_hits += c.cache_hits;
                a
            });
        let seed = |i: usize| {
            let (hits, lookups) = self.reference.seed_rounds.get(i).copied().unwrap_or((0, 0));
            ratio(hits, lookups)
        };
        let traced_run = t(&|s, _| s.run_s);
        let untraced_run = median(self.untraced.iter().map(|s| s.run_s).collect());
        vec![
            ("store.decode_s", t(&|_, l| l.decode), "s"),
            ("store.encode_s", t(&|_, l| l.encode), "s"),
            ("data.view_s", t(&|s, l| s.setup_s - l.decode), "s"),
            ("data.count_s", t(&|_, l| l.count), "s"),
            ("data.intersections", c.intersections as f64, "count"),
            (
                "data.prefix_reuse_ratio",
                ratio(c.prefix_reuses, c.counted),
                "ratio",
            ),
            (
                "data.cellcache_hit_ratio",
                ratio(c.cache_hits, c.cache_lookups),
                "ratio",
            ),
            ("data.exec_queue_s", t(&|_, l| l.queue), "s"),
            ("core.gen_s", t(&|_, l| l.gen), "s"),
            ("core.eval_s", t(&|_, l| l.cell - l.gen - l.count), "s"),
            ("core.other_s", t(&|_, l| l.run - l.cell), "s"),
            ("core.candidates", c.candidates as f64, "count"),
            ("core.support_pruned", c.support_pruned as f64, "count"),
            ("core.sibp_pruned", c.sibp_pruned as f64, "count"),
            ("core.cells", c.cells as f64, "count"),
            (
                "core.frequent_ratio",
                ratio(c.frequent, c.candidates),
                "ratio",
            ),
            (
                "core.peak_resident_itemsets",
                c.peak_resident as f64,
                "count",
            ),
            ("api.seed_hit_ratio.first", seed(0), "ratio"),
            ("api.seed_hit_ratio.second", seed(1), "ratio"),
            ("api.sweep_overhead_s", t(&|s, l| s.mine_s - l.run), "s"),
            ("api.emit_s", t(&|s, _| s.emit_s), "s"),
            (
                "obs.overhead_ratio",
                traced_run / untraced_run - 1.0,
                "ratio",
            ),
        ]
    }

    /// The traced layer shares of `run_s` and the properties that gate
    /// optimisations, for the workload notes.
    fn print_shares(&self) {
        let run = median(self.traced.iter().map(|(s, _)| s.run_s).collect());
        let mine = median(self.traced.iter().map(|(s, _)| s.mine_s).collect());
        let share = |f: &dyn Fn(&Sample, &Layers) -> f64| {
            100.0 * median(self.traced.iter().map(|(s, l)| f(s, l)).collect()) / run
        };
        println!(
            "traced shares of run_s ({:.4} s; mine_s {:.4} s): gen {:.1}%  count {:.1}%  \
             eval {:.1}%  other {:.1}%  ingest {:.1}%  encode {:.1}%  emit {:.1}%",
            run,
            mine,
            share(&|_, l| l.gen),
            share(&|_, l| l.count),
            share(&|_, l| l.cell - l.gen - l.count),
            share(&|_, l| l.run - l.cell),
            share(&|s, _| s.setup_s),
            share(&|s, _| s.encode_s),
            share(&|s, _| s.emit_s),
        );
        for (i, (hits, lookups)) in self.reference.seed_rounds.iter().enumerate() {
            println!("seed round {}: {hits} hits / {lookups} lookups", i + 1);
        }
        // The split against the untraced medians: the layers sum to the
        // traced times exactly, so the gap is the recorder's overhead.
        let untraced = |f: fn(&Sample) -> f64| median(self.untraced.iter().map(f).collect());
        let layers = |f: &dyn Fn(&Sample, &Layers) -> f64| {
            median(self.traced.iter().map(|(s, l)| f(s, l)).collect())
        };
        println!(
            "split vs untraced: gen+count+eval+other {:.4} s + api overhead {:.4} s \
             vs mine_s {:.4} s; decode+view {:.4} s vs setup_s {:.4} s",
            layers(&|_, l| l.run),
            layers(&|s, l| s.mine_s - l.run),
            untraced(|s| s.mine_s),
            layers(&|s, _| s.setup_s),
            untraced(|s| s.setup_s),
        );
    }
}

/// The highest percentile of `v` with at least ten samples beyond it, next
/// to the median.
fn tail(v: &[f64]) -> String {
    let n = v.len();
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = median(sorted.clone());
    let at = |q: f64| sorted[((n as f64 * q).ceil() as usize).clamp(1, n) - 1];
    let range = format!(
        "p25 {:.6} s, p75 {:.6} s, min {:.6} s, max {:.6} s",
        at(0.25),
        at(0.75),
        sorted[0],
        sorted[n - 1]
    );
    let tail = [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0);
    match tail {
        Some(p) => format!(
            "p50 {p50:.6} s, p{} {:.6} s; {range}",
            (p * 100.0) as u32,
            at(p)
        ),
        None => format!("p50 {p50:.6} s (no tail percentile: a p75 needs 40 samples); {range}"),
    }
}

/// A JSON number; non-finite values (never expected) print as 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
