//! `flipper` — command-line interface for flipping-correlation mining.
//!
//! A thin client of the `flipper-api` session façade: every subcommand
//! parses flags, opens a [`Session`] (or loads a [`Dataset`]) through the
//! façade, and pipes results into its [`ResultSink`]s. Subcommands:
//!
//! * `generate` — produce a dataset (quest / groceries / census / medline /
//!   planted) in the text or FBIN binary format;
//! * `mine` — mine flipping patterns from a dataset file (optionally
//!   writing a machine-readable `flipper-results/v1` report);
//! * `sweep` — run a labeled grid of configurations (γ × ε × pruning
//!   variants) against one ingestion of the dataset;
//! * `convert` — convert a dataset between the text and FBIN formats;
//! * `topk` — threshold-free top-K most-flipping search;
//! * `stats` — print dataset statistics;
//! * `results-diff` — compare two `flipper-results/v1` reports.
//!
//! Every `--input` path is format-sniffed by magic bytes; FBIN inputs are
//! streamed chunk by chunk, never materializing the raw database. Errors
//! print an `error:` line followed by the `caused by:` source chain, and
//! the process exits 2 for usage mistakes, 3 for cancelled or timed-out
//! runs (`--timeout`), 1 for data/I/O/configuration failures — so scripts
//! can tell "you called it wrong" from "it ran out of time" from "the data
//! is bad".

use flipper_api::io::{load_path, write_to, FileFormat, Generator};
use flipper_api::{
    emit_runs, threshold_point, Dataset, FlipperConfig, FlipperError, JsonWriter, Measure,
    MinSupports, PlantedParams, PruningConfig, QuestParams, ResultSink, Session, TextReport,
    Thresholds, TopKConfig,
};
use flipper_wire::json::{self, Json};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufWriter, Write};
use std::process::ExitCode;

fn usage() -> String {
    let results = flipper_wire::RESULTS_V1;
    let trace = flipper_wire::TRACE_V1;
    format!(
        "\
flipper — mining flipping correlations from datasets with taxonomies
(Barsky, Kim, Weninger, Han — PVLDB 5(4), 2011)

USAGE:
  flipper generate --kind <quest|groceries|census|medline|planted>
                   [--out FILE] [--format text|fbin] [--seed N]
                   [--transactions N] [--width W] [--scale F]
  flipper mine     --input FILE [--gamma F] [--epsilon F]
                   [--minsup F1,F2,...] [--measure NAME]
                   [--variant basic|flipping|tpg|full]
                   [--top K] [--max-k K]
                   [--threads N]   (shards support counting;
                                    0 = all cores, default 1)
                   [--output-json FILE] [--trace FILE] [--timings]
                   [--timeout SECS] [--salvage]
  flipper sweep    --input FILE [--gammas F1,F2,...] [--epsilons F1,F2,...]
                   [--variants v1,v2,...|all] [--max-k K]
                   [--minsup F1,F2,...] [--measure NAME] [--threads N]
                   [--output-json FILE] [--trace FILE]
                   [--timeout SECS]
  flipper convert  --input FILE --out FILE [--to text|fbin]
  flipper topk     --input FILE --k N [--minsup F1,F2,...]
  flipper stats    --input FILE
  flipper results-diff FILE_A FILE_B
  flipper help

Input files are auto-detected by magic bytes: FBIN binary datasets (written
by `generate --format fbin` or `convert --to fbin`) and the text interchange
format both work everywhere an `--input` is accepted. `mine` and `sweep`
ingest FBIN inputs chunk-by-chunk (streaming) and FBIN output format
defaults from a `.fbin` extension. `sweep` ingests the dataset ONCE and runs
the whole grid against the cached view, one point after another, each point
reusing the vertical enumerations of the points before it. `--threads`
shards support counting over workers and never changes any mined result.
`--output-json` writes the machine-readable `{results}` report.

`--trace FILE` records the run with the flipper-obs recorder and writes a
`{trace}` Chrome trace-event JSON (open it in chrome://tracing or
Perfetto). `--timings` (mine) prints a per-phase timing table plus counter
statistics from the same recorder. Both are observability-only:
mined results and `{results}` bytes are identical with or without
them, at every thread count.

`--timeout SECS` bounds a run cooperatively: the deadline is checked at
cell/point boundaries and an expired run exits 3 with a typed error — never
a partial report, and an existing `--output-json` file keeps its bytes.
`mine --salvage` opens a damaged FBIN input in salvage mode: chunks failing
their CRC are quarantined (listed on stderr) and the rest is mined; the
JSON report carries an additive \"degraded\" field.
`results-diff` compares two `{results}` reports: exit 0 when
equivalent, 1 when they differ.

A flag the subcommand does not take is a usage error. `sweep` also takes
`mine`'s `--gamma`, `--epsilon` and `--variant` as the single value of a
grid axis left unset.

EXIT CODES:  0 success · 1 data/I-O/config error · 2 usage error
             · 3 cancelled or timed out

EXAMPLES:
  flipper generate --kind groceries --out groceries.txt
  flipper convert --input groceries.txt --out groceries.fbin
  flipper mine --input groceries.fbin --gamma 0.15 --epsilon 0.10 \\
               --minsup 0.001,0.0005,0.0002 --output-json results.json
  flipper sweep --input groceries.fbin --gammas 0.2,0.15 \\
               --epsilons 0.1,0.05 --variants all
"
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut std::io::stdout().lock()) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("{}", e.render_chain());
            if matches!(e, FlipperError::Usage(_)) {
                eprintln!("run `flipper help` for usage");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

/// Dispatch, writing the subcommand's output to `stdout`, and return the
/// process exit code for the success path (`0` everywhere except
/// `results-diff`, which exits `1` when the documents differ — the
/// `diff`/`cmp` convention).
fn run(args: &[String], stdout: &mut dyn Write) -> Result<u8, FlipperError> {
    let out = &mut PipeOut {
        inner: stdout,
        closed: false,
    };
    let ok = |()| 0u8;
    let code = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&parse_flags(&args[1..], GENERATE_FLAGS)?, out).map(ok),
        Some("mine") => cmd_mine(&parse_flags(&args[1..], MINE_FLAGS)?, out).map(ok),
        Some("sweep") => cmd_sweep(&parse_flags(&args[1..], SWEEP_FLAGS)?, out).map(ok),
        Some("convert") => cmd_convert(&parse_flags(&args[1..], CONVERT_FLAGS)?).map(ok),
        Some("topk") => cmd_topk(&parse_flags(&args[1..], TOPK_FLAGS)?, out).map(ok),
        Some("stats") => cmd_stats(&parse_flags(&args[1..], &["input"])?, out).map(ok),
        Some("results-diff") => cmd_results_diff(&args[1..], out),
        Some("help") | None => write!(out, "{}", usage()).map_err(stdout_err).map(|()| 0),
        Some(other) => Err(FlipperError::usage(format!("unknown subcommand {other:?}"))),
    }?;
    out.flush().map_err(stdout_err)?;
    Ok(code)
}

/// Standard output as the subcommands see it. A reader that goes away
/// (`flipper stats … | head -1`) ends the output, not the run: from the
/// first `BrokenPipe` on, writes are discarded, so the subcommand finishes
/// (an `--output-json` file included) and exits as it would have. Any
/// other write error is returned.
struct PipeOut<'w> {
    inner: &'w mut dyn Write,
    closed: bool,
}

impl PipeOut<'_> {
    /// Run `op` on the inner writer unless its reader is gone; a
    /// `BrokenPipe` marks the reader gone and counts as `done`.
    fn guard<T>(
        &mut self,
        done: T,
        op: impl FnOnce(&mut dyn Write) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        if self.closed {
            return Ok(done);
        }
        match op(self.inner) {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(done)
            }
            r => r,
        }
    }
}

impl Write for PipeOut<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.guard(buf.len(), |w| w.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.guard((), |w| w.flush())
    }
}

fn stdout_err(e: std::io::Error) -> FlipperError {
    FlipperError::io("write stdout", e)
}

// ------------------------------------------------------------ flag parsing

type Flags = HashMap<String, String>;

/// Flags that take no value (presence means "on").
const BOOL_FLAGS: &[&str] = &["timings", "salvage"];

/// The flags each subcommand reads; any other flag is a usage error.
const GENERATE_FLAGS: &[&str] = &[
    "kind",
    "out",
    "format",
    "seed",
    "transactions",
    "width",
    "scale",
];
const MINE_FLAGS: &[&str] = &[
    "input",
    "gamma",
    "epsilon",
    "minsup",
    "measure",
    "variant",
    "top",
    "max-k",
    "threads",
    "output-json",
    "trace",
    "timings",
    "timeout",
    "salvage",
];
/// `sweep` shares [`base_config`] with `mine`, so `--gamma`, `--epsilon`
/// and `--variant` set its single-point defaults.
const SWEEP_FLAGS: &[&str] = &[
    "input",
    "gamma",
    "epsilon",
    "gammas",
    "epsilons",
    "variant",
    "variants",
    "minsup",
    "measure",
    "max-k",
    "threads",
    "output-json",
    "trace",
    "timeout",
];
const CONVERT_FLAGS: &[&str] = &["input", "out", "to"];
const TOPK_FLAGS: &[&str] = &["input", "k", "minsup"];

/// Parse `--key value` pairs (and bare [`BOOL_FLAGS`]) after the
/// subcommand, rejecting any flag not in `allowed`.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Flags, FlipperError> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| FlipperError::usage(format!("expected --flag, got {:?}", args[i])))?;
        if !allowed.contains(&key) {
            return Err(FlipperError::usage(format!("unknown flag --{key}")));
        }
        if BOOL_FLAGS.contains(&key) {
            flags.insert(key.to_string(), "on".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| FlipperError::usage(format!("flag --{key} needs a value")))?
            .clone();
        flags.insert(key.to_string(), value);
        i += 2;
    }
    Ok(flags)
}

fn get_f64(flags: &Flags, key: &str, default: f64) -> Result<f64, FlipperError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| FlipperError::usage(format!("--{key} expects a number, got {v:?}"))),
    }
}

fn get_usize(flags: &Flags, key: &str, default: usize) -> Result<usize, FlipperError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| FlipperError::usage(format!("--{key} expects an integer, got {v:?}"))),
    }
}

/// Parse a comma-separated float list flag.
fn get_f64_list(flags: &Flags, key: &str) -> Result<Option<Vec<f64>>, FlipperError> {
    match flags.get(key) {
        None => Ok(None),
        Some(spec) => spec
            .split(',')
            .map(|s| {
                s.trim().parse().map_err(|_| {
                    FlipperError::usage(format!("bad --{key} {spec:?}: {s:?} is not a number"))
                })
            })
            .collect::<Result<Vec<f64>, _>>()
            .map(Some),
    }
}

fn input_path(flags: &Flags) -> Result<&String, FlipperError> {
    flags
        .get("input")
        .ok_or_else(|| FlipperError::usage("missing --input FILE"))
}

/// Build the `--timeout` cancel token: the run checks the deadline at
/// cell/point boundaries and exits 3 once it passes.
fn parse_timeout(flags: &Flags) -> Result<Option<flipper_api::CancelToken>, FlipperError> {
    match flags.get("timeout") {
        None => Ok(None),
        Some(v) => {
            let secs: f64 = v
                .parse()
                .ok()
                .filter(|s: &f64| *s > 0.0 && s.is_finite())
                .ok_or_else(|| {
                    FlipperError::usage(format!(
                        "--timeout expects a positive number of seconds, got {v:?}"
                    ))
                })?;
            Ok(Some(flipper_api::CancelToken::with_timeout(
                std::time::Duration::from_secs_f64(secs),
            )))
        }
    }
}

fn parse_minsup(flags: &Flags) -> Result<MinSupports, FlipperError> {
    match get_f64_list(flags, "minsup")? {
        None => Ok(MinSupports::default()),
        Some(fractions) => Ok(MinSupports::Fractions(fractions)),
    }
}

fn parse_measure(flags: &Flags) -> Result<Measure, FlipperError> {
    match flags.get("measure") {
        None => Ok(Measure::Kulczynski),
        Some(name) => Measure::parse(name)
            .ok_or_else(|| FlipperError::usage(format!("unknown measure {name:?}"))),
    }
}

fn parse_variant(name: &str) -> Result<PruningConfig, FlipperError> {
    match name {
        // Short CLI spellings plus the PruningConfig::name() forms emitted
        // in sweep labels and flipper-results/v1 reports, so a label read
        // from a report can be pasted back into --variant.
        "full" | "flipping+tpg+sibp" => Ok(PruningConfig::FULL),
        "basic" => Ok(PruningConfig::BASIC),
        "flipping" => Ok(PruningConfig::FLIPPING),
        "tpg" | "flipping+tpg" => Ok(PruningConfig::FLIPPING_TPG),
        other => Err(FlipperError::usage(format!("unknown variant {other:?}"))),
    }
}

/// Resolve the output format: an explicit `--<flag> text|fbin` wins,
/// otherwise a `.fbin` output extension selects FBIN, otherwise text.
fn output_format(
    flags: &Flags,
    flag: &str,
    out: Option<&String>,
) -> Result<FileFormat, FlipperError> {
    match flags.get(flag) {
        Some(name) => FileFormat::parse(name).ok_or_else(|| {
            FlipperError::usage(format!("--{flag} expects text or fbin, got {name:?}"))
        }),
        None => Ok(match out {
            Some(path) => FileFormat::from_extension(std::path::Path::new(path)),
            None => FileFormat::Text,
        }),
    }
}

// ------------------------------------------------------------- subcommands

/// Write `ds` to the file at `path` in `format`, and say so on stderr.
fn write_output(ds: &Dataset, path: &str, format: FileFormat) -> Result<(), FlipperError> {
    flipper_api::io::write_path(path, ds, format)?;
    eprintln!(
        "wrote {} transactions / {} taxonomy nodes to {path} ({})",
        ds.db.len(),
        ds.taxonomy.node_count(),
        format.name()
    );
    Ok(())
}

fn cmd_generate(flags: &Flags, stdout: &mut dyn Write) -> Result<(), FlipperError> {
    let kind = flags
        .get("kind")
        .ok_or_else(|| FlipperError::usage("generate requires --kind"))?;
    let seed = get_usize(flags, "seed", 42)? as u64;
    let generator = match kind.as_str() {
        "quest" => Generator::Quest(
            QuestParams::default()
                .with_transactions(get_usize(flags, "transactions", 100_000)?)
                .with_width(get_f64(flags, "width", 5.0)?)
                .with_seed(seed),
        ),
        "groceries" => Generator::Groceries { seed },
        "census" => Generator::Census { seed },
        "medline" => Generator::Medline {
            scale: get_f64(flags, "scale", 0.1)?,
            seed,
        },
        "planted" => Generator::Planted(PlantedParams {
            seed,
            ..Default::default()
        }),
        other => {
            return Err(FlipperError::usage(format!(
                "unknown dataset kind {other:?}"
            )))
        }
    };
    let ds = generator.dataset();
    let out = flags.get("out");
    let format = output_format(flags, "format", out)?;
    match out {
        Some(path) => write_output(&ds, path, format),
        None => {
            let mut w = BufWriter::new(stdout);
            write_to(&mut w, &ds, format)?;
            w.flush().map_err(stdout_err)
        }
    }
}

fn cmd_convert(flags: &Flags) -> Result<(), FlipperError> {
    let out = flags
        .get("out")
        .ok_or_else(|| FlipperError::usage("convert requires --out FILE"))?;
    let format = output_format(flags, "to", Some(out))?;
    let ds = load_path(input_path(flags)?)?;
    write_output(&ds, out, format)
}

/// Assemble the base mining configuration shared by `mine` and `sweep`.
/// Configuration invariants are checked once, by [`FlipperConfig::validate`];
/// violations coming from flags are the caller's mistake, so they map to
/// usage errors (exit 2).
fn base_config(flags: &Flags) -> Result<FlipperConfig, FlipperError> {
    let gamma = get_f64(flags, "gamma", 0.3)?;
    let epsilon = get_f64(flags, "epsilon", 0.1)?;
    let mut cfg = FlipperConfig {
        thresholds: Thresholds { gamma, epsilon },
        min_support: parse_minsup(flags)?,
        measure: parse_measure(flags)?,
        threads: get_usize(flags, "threads", 1)?,
        ..Default::default()
    };
    if let Some(name) = flags.get("variant") {
        cfg.pruning = parse_variant(name)?;
    }
    if let Some(mk) = flags.get("max-k") {
        let max_k: usize = mk
            .parse()
            .map_err(|_| FlipperError::usage(format!("bad --max-k {mk:?}")))?;
        cfg.max_k = Some(max_k);
    }
    cfg.validate()
        .map_err(|e| FlipperError::usage(e.to_string()))?;
    Ok(cfg)
}

/// Open a mining session on `--input`, streaming FBIN files.
fn open_session(flags: &Flags) -> Result<Session, FlipperError> {
    Session::open_path(input_path(flags)?)
}

/// An opened `--output-json` file. Opening it before mining makes an
/// unwritable path fail fast instead of after the whole run. The file is
/// not truncated until [`JsonOutput::writer`], so a run that fails or
/// times out leaves an existing report as it was, and a file this run
/// created is removed again.
struct JsonOutput<'f> {
    file: std::fs::File,
    path: &'f str,
    created: Created<'f>,
}

/// The path of a file this run created, removed when dropped unless a
/// report was written into it.
struct Created<'f>(Option<&'f str>);

impl Drop for Created<'_> {
    fn drop(&mut self) {
        if let Some(path) = self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl<'f> JsonOutput<'f> {
    /// Open `--output-json` for writing, if requested.
    fn open(flags: &'f Flags) -> Result<Option<Self>, FlipperError> {
        let Some(path) = flags.get("output-json") else {
            return Ok(None);
        };
        let open = |create_new: bool| {
            std::fs::OpenOptions::new()
                .write(true)
                .create_new(create_new)
                .open(path)
        };
        let (file, created) = match open(true) {
            Ok(file) => (file, Some(path.as_str())),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => (
                open(false).map_err(|e| FlipperError::io(format!("open {path}"), e))?,
                None,
            ),
            Err(e) => return Err(FlipperError::io(format!("create {path}"), e)),
        };
        Ok(Some(JsonOutput {
            file,
            path,
            created: Created(created),
        }))
    }

    /// Empty the file and hand it over for the report, which it then keeps.
    fn writer(self) -> Result<JsonWriter<BufWriter<std::fs::File>>, FlipperError> {
        let JsonOutput {
            file,
            path,
            mut created,
        } = self;
        created.0 = None;
        file.set_len(0)
            .map_err(|e| FlipperError::io(format!("truncate {path}"), e))?;
        Ok(JsonWriter::new(BufWriter::new(file)))
    }
}

/// The flipper-obs capture that `--trace` or `--timings` opens on the
/// calling thread. Dropping it closes the capture, so an error return
/// closes it too, without writing a trace.
struct Recording;

impl Drop for Recording {
    fn drop(&mut self) {
        flipper_obs::disable();
    }
}

/// Open a capture when `--trace` or `--timings` asks for one.
fn start_recorder(record: bool) -> Option<Recording> {
    record.then(|| {
        flipper_obs::enable();
        Recording
    })
}

/// Close the capture and write the `flipper-trace/v1` file, if requested.
fn finish_recorder(
    recording: Option<Recording>,
    trace_out: Option<&String>,
) -> Result<Option<flipper_obs::Capture>, FlipperError> {
    let Some(recording) = recording else {
        return Ok(None);
    };
    let capture = flipper_obs::drain();
    drop(recording);
    if let Some(path) = trace_out {
        std::fs::write(path, capture.render_trace())
            .map_err(|e| FlipperError::io(format!("write {path}"), e))?;
        let tag = flipper_wire::TRACE_V1;
        eprintln!(
            "wrote {tag} trace ({} events) to {path}",
            capture.events.len()
        );
    }
    Ok(Some(capture))
}

/// Print the `--timings` per-phase summary sourced from the recorder plus
/// the run statistics that `flipper-results/v1` deliberately leaves out
/// (timings and counters are execution facts, not results).
fn print_timings(
    out: &mut dyn Write,
    capture: &flipper_obs::Capture,
    stats: &flipper_api::RunStats,
) -> std::io::Result<()> {
    writeln!(out)?;
    writeln!(
        out,
        "{:<16} {:>8} {:>12} {:>12}",
        "phase", "calls", "total(ms)", "mean(us)"
    )?;
    for row in capture.phase_rows() {
        let total_ms = row.total_ns as f64 / 1e6;
        let mean_us = row.total_ns as f64 / 1e3 / row.calls as f64;
        writeln!(
            out,
            "{:<16} {:>8} {:>12.2} {:>12.1}",
            row.name, row.calls, total_ms, mean_us
        )?;
    }
    writeln!(out, "run:     {}", stats.summary())?;
    let c = &stats.counter;
    writeln!(
        out,
        "counter: intersections={} counted={} prefix_reuses={} projected={}",
        c.intersections, c.candidates_counted, c.prefix_reuses, c.projected
    )
}

fn cmd_mine(flags: &Flags, out: &mut dyn Write) -> Result<(), FlipperError> {
    let cfg = base_config(flags)?;
    let trace_out = flags.get("trace");
    let timings = flags.contains_key("timings");
    let record = trace_out.is_some() || timings;
    let token = parse_timeout(flags)?;
    let json_out = JsonOutput::open(flags)?;
    let recording = start_recorder(record);
    let session = if flags.contains_key("salvage") {
        Session::open_salvage_path(input_path(flags)?)?
    } else {
        open_session(flags)?
    };
    if let Some(report) = session.salvage_report() {
        if report.is_degraded() {
            eprintln!("degraded input ({}):", report.summary());
            for q in &report.quarantined {
                eprintln!(
                    "  quarantined chunk {} at byte {}: {}",
                    q.index, q.byte_offset, q.reason
                );
            }
            eprintln!("  results below were mined from the readable remainder");
        } else {
            eprintln!("salvage: input is intact ({})", report.summary());
        }
    }
    let result = match &token {
        Some(t) => session.mine_guarded(&cfg, t)?,
        None => session.mine(&cfg)?,
    };
    let capture = finish_recorder(recording, trace_out)?;

    let top = get_usize(flags, "top", usize::MAX)?;
    let mut report = TextReport::new(&mut *out).with_top(top);
    report.consume("mine", session.taxonomy(), &cfg, &result)?;
    report.finish()?;
    if let (Some(capture), true) = (&capture, timings) {
        print_timings(out, capture, &result.stats).map_err(stdout_err)?;
    }

    if let Some(json_out) = json_out {
        let path = json_out.path;
        let json = json_out.writer()?;
        let mut json = match session.salvage_report().filter(|r| r.is_degraded()) {
            Some(report) => json.with_degraded(report.summary()),
            None => json,
        };
        json.consume("mine", session.taxonomy(), &cfg, &result)?;
        json.finish()?;
        let tag = flipper_wire::RESULTS_V1;
        eprintln!("wrote {tag} report to {path}");
    }
    Ok(())
}

fn cmd_sweep(flags: &Flags, out: &mut dyn Write) -> Result<(), FlipperError> {
    let base = base_config(flags)?;
    let gammas = get_f64_list(flags, "gammas")?.unwrap_or_else(|| vec![base.thresholds.gamma]);
    let epsilons =
        get_f64_list(flags, "epsilons")?.unwrap_or_else(|| vec![base.thresholds.epsilon]);
    let variants: Vec<PruningConfig> = match flags.get("variants").map(String::as_str) {
        None => vec![base.pruning],
        Some("all") => PruningConfig::VARIANTS.to_vec(),
        Some(spec) => spec
            .split(',')
            .map(|s| parse_variant(s.trim()))
            .collect::<Result<_, _>>()?,
    };

    // Build the whole labeled grid from the flags alone, so an empty grid
    // is reported before the (possibly expensive) ingestion starts.
    let mut points: Vec<(String, FlipperConfig)> = Vec::new();
    for &gamma in &gammas {
        for &epsilon in &epsilons {
            // The γ/ε skip rule and point label are shared with
            // Sweep::thresholds_grid so library and CLI labels agree.
            let Some((point_label, thresholds)) = threshold_point(gamma, epsilon) else {
                continue;
            };
            for &pruning in &variants {
                let mut cfg = base.clone();
                cfg.thresholds = thresholds;
                cfg.pruning = pruning;
                let mut label = point_label.clone();
                if variants.len() > 1 {
                    label.push_str(&format!("/{}", pruning.name()));
                }
                points.push((label, cfg));
            }
        }
    }
    if points.is_empty() {
        return Err(FlipperError::usage(
            "the sweep grid is empty: every (gamma, epsilon) pair violates epsilon < gamma",
        ));
    }
    // Flag-built grid values can still be out of range (e.g. --gammas 1.5);
    // reject them here, before ingestion, under the usage policy.
    for (label, cfg) in &points {
        cfg.validate()
            .map_err(|e| FlipperError::usage(format!("sweep point {label}: {e}")))?;
    }
    let n_runs = points.len();
    let token = parse_timeout(flags)?;
    let json_out = JsonOutput::open(flags)?;
    let trace_out = flags.get("trace");
    let recording = start_recorder(trace_out.is_some());

    let session = open_session(flags)?;
    let mut sweep = session.sweep();
    if let Some(t) = &token {
        sweep = sweep.with_token(t);
    }
    for (label, cfg) in points {
        sweep = sweep.add(label, cfg);
    }
    eprintln!(
        "sweeping {n_runs} configurations over one ingestion of {} ({} transactions)",
        session.origin(),
        session.num_transactions()
    );
    let runs = sweep.run()?;
    finish_recorder(recording, trace_out)?;

    writeln!(
        out,
        "{:<32} {:>8} {:>6} {:>6} {:>12} {:>10}  note",
        "label", "flips", "pos", "neg", "candidates", "time(ms)"
    )
    .map_err(stdout_err)?;
    let mut skipped = 0usize;
    for run in &runs {
        let note = match &run.duplicate_of {
            Some(orig) => {
                skipped += 1;
                format!("= {orig}")
            }
            None => String::new(),
        };
        writeln!(
            out,
            "{:<32} {:>8} {:>6} {:>6} {:>12} {:>10.1}  {note}",
            run.label,
            run.result.patterns.len(),
            run.result.total_positive(),
            run.result.total_negative(),
            run.result.stats.candidates_generated,
            run.result.stats.elapsed.as_secs_f64() * 1e3,
        )
        .map_err(stdout_err)?;
    }
    if skipped > 0 {
        eprintln!(
            "{skipped} of {n_runs} points matched an earlier point on every \
             result-determining field and reused its result (marked `= <label>`)"
        );
    }

    if let Some(json_out) = json_out {
        let path = json_out.path;
        emit_runs(&mut json_out.writer()?, session.taxonomy(), &runs)?;
        let tag = flipper_wire::RESULTS_V1;
        eprintln!("wrote {tag} report ({} runs) to {path}", runs.len());
    }
    Ok(())
}

fn cmd_topk(flags: &Flags, out: &mut dyn Write) -> Result<(), FlipperError> {
    let cfg = TopKConfig {
        k: get_usize(flags, "k", 10)?,
        base: FlipperConfig {
            min_support: parse_minsup(flags)?,
            ..Default::default()
        },
        ..Default::default()
    };
    // Flag-caused violations are the caller's mistake → usage (exit 2),
    // same policy as base_config.
    cfg.base
        .validate()
        .map_err(|e| FlipperError::usage(e.to_string()))?;
    cfg.validate()
        .map_err(|e| FlipperError::usage(e.to_string()))?;
    let session = open_session(flags)?;
    let r = session.top_k(&cfg)?;
    writeln!(
        out,
        "top-{} most flipping patterns at auto-selected (γ, ε) = ({}, {}) after {} runs:",
        r.patterns.len(),
        r.thresholds.gamma,
        r.thresholds.epsilon,
        r.runs
    )
    .map_err(stdout_err)?;
    for p in &r.patterns {
        writeln!(out, "gap {:.3}:", p.flip_gap()).map_err(stdout_err)?;
        writeln!(out, "{}\n", p.display(session.taxonomy())).map_err(stdout_err)?;
    }
    Ok(())
}

fn cmd_stats(flags: &Flags, out: &mut dyn Write) -> Result<(), FlipperError> {
    let ds = load_path(input_path(flags)?)?;
    let view = flipper_api::MultiLevelView::build(&ds.db, &ds.taxonomy)?;
    writeln!(
        out,
        "{}",
        flipper_api::stats::DbStats::compute(&ds.db).report()
    )
    .map_err(stdout_err)?;
    writeln!(
        out,
        "taxonomy: {} nodes, height {}",
        ds.taxonomy.node_count(),
        ds.taxonomy.height()
    )
    .map_err(stdout_err)?;
    for ls in flipper_api::stats::level_stats(&view) {
        writeln!(
            out,
            "  level {}: {} nodes, mean rel support {:.5}, max {:.5}",
            ls.level, ls.distinct_nodes, ls.mean_rel_support, ls.max_rel_support
        )
        .map_err(stdout_err)?;
    }
    Ok(())
}

// ---------------------------------------------------------- results-diff

/// Compare two `flipper-results/v1` reports: exit 0 when byte-identical or
/// JSON-equivalent, 1 when they differ (label-level differences listed),
/// 2 when either file is not a results report — the `diff`/`cmp`
/// convention that "trouble" is distinct from "files differ".
fn cmd_results_diff(args: &[String], out: &mut dyn Write) -> Result<u8, FlipperError> {
    let [path_a, path_b] = args else {
        return Err(FlipperError::usage(
            "results-diff expects exactly two FILE arguments",
        ));
    };
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| FlipperError::io(format!("results file {path}"), e))
    };
    let text_a = read(path_a)?;
    let text_b = read(path_b)?;
    if text_a == text_b {
        writeln!(
            out,
            "identical: {path_a} and {path_b} are byte-for-byte equal"
        )
        .map_err(stdout_err)?;
        return Ok(0);
    }
    let doc_a = parse_results(path_a, &text_a)?;
    let doc_b = parse_results(path_b, &text_b)?;
    if doc_a == doc_b {
        writeln!(
            out,
            "equivalent: {path_a} and {path_b} differ only in formatting"
        )
        .map_err(stdout_err)?;
        return Ok(0);
    }
    let differences = report_differences((path_a, &doc_a), (path_b, &doc_b))?;
    for line in &differences {
        writeln!(out, "{line}").map_err(stdout_err)?;
    }
    writeln!(out, "{} difference(s)", differences.len()).map_err(stdout_err)?;
    Ok(1)
}

/// One line per difference between two reports that are not equal: runs
/// present in one only, runs that differ, runs in a different order, and
/// differences outside the runs array (e.g. the salvage "degraded" stamp).
fn report_differences(
    (path_a, doc_a): (&str, &Json),
    (path_b, doc_b): (&str, &Json),
) -> Result<Vec<String>, FlipperError> {
    let order_a = labeled_runs(path_a, doc_a)?;
    let order_b = labeled_runs(path_b, doc_b)?;
    let runs_a: BTreeMap<&str, &Json> = order_a.iter().copied().collect();
    let runs_b: BTreeMap<&str, &Json> = order_b.iter().copied().collect();
    let mut lines = Vec::new();
    for (label, run_a) in &runs_a {
        match runs_b.get(label) {
            None => lines.push(format!("- run {label:?} only in {path_a}")),
            Some(run_b) if run_a != run_b => {
                lines.push(format!("! run {label:?} differs between the reports"))
            }
            Some(_) => {}
        }
    }
    for label in runs_b.keys() {
        if !runs_a.contains_key(label) {
            lines.push(format!("+ run {label:?} only in {path_b}"));
        }
    }
    if lines.is_empty() {
        if order_a.iter().map(|r| r.0).ne(order_b.iter().map(|r| r.0)) {
            lines.push("! the runs match, but their order differs".to_string());
        }
        if lines.is_empty() || fields_outside_runs(doc_a) != fields_outside_runs(doc_b) {
            lines.push("! reports differ outside the runs (e.g. a degraded stamp)".to_string());
        }
    }
    Ok(lines)
}

/// Parse one report and verify its schema line; not-a-report is a usage
/// error (exit 2), keeping exit 1 unambiguous for "the reports differ".
fn parse_results(path: &str, text: &str) -> Result<Json, FlipperError> {
    let doc = json::parse(text)
        .map_err(|e| FlipperError::usage(format!("{path} is not valid JSON: {e}")))?;
    if doc.get("schema").and_then(Json::as_str) != Some(flipper_wire::RESULTS_V1) {
        let tag = flipper_wire::RESULTS_V1;
        return Err(FlipperError::usage(format!(
            "{path} is not a {tag} report (missing or wrong \"schema\" field)"
        )));
    }
    Ok(doc)
}

/// A report's top-level fields other than its runs.
fn fields_outside_runs(doc: &Json) -> Vec<(&String, &Json)> {
    match doc {
        Json::Obj(fields) => fields.iter().filter(|f| f.0 != "runs").collect(),
        _ => Vec::new(),
    }
}

/// A report's runs with their labels, in document order, for the
/// label-level diff.
fn labeled_runs<'a>(path: &str, doc: &'a Json) -> Result<Vec<(&'a str, &'a Json)>, FlipperError> {
    let bad = || {
        FlipperError::usage(format!(
            "{path} has no \"runs\" array of labeled run objects"
        ))
    };
    let Some(Json::Arr(runs)) = doc.get("runs") else {
        return Err(bad());
    };
    runs.iter()
        .map(|run| {
            let label = run.get("label").and_then(Json::as_str).ok_or_else(bad)?;
            Ok((label, run))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipper_api::io::detect_format;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The CLI with its standard output discarded.
    fn run(args: &[String]) -> Result<u8, FlipperError> {
        super::run(args, &mut std::io::sink())
    }

    /// A standard output that fails every write and flush with `kind`.
    struct FailingOut(std::io::ErrorKind);

    impl Write for FailingOut {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(self.0.into())
        }
    }

    /// A closed standard output (`flipper … | head -1`) ends the output
    /// quietly: every subcommand runs to completion and exits with the code
    /// it would have, an `--output-json` file is still written, and nothing
    /// panics. Any other write error stays a typed I/O error (exit 1).
    #[test]
    fn closed_stdout_is_a_quiet_success() {
        let dir = std::env::temp_dir().join(format!("flipper-cli-pipe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.txt").to_string_lossy().to_string();
        let fbin = dir.join("p.fbin").to_string_lossy().to_string();
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        let (a, b) = (a.to_string_lossy(), b.to_string_lossy());
        run(&strs(&["generate", "--kind", "planted", "--out", &path])).unwrap();
        let mine = |gamma: &str, json: &str| {
            strs(&[
                "mine",
                "--input",
                &path,
                "--gamma",
                gamma,
                "--epsilon",
                "0.35",
                "--minsup",
                "0.001",
                "--output-json",
                json,
            ])
        };
        let closed =
            |args: &[String]| super::run(args, &mut FailingOut(std::io::ErrorKind::BrokenPipe));
        for (args, code) in [
            (strs(&["help"]), 0),
            (strs(&["generate", "--kind", "planted"]), 0),
            (strs(&["convert", "--input", &path, "--out", &fbin]), 0),
            (strs(&["stats", "--input", &path]), 0),
            (mine("0.6", &a), 0),
            (mine("0.5", &b), 0),
            (
                strs(&[
                    "sweep",
                    "--input",
                    &path,
                    "--gammas",
                    "0.6,0.5",
                    "--epsilons",
                    "0.35",
                ]),
                0,
            ),
            (
                strs(&["topk", "--input", &path, "--k", "2", "--minsup", "0.001"]),
                0,
            ),
            (strs(&["results-diff", &a, &a]), 0),
            (strs(&["results-diff", &a, &b]), 1),
        ] {
            assert_eq!(closed(&args).unwrap(), code, "{args:?}");
        }
        let other = |args: &[String]| super::run(args, &mut FailingOut(std::io::ErrorKind::Other));
        for args in [
            strs(&["help"]),
            strs(&["stats", "--input", &path]),
            mine("0.6", &a),
        ] {
            let err = other(&args).unwrap_err();
            assert!(matches!(err, FlipperError::Io { .. }), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 1, "{args:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_flags_happy_path() {
        let f = parse_flags(&strs(&["--kind", "quest", "--seed", "7"]), GENERATE_FLAGS).unwrap();
        assert_eq!(f["kind"], "quest");
        assert_eq!(f["seed"], "7");
    }

    #[test]
    fn parse_flags_rejects_bare_values() {
        let err = parse_flags(&strs(&["kind", "quest"]), GENERATE_FLAGS).unwrap_err();
        assert!(matches!(err, FlipperError::Usage(_)));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn parse_flags_rejects_missing_value() {
        let err = parse_flags(&strs(&["--kind"]), GENERATE_FLAGS).unwrap_err();
        assert!(matches!(err, FlipperError::Usage(_)));
    }

    /// A misspelt flag is refused by name instead of silently mining with
    /// the default it was meant to override.
    #[test]
    fn misspelt_flag_is_a_usage_error() {
        let err = run(&strs(&["mine", "--input", "q.fbin", "--gama", "0.5"])).unwrap_err();
        assert!(matches!(err, FlipperError::Usage(_)));
        assert!(err.to_string().contains("--gama"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    /// Removed flags are refused like any other unknown flag.
    #[test]
    fn removed_engine_flags_are_usage_errors() {
        for (cmd, flag) in [
            ("mine", "--engine"),
            ("mine", "--cache-budget"),
            ("sweep", "--engines"),
            ("sweep", "--seed-supports"),
            ("sweep", "--jobs"),
            ("sweep", "--checkpoint"),
            ("sweep", "--resume"),
        ] {
            let err = run(&strs(&[cmd, "--input", "q.fbin", flag, "tidset"])).unwrap_err();
            assert!(err.to_string().contains(flag), "{cmd} {flag}: {err}");
            assert_eq!(err.exit_code(), 2, "{cmd} {flag}");
        }
        // A flag of one subcommand is unknown to another.
        let err = run(&strs(&["stats", "--input", "q.fbin", "--top", "3"])).unwrap_err();
        assert!(err.to_string().contains("--top"), "{err}");
    }

    #[test]
    fn unknown_subcommand_is_a_usage_error() {
        let err = run(&strs(&["frobnicate"])).unwrap_err();
        assert!(matches!(err, FlipperError::Usage(_)));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn help_succeeds() {
        assert!(run(&strs(&["help"])).is_ok());
        assert!(run(&[]).is_ok());
    }

    #[test]
    fn generate_mine_sweep_roundtrip() {
        let dir = std::env::temp_dir().join(format!("flipper-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("planted.txt").to_string_lossy().to_string();
        let json = dir.join("results.json").to_string_lossy().to_string();
        run(&strs(&["generate", "--kind", "planted", "--out", &path])).unwrap();
        run(&strs(&[
            "mine",
            "--input",
            &path,
            "--gamma",
            "0.6",
            "--epsilon",
            "0.35",
            "--minsup",
            "0.001",
            "--top",
            "3",
            "--output-json",
            &json,
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(&json).unwrap();
        assert!(doc.contains("\"schema\": \"flipper-results/v1\""));
        assert!(doc.contains("{\"label\":\"mine\""));
        // The execution-layer flag: sharded counting (results are identical
        // at every thread count).
        run(&strs(&[
            "mine",
            "--input",
            &path,
            "--threads",
            "2",
            "--top",
            "1",
        ]))
        .unwrap();
        // A sweep over one ingestion: γ × variants grid.
        let sweep_json = dir.join("sweep.json").to_string_lossy().to_string();
        run(&strs(&[
            "sweep",
            "--input",
            &path,
            "--gammas",
            "0.6,0.5",
            "--epsilons",
            "0.35",
            "--variants",
            "all",
            "--output-json",
            &sweep_json,
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(&sweep_json).unwrap();
        assert_eq!(doc.matches("{\"label\":").count(), 8);
        assert!(doc.contains("\"label\":\"g0.6/e0.35/basic\""));
        run(&strs(&["stats", "--input", &path])).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fbin_generate_convert_mine_roundtrip() {
        let dir = std::env::temp_dir().join(format!("flipper-cli-fbin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fbin = dir.join("planted.fbin").to_string_lossy().to_string();
        let text = dir.join("planted.txt").to_string_lossy().to_string();
        let fbin2 = dir.join("back.fbin").to_string_lossy().to_string();
        // generate picks FBIN from the extension.
        run(&strs(&["generate", "--kind", "planted", "--out", &fbin])).unwrap();
        let bytes = std::fs::read(&fbin).unwrap();
        assert_eq!(detect_format(&fbin).unwrap(), FileFormat::Fbin);
        // convert fbin -> text -> fbin round-trips the exact bytes.
        run(&strs(&["convert", "--input", &fbin, "--out", &text])).unwrap();
        assert_eq!(detect_format(&text).unwrap(), FileFormat::Text);
        run(&strs(&["convert", "--input", &text, "--out", &fbin2])).unwrap();
        assert_eq!(bytes, std::fs::read(&fbin2).unwrap());
        // mine and stats accept the binary input transparently (mine takes
        // the streaming path).
        run(&strs(&[
            "mine",
            "--input",
            &fbin,
            "--threads",
            "2",
            "--top",
            "1",
        ]))
        .unwrap();
        run(&strs(&["stats", "--input", &fbin])).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_and_timings_do_not_change_results() {
        let dir = std::env::temp_dir().join(format!("flipper-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A text input is fully loaded; an FBIN input is streamed chunk by
        // chunk and is the only one with store spans. Quest's counting
        // batches are large enough to shard at two threads (`exec.shard`).
        for (file, streamed) in [("quest.txt", false), ("quest.fbin", true)] {
            let path = dir.join(file).to_string_lossy().to_string();
            let base_json = dir.join("base.json").to_string_lossy().to_string();
            let traced_json = dir.join("traced.json").to_string_lossy().to_string();
            let trace = dir.join("t.json").to_string_lossy().to_string();
            run(&strs(&[
                "generate",
                "--kind",
                "quest",
                "--transactions",
                "1000",
                "--seed",
                "7",
                "--out",
                &path,
            ]))
            .unwrap();
            let mine = |extra: &[&str]| {
                let mut args = strs(&["mine", "--input", &path, "--threads", "2", "--top", "1"]);
                args.extend(strs(extra));
                run(&args).unwrap();
            };
            mine(&["--output-json", &base_json]);
            mine(&[
                "--output-json",
                &traced_json,
                "--trace",
                &trace,
                "--timings",
            ]);
            // The hard invariant: recording must not perturb result bytes.
            assert_eq!(
                std::fs::read(&base_json).unwrap(),
                std::fs::read(&traced_json).unwrap(),
                "{file}: flipper-results/v1 bytes must be identical with --trace on/off"
            );
            // The emitted trace is a valid flipper-trace/v1 document covering
            // the pipeline phases.
            let doc = std::fs::read_to_string(&trace).unwrap();
            let stats = flipper_obs::validate_trace(&doc).expect("trace must parse and nest");
            for name in [
                "session.ingest",
                "view.build",
                "view.dense",
                "mine.run",
                "mine.cell",
                "mine.count",
                "mine.enumerate",
                "exec.shard",
            ] {
                assert!(
                    stats.names.contains(name),
                    "{file}: trace is missing span {name}"
                );
            }
            for name in ["store.decode", "store.chunk"] {
                assert_eq!(
                    stats.names.contains(name),
                    streamed,
                    "{file}: span {name} must appear exactly when the input is streamed"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timings_flag_is_boolean() {
        let f = parse_flags(&strs(&["--timings", "--top", "3"]), MINE_FLAGS).unwrap();
        assert_eq!(f["timings"], "on");
        assert_eq!(f["top"], "3");
    }

    #[test]
    fn convert_rejects_bad_target_format() {
        let err = run(&strs(&[
            "convert", "--input", "x", "--out", "y", "--to", "parquet",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("expects text or fbin"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn missing_input_is_a_data_error_not_usage() {
        let err = run(&strs(&["mine", "--input", "/nonexistent"])).unwrap_err();
        assert!(matches!(err, FlipperError::Io { .. }));
        assert!(err.to_string().contains("open"));
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn generate_rejects_unknown_kind() {
        let err = run(&strs(&["generate", "--kind", "nope"])).unwrap_err();
        assert!(err.to_string().contains("unknown dataset kind"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn report_variant_names_parse_back() {
        // Labels/config values emitted in flipper-results/v1 reports can be
        // pasted back into --variant.
        assert_eq!(
            parse_variant("flipping+tpg").unwrap(),
            PruningConfig::FLIPPING_TPG
        );
        assert_eq!(
            parse_variant("flipping+tpg+sibp").unwrap(),
            PruningConfig::FULL
        );
        for v in PruningConfig::VARIANTS {
            assert_eq!(parse_variant(v.name()).unwrap(), v);
        }
    }

    #[test]
    fn unwritable_output_json_fails_before_mining() {
        let dir = std::env::temp_dir().join(format!("flipper-cli-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.txt").to_string_lossy().to_string();
        run(&strs(&["generate", "--kind", "planted", "--out", &path])).unwrap();
        let err = run(&strs(&[
            "mine",
            "--input",
            &path,
            "--output-json",
            "/nonexistent-dir/r.json",
        ]))
        .unwrap_err();
        assert!(matches!(err, FlipperError::Io { .. }));
        assert!(err.to_string().contains("create"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_thresholds_are_usage_errors() {
        let err = run(&strs(&[
            "mine",
            "--input",
            "/nonexistent",
            "--gamma",
            "0.1",
            "--epsilon",
            "0.4",
        ]))
        .unwrap_err();
        assert!(matches!(err, FlipperError::Usage(_)));
        assert!(err.to_string().contains("epsilon < gamma"));
    }

    #[test]
    fn empty_sweep_grid_is_rejected() {
        let dir = std::env::temp_dir().join(format!("flipper-cli-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.txt").to_string_lossy().to_string();
        run(&strs(&["generate", "--kind", "planted", "--out", &path])).unwrap();
        let err = run(&strs(&[
            "sweep",
            "--input",
            &path,
            "--gammas",
            "0.2",
            "--epsilons",
            "0.3",
        ]))
        .unwrap_err();
        assert!(matches!(err, FlipperError::Usage(_)));
        assert!(err.to_string().contains("empty"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn text_parser_names_fbin_mixups_through_the_facade() {
        // Feeding FBIN bytes to the text reader must name the problem, not
        // report a baffling line-1 parse error, once converted into the
        // facade's error type.
        let ds = Generator::Planted(PlantedParams::default()).dataset();
        let mut bytes = Vec::new();
        write_to(&mut bytes, &ds, FileFormat::Fbin).unwrap();
        let err = FlipperError::from(flipper_data::format::read_dataset(&bytes[..]).unwrap_err());
        assert!(matches!(err, FlipperError::Parse { line: 1, .. }));
        assert!(
            err.to_string().contains("FBIN"),
            "error should name the binary format: {err}"
        );
    }

    #[test]
    fn timeout_flag_validates_then_expires_with_exit_3() {
        // Zero, negative and non-numeric timeouts are usage errors, caught
        // before the input file is touched.
        for bad in ["0", "-1", "soon", "inf", "nan"] {
            let err = run(&strs(&[
                "mine",
                "--input",
                "/nonexistent",
                "--timeout",
                bad,
            ]))
            .unwrap_err();
            assert!(matches!(err, FlipperError::Usage(_)), "{bad:?}: {err}");
            assert_eq!(err.exit_code(), 2);
        }
        // A timeout that expires before the first deadline check surfaces
        // as the typed Timeout error and the dedicated exit code 3, writes
        // no report and leaves an existing `--output-json` file byte for
        // byte as it was, or a fresh path without a file. A traced run
        // writes no trace either, and closes its capture.
        let dir = std::env::temp_dir().join(format!("flipper-cli-timeout-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.txt").to_string_lossy().to_string();
        let json = dir.join("r.json").to_string_lossy().to_string();
        run(&strs(&["generate", "--kind", "planted", "--out", &path])).unwrap();
        for cmd in ["mine", "sweep"] {
            let args = |extra: &[&str]| {
                let mut args = strs(&[cmd, "--input", &path, "--output-json", &json]);
                args.extend(strs(extra));
                args
            };
            run(&args(&[])).unwrap();
            let report = std::fs::read(&json).unwrap();
            assert!(report.starts_with(b"{\n  \"schema\""), "{cmd}");
            let err = run(&args(&["--timeout", "0.000000001"])).unwrap_err();
            assert!(matches!(err, FlipperError::Timeout), "{cmd}: {err}");
            assert_eq!(err.exit_code(), 3);
            assert_eq!(std::fs::read(&json).unwrap(), report, "{cmd}");
            let fresh = dir.join(format!("{cmd}-fresh.json"));
            let fresh_arg = fresh.to_string_lossy().to_string();
            let trace = dir.join(format!("{cmd}-trace.json"));
            let trace_arg = trace.to_string_lossy().to_string();
            let err = run(&strs(&[
                cmd,
                "--input",
                &path,
                "--output-json",
                &fresh_arg,
                "--trace",
                &trace_arg,
                "--timeout",
                "0.000000001",
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 3, "{cmd}: {err}");
            assert!(!fresh.exists(), "{cmd}: a timed-out run left {fresh_arg}");
            assert!(!trace.exists(), "{cmd}: a timed-out run left {trace_arg}");
            assert!(!flipper_obs::enabled(), "{cmd}: the capture stayed open");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn salvage_mines_damaged_fbin_and_stamps_the_report() {
        let dir = std::env::temp_dir().join(format!("flipper-cli-salvage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fbin = dir.join("p.fbin").to_string_lossy().to_string();
        let damaged = dir.join("damaged.fbin").to_string_lossy().to_string();
        run(&strs(&["generate", "--kind", "planted", "--out", &fbin])).unwrap();
        // Corrupt the file's final byte: the end section's CRC.
        let mut bytes = std::fs::read(&fbin).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&damaged, &bytes).unwrap();
        // Strict mining refuses the damaged file (data error, exit 1)…
        let err = run(&strs(&["mine", "--input", &damaged, "--top", "1"])).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        // …salvage mode mines it and stamps the JSON report as degraded.
        let degraded_json = dir.join("degraded.json").to_string_lossy().to_string();
        run(&strs(&[
            "mine",
            "--input",
            &damaged,
            "--salvage",
            "--top",
            "1",
            "--output-json",
            &degraded_json,
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(&degraded_json).unwrap();
        assert!(doc.contains("\n  \"degraded\": \""), "{doc}");
        assert!(doc.contains("checksum"), "{doc}");
        // Salvage of an intact file is byte-identical to a strict run: the
        // degraded stamp is strictly additive.
        let strict_json = dir.join("strict.json").to_string_lossy().to_string();
        let intact_json = dir.join("intact.json").to_string_lossy().to_string();
        run(&strs(&[
            "mine",
            "--input",
            &fbin,
            "--top",
            "1",
            "--output-json",
            &strict_json,
        ]))
        .unwrap();
        run(&strs(&[
            "mine",
            "--input",
            &fbin,
            "--salvage",
            "--top",
            "1",
            "--output-json",
            &intact_json,
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&strict_json).unwrap(),
            std::fs::read(&intact_json).unwrap(),
            "salvage of an intact file must not perturb result bytes"
        );
        // Salvage only applies to the FBIN container.
        let text = dir.join("p.txt").to_string_lossy().to_string();
        run(&strs(&["convert", "--input", &fbin, "--out", &text])).unwrap();
        let err = run(&strs(&["mine", "--input", &text, "--salvage"])).unwrap_err();
        assert!(matches!(err, FlipperError::Usage(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_diff_distinguishes_identical_equivalent_and_different() {
        let dir = std::env::temp_dir().join(format!("flipper-cli-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.txt").to_string_lossy().to_string();
        run(&strs(&["generate", "--kind", "planted", "--out", &path])).unwrap();
        let mine = |gamma: &str, out: &str| {
            run(&strs(&[
                "mine",
                "--input",
                &path,
                "--gamma",
                gamma,
                "--epsilon",
                "0.35",
                "--minsup",
                "0.001",
                "--top",
                "1",
                "--output-json",
                out,
            ]))
            .unwrap();
        };
        let a = dir.join("a.json").to_string_lossy().to_string();
        let b = dir.join("b.json").to_string_lossy().to_string();
        let c = dir.join("c.json").to_string_lossy().to_string();
        mine("0.6", &a);
        mine("0.6", &b);
        mine("0.5", &c);
        // Byte-identical reports: exit 0.
        assert_eq!(run(&strs(&["results-diff", &a, &b])).unwrap(), 0);
        // Formatting-only difference (trailing newline): still exit 0.
        let mut padded = std::fs::read(&b).unwrap();
        padded.extend_from_slice(b"\n");
        std::fs::write(&b, &padded).unwrap();
        assert_eq!(run(&strs(&["results-diff", &a, &b])).unwrap(), 0);
        // Different mining configuration: the runs differ, exit 1.
        assert_eq!(run(&strs(&["results-diff", &a, &c])).unwrap(), 1);
        // Trouble is not a diff: missing file is I/O (exit 1 via error),
        // non-report input and wrong arity are usage (exit 2).
        let err = run(&strs(&["results-diff", &a, "/nonexistent"])).unwrap_err();
        assert!(matches!(err, FlipperError::Io { .. }), "{err}");
        let err = run(&strs(&["results-diff", &a, &path])).unwrap_err();
        assert!(matches!(err, FlipperError::Usage(_)), "{err}");
        assert_eq!(err.exit_code(), 2);
        let err = run(&strs(&["results-diff", &a])).unwrap_err();
        assert!(matches!(err, FlipperError::Usage(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two sweeps whose `--gammas` order is swapped hold the same runs in a
    /// different order: the diff says exactly that, and still exits 1.
    #[test]
    fn results_diff_reports_reordered_runs() {
        let dir = std::env::temp_dir().join(format!("flipper-cli-order-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.txt").to_string_lossy().to_string();
        run(&strs(&["generate", "--kind", "planted", "--out", &path])).unwrap();
        let sweep = |gammas: &str, name: &str| {
            let out = dir.join(name).to_string_lossy().to_string();
            run(&strs(&[
                "sweep",
                "--input",
                &path,
                "--gammas",
                gammas,
                "--epsilons",
                "0.35",
                "--minsup",
                "0.001",
                "--output-json",
                &out,
            ]))
            .unwrap();
            out
        };
        let a = sweep("0.6,0.5", "a.json");
        let b = sweep("0.5,0.6", "b.json");
        assert_eq!(run(&strs(&["results-diff", &a, &b])).unwrap(), 1);
        let doc = |path: &str| parse_results(path, &std::fs::read_to_string(path).unwrap());
        let (doc_a, doc_b) = (doc(&a).unwrap(), doc(&b).unwrap());
        assert_eq!(
            report_differences((&a, &doc_a), (&b, &doc_b)).unwrap(),
            ["! the runs match, but their order differs"]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
