//! Pluggable result sinks: where labeled mining results go.
//!
//! A [`ResultSink`] consumes `(label, taxonomy, config, result)` records —
//! one per mining run — and renders them somewhere: a human-readable
//! [`TextReport`], the machine-readable [`JsonWriter`]
//! (`flipper-results/v1`), or an accumulating [`TopK`] leaderboard. The CLI
//! fans one run out to several sinks at once (stdout report + `--output-json`
//! file); a future server frontend streams sweeps through the same trait.
//!
//! # The `flipper-results/v1` schema
//!
//! A single JSON document (hand-rolled — the workspace builds offline with
//! zero external crates), keys always in the order shown:
//!
//! ```text
//! { "schema": "flipper-results/v1",
//!   "degraded": "…",   // additive; present only for partial-data runs
//!   "runs": [
//!     { "label": "...",
//!       "config": { "measure", "gamma", "epsilon", "min_support",
//!                   "pruning", "max_k" },
//!       "patterns": [
//!         { "items": ["a11","b11"], "size": 2, "flip_gap": 0.683,
//!           "chain": [ { "level", "items", "support", "corr", "label" } ] } ],
//!       "totals": { "patterns", "positive", "negative" },
//!       "cells": [ { "level", "k", "evaluated", "frequent",
//!                    "positive", "negative", "alive" } ],
//!       "stats": { ... search counters ... } } ] }
//! ```
//!
//! The document deliberately records only **result-determining** inputs and
//! **deterministic** outputs: the execution knob `threads`, the counting
//! kernel's work counters, and wall-clock timings are all excluded, so the
//! bytes are identical at every thread count and on every machine — the
//! property the golden-file test pins. Timings and kernel counters are
//! reported by `flipper mine --timings` and `--trace` instead.

use crate::error::FlipperError;
use flipper_core::{FlipperConfig, FlippingPattern, MinSupports, MiningResult};
use flipper_measures::Measure;
use flipper_taxonomy::Taxonomy;
use std::io::Write;

/// A consumer of labeled mining results.
pub trait ResultSink {
    /// Consume one run. `label` distinguishes sweep points; single runs
    /// conventionally use `"mine"`.
    fn consume(
        &mut self,
        label: &str,
        taxonomy: &Taxonomy,
        config: &FlipperConfig,
        result: &MiningResult,
    ) -> Result<(), FlipperError>;

    /// Flush and finalize. Must be called exactly once, after the last
    /// [`consume`](ResultSink::consume).
    fn finish(&mut self) -> Result<(), FlipperError> {
        Ok(())
    }
}

/// Feed every sweep run through `sink` (in order) and finish it.
pub fn emit_runs(
    sink: &mut dyn ResultSink,
    taxonomy: &Taxonomy,
    runs: &[crate::SweepRun],
) -> Result<(), FlipperError> {
    for run in runs {
        sink.consume(&run.label, taxonomy, &run.config, &run.result)?;
    }
    sink.finish()
}

fn write_err(e: std::io::Error) -> FlipperError {
    FlipperError::io("writing report", e)
}

// ---------------------------------------------------------------- TextReport

/// Human-readable report, the format the CLI has always printed.
pub struct TextReport<W: Write> {
    w: W,
    top: usize,
    runs_written: usize,
}

impl<W: Write> TextReport<W> {
    /// Report into `w`, printing every pattern.
    pub fn new(w: W) -> Self {
        TextReport {
            w,
            top: usize::MAX,
            runs_written: 0,
        }
    }

    /// Print only the `top` patterns per run (by descending flip gap).
    pub fn with_top(mut self, top: usize) -> Self {
        self.top = top;
        self
    }

    /// Recover the writer after [`finish`](ResultSink::finish).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write> ResultSink for TextReport<W> {
    fn consume(
        &mut self,
        label: &str,
        taxonomy: &Taxonomy,
        _config: &FlipperConfig,
        result: &MiningResult,
    ) -> Result<(), FlipperError> {
        if self.runs_written > 0 {
            writeln!(self.w).map_err(write_err)?;
        }
        self.runs_written += 1;
        writeln!(
            self.w,
            "[{label}] {} flipping patterns (showing {})",
            result.patterns.len(),
            self.top.min(result.patterns.len())
        )
        .map_err(write_err)?;
        for p in result.top_k_by_gap(self.top) {
            writeln!(self.w, "gap {:.3}:", p.flip_gap()).map_err(write_err)?;
            writeln!(self.w, "{}\n", p.display(taxonomy)).map_err(write_err)?;
        }
        writeln!(
            self.w,
            "pos={} neg={}",
            result.total_positive(),
            result.total_negative()
        )
        .map_err(write_err)?;
        writeln!(self.w, "stats: {}", result.stats.summary()).map_err(write_err)?;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), FlipperError> {
        self.w.flush().map_err(write_err)
    }
}

// ---------------------------------------------------------------- JsonWriter

/// Escape a string as a JSON string literal.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render a finite float with Rust's shortest round-trip formatting (the
/// same bits always give the same text); non-finite values become `null`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// `["name", "name", ...]` for an itemset under `tax`.
fn push_items(out: &mut String, tax: &Taxonomy, items: &[flipper_taxonomy::NodeId]) {
    out.push('[');
    for (i, &item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, tax.name(item));
    }
    out.push(']');
}

fn render_pattern(out: &mut String, tax: &Taxonomy, p: &FlippingPattern) {
    out.push_str("{\"items\":");
    push_items(out, tax, p.leaf_itemset.items());
    out.push_str(&format!(",\"size\":{},\"flip_gap\":", p.size()));
    push_f64(out, p.flip_gap());
    out.push_str(",\"chain\":[");
    for (i, lv) in p.chain.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"level\":{},\"items\":", lv.level));
        push_items(out, tax, lv.itemset.items());
        out.push_str(&format!(",\"support\":{},\"corr\":", lv.support));
        push_f64(out, lv.corr);
        out.push_str(",\"label\":");
        push_json_string(out, &lv.label.sigil().to_string());
        out.push('}');
    }
    out.push_str("]}");
}

/// Stable lower-case measure name.
fn measure_name(m: Measure) -> &'static str {
    match m {
        Measure::AllConfidence => "all-confidence",
        Measure::Coherence => "coherence",
        Measure::Cosine => "cosine",
        Measure::Kulczynski => "kulczynski",
        Measure::MaxConfidence => "max-confidence",
    }
}

fn render_config(out: &mut String, cfg: &FlipperConfig) {
    out.push_str("{\"measure\":");
    push_json_string(out, measure_name(cfg.measure));
    out.push_str(",\"gamma\":");
    push_f64(out, cfg.thresholds.gamma);
    out.push_str(",\"epsilon\":");
    push_f64(out, cfg.thresholds.epsilon);
    out.push_str(",\"min_support\":{");
    match &cfg.min_support {
        MinSupports::Fractions(fs) => {
            out.push_str("\"fractions\":[");
            for (i, &f) in fs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_f64(out, f);
            }
            out.push(']');
        }
        MinSupports::Counts(cs) => {
            out.push_str("\"counts\":[");
            for (i, &c) in cs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{c}"));
            }
            out.push(']');
        }
    }
    out.push_str("},\"pruning\":");
    push_json_string(out, cfg.pruning.name());
    out.push_str(",\"max_k\":");
    match cfg.max_k {
        Some(k) => out.push_str(&format!("{k}")),
        None => out.push_str("null"),
    }
    out.push('}');
}

/// The machine-readable sink: one `flipper-results/v1` document per writer.
///
/// Runs are streamed — each [`consume`](ResultSink::consume) appends one
/// entry to the `runs` array, [`finish`](ResultSink::finish) closes the
/// document. See the module docs for the schema and the determinism
/// contract (byte-identical at every thread count).
pub struct JsonWriter<W: Write> {
    w: W,
    degraded: Option<String>,
    runs_written: usize,
    finished: bool,
}

impl<W: Write> JsonWriter<W> {
    /// Write a `flipper-results/v1` document into `w`.
    pub fn new(w: W) -> Self {
        JsonWriter {
            w,
            degraded: None,
            runs_written: 0,
            finished: false,
        }
    }

    /// Stamp the document as **degraded**: results were computed from
    /// partial data (e.g. a salvaged FBIN file with quarantined chunks),
    /// and `note` says what was lost. The field is strictly additive — it
    /// only appears when set, so documents from clean runs stay
    /// byte-identical to pre-salvage goldens — and machine consumers should
    /// treat its mere presence as "do not compare against intact-data
    /// results".
    pub fn with_degraded(mut self, note: impl Into<String>) -> Self {
        self.degraded = Some(note.into());
        self
    }

    /// The document opener: schema line, then the `degraded` stamp when
    /// one is set, then the `runs` array.
    fn header(&self) -> String {
        let mut out = format!("{{\n  \"schema\": \"{}\",\n", flipper_wire::RESULTS_V1);
        if let Some(note) = &self.degraded {
            out.push_str("  \"degraded\": ");
            push_json_string(&mut out, note);
            out.push_str(",\n");
        }
        out
    }

    /// Recover the writer after [`finish`](ResultSink::finish).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write> ResultSink for JsonWriter<W> {
    fn consume(
        &mut self,
        label: &str,
        taxonomy: &Taxonomy,
        config: &FlipperConfig,
        result: &MiningResult,
    ) -> Result<(), FlipperError> {
        assert!(!self.finished, "consume after finish");
        let mut out = String::new();
        if self.runs_written == 0 {
            out.push_str(&self.header());
            out.push_str("  \"runs\": [\n");
        } else {
            out.push_str(",\n");
        }
        self.runs_written += 1;

        out.push_str("    {\"label\":");
        push_json_string(&mut out, label);
        out.push_str(",\"config\":");
        render_config(&mut out, config);
        out.push_str(",\n     \"patterns\":[");
        for (i, p) in result.patterns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n      ");
            render_pattern(&mut out, taxonomy, p);
        }
        if !result.patterns.is_empty() {
            out.push_str("\n     ");
        }
        out.push_str("],\n     \"totals\":{");
        out.push_str(&format!(
            "\"patterns\":{},\"positive\":{},\"negative\":{}}}",
            result.patterns.len(),
            result.total_positive(),
            result.total_negative()
        ));
        out.push_str(",\n     \"cells\":[");
        for (i, c) in result.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"level\":{},\"k\":{},\"evaluated\":{},\"frequent\":{},\
                 \"positive\":{},\"negative\":{},\"alive\":{}}}",
                c.level, c.k, c.evaluated, c.frequent, c.positive, c.negative, c.alive
            ));
        }
        let s = &result.stats;
        out.push_str("],\n     \"stats\":{");
        out.push_str(&format!(
            "\"cells_evaluated\":{},\"candidates_generated\":{},\
             \"pruned_by_sibp\":{},\"pruned_by_support\":{},\
             \"dead_parent_cells\":{},\"frequent_found\":{},\
             \"positive_found\":{},\"negative_found\":{},\"tpg_cap\":{},\
             \"sibp_banned_items\":{},\"peak_resident_itemsets\":{},\
             \"total_stored_itemsets\":{}}}}}",
            s.cells_evaluated,
            s.candidates_generated,
            s.pruned_by_sibp,
            s.pruned_by_support,
            s.dead_parent_cells,
            s.frequent_found,
            s.positive_found,
            s.negative_found,
            s.tpg_cap,
            s.sibp_banned_items,
            s.peak_resident_itemsets,
            s.total_stored_itemsets,
        ));
        self.w.write_all(out.as_bytes()).map_err(write_err)
    }

    fn finish(&mut self) -> Result<(), FlipperError> {
        assert!(!self.finished, "finish called twice");
        self.finished = true;
        let tail = if self.runs_written == 0 {
            format!("{}  \"runs\": []\n}}\n", self.header())
        } else {
            "\n  ]\n}\n".to_string()
        };
        self.w.write_all(tail.as_bytes()).map_err(write_err)?;
        self.w.flush().map_err(write_err)
    }
}

// ---------------------------------------------------------------- TopK

/// An accumulating leaderboard: keeps the `k` patterns with the largest
/// flip gap seen across every consumed run (ties broken by label, then by
/// leaf itemset, for fully deterministic ordering).
pub struct TopK {
    k: usize,
    entries: Vec<TopKEntry>,
}

/// One leaderboard entry.
#[derive(Debug, Clone)]
pub struct TopKEntry {
    /// Label of the run the pattern came from.
    pub label: String,
    /// The pattern's flip gap (cached for sorting).
    pub gap: f64,
    /// The pattern itself.
    pub pattern: FlippingPattern,
}

impl TopK {
    /// Keep the best `k` patterns.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            entries: Vec::new(),
        }
    }

    /// The current leaderboard, descending by gap.
    pub fn entries(&self) -> &[TopKEntry] {
        &self.entries
    }

    /// Render the leaderboard as text lines (`gap label itemset`).
    pub fn render(&self, taxonomy: &Taxonomy) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "{:.3}  [{}]  {}\n",
                e.gap,
                e.label,
                e.pattern.leaf_itemset.display(taxonomy)
            ));
        }
        out
    }
}

impl ResultSink for TopK {
    fn consume(
        &mut self,
        label: &str,
        _taxonomy: &Taxonomy,
        _config: &FlipperConfig,
        result: &MiningResult,
    ) -> Result<(), FlipperError> {
        for p in &result.patterns {
            self.entries.push(TopKEntry {
                label: label.to_string(),
                gap: p.flip_gap(),
                pattern: p.clone(),
            });
        }
        self.entries.sort_by(|a, b| {
            b.gap
                .total_cmp(&a.gap)
                .then_with(|| a.label.cmp(&b.label))
                .then_with(|| a.pattern.leaf_itemset.cmp(&b.pattern.leaf_itemset))
        });
        self.entries.truncate(self.k);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::source::Generator;
    use flipper_datagen::planted::PlantedParams;

    fn session_and_result() -> (Session, FlipperConfig, MiningResult) {
        let session = Session::open(Generator::Planted(PlantedParams::default())).unwrap();
        let (gamma, epsilon) = flipper_datagen::planted::recommended_thresholds();
        let cfg = FlipperConfig {
            thresholds: flipper_measures::Thresholds::new(gamma, epsilon),
            min_support: flipper_core::MinSupports::Counts(vec![5]),
            ..Default::default()
        };
        let result = session.mine(&cfg).unwrap();
        assert!(!result.patterns.is_empty(), "calibrated run finds patterns");
        (session, cfg, result)
    }

    #[test]
    fn text_report_prints_patterns_and_stats() {
        let (session, cfg, result) = session_and_result();
        let mut sink = TextReport::new(Vec::new()).with_top(1);
        sink.consume("mine", session.taxonomy(), &cfg, &result)
            .unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains("[mine]"));
        assert!(text.contains("flipping patterns (showing 1)"));
        assert!(text.contains("stats: cells="));
    }

    #[test]
    fn json_writer_emits_schema_with_stable_shape() {
        let (session, cfg, result) = session_and_result();
        let mut sink = JsonWriter::new(Vec::new());
        sink.consume("a", session.taxonomy(), &cfg, &result)
            .unwrap();
        sink.consume("b", session.taxonomy(), &cfg, &result)
            .unwrap();
        sink.finish().unwrap();
        let doc = String::from_utf8(sink.into_inner()).unwrap();
        assert!(doc.contains("\"schema\": \"flipper-results/v1\""));
        assert_eq!(doc.matches("{\"label\":").count(), 2);
        assert!(doc.contains("\"pruning\":\"flipping+tpg+sibp\""));
        assert!(doc.contains("\"min_support\":{\"counts\":[5]}"));
        // Execution knobs and kernel work counters are deliberately
        // absent: the bytes must be identical at every thread count.
        assert!(!doc.contains("threads"));
        assert!(!doc.contains("elapsed"));
        assert!(!doc.contains("\"counter\""));
        assert!(!doc.contains("intersections"));
        assert!(!doc.contains("cache"));
        // Structural balance (stand-in for a JSON parser offline).
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        let unescaped = doc.replace("\\\"", "");
        assert_eq!(unescaped.matches('"').count() % 2, 0);
    }

    #[test]
    fn json_writer_same_input_same_bytes() {
        let (session, cfg, result) = session_and_result();
        let render = || {
            let mut sink = JsonWriter::new(Vec::new());
            sink.consume("mine", session.taxonomy(), &cfg, &result)
                .unwrap();
            sink.finish().unwrap();
            sink.into_inner()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn json_writer_empty_document_is_closed() {
        let mut sink = JsonWriter::new(Vec::new());
        sink.finish().unwrap();
        let doc = String::from_utf8(sink.into_inner()).unwrap();
        assert!(doc.contains("\"runs\": []"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn degraded_stamp_is_strictly_additive() {
        let (session, cfg, result) = session_and_result();
        let render = |degraded: Option<&str>| {
            let mut sink = JsonWriter::new(Vec::new());
            if let Some(note) = degraded {
                sink = sink.with_degraded(note);
            }
            sink.consume("mine", session.taxonomy(), &cfg, &result)
                .unwrap();
            sink.finish().unwrap();
            String::from_utf8(sink.into_inner()).unwrap()
        };
        let clean = render(None);
        assert!(!clean.contains("degraded"));
        let stamped = render(Some("quarantined 2 chunks (\"bit rot\")"));
        assert!(stamped
            .contains("\"degraded\": \"quarantined 2 chunks (\\\"bit rot\\\")\",\n  \"runs\""));
        // Removing the one stamped line recovers the clean bytes exactly.
        let stripped: String = stamped
            .lines()
            .filter(|l| !l.contains("\"degraded\""))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        assert_eq!(stripped, clean);

        // Empty documents carry the stamp too.
        let mut sink = JsonWriter::new(Vec::new()).with_degraded("salvage");
        sink.finish().unwrap();
        let doc = String::from_utf8(sink.into_inner()).unwrap();
        assert!(doc.contains("\"degraded\": \"salvage\""));
        assert!(doc.contains("\"runs\": []"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn topk_sink_keeps_best_across_runs() {
        let (session, cfg, result) = session_and_result();
        let mut sink = TopK::new(3);
        sink.consume("r1", session.taxonomy(), &cfg, &result)
            .unwrap();
        sink.consume("r2", session.taxonomy(), &cfg, &result)
            .unwrap();
        sink.finish().unwrap();
        assert_eq!(sink.entries().len(), 3.min(result.patterns.len() * 2));
        for w in sink.entries().windows(2) {
            assert!(w[0].gap >= w[1].gap);
        }
        let rendered = sink.render(session.taxonomy());
        assert!(rendered.contains("[r1]"));
    }

    #[test]
    fn emit_runs_feeds_every_sweep_point() {
        let (session, cfg, _) = session_and_result();
        let runs = session.sweep().pruning_variants(&cfg).run().unwrap();
        let mut sink = JsonWriter::new(Vec::new());
        emit_runs(&mut sink, session.taxonomy(), &runs).unwrap();
        let doc = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(doc.matches("{\"label\":").count(), 4);
        assert!(doc.contains("\"label\":\"basic\""));
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        push_json_string(&mut out, "we\"ird\\na\nme");
        assert_eq!(out, "\"we\\\"ird\\\\na\\u000ame\"");
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        let mut out = String::new();
        push_f64(&mut out, 0.75);
        assert_eq!(out, "0.75");
    }
}
