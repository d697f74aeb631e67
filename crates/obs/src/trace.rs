//! `flipper-trace/v1`: Chrome trace-event JSON export and validation.
//!
//! The export is the Chrome trace-event format (the JSON Array-of-events
//! object form loadable in `chrome://tracing` / Perfetto): one `"X"`
//! (complete) event per span with microsecond `ts`/`dur`, plus exact
//! nanosecond `tsNs`/`durNs` fields that Chrome ignores but the validator
//! uses to check nesting without rounding artifacts. The top-level object
//! carries `"schema": "flipper-trace/v1"`.
//!
//! [`validate_trace`] re-parses an emitted document with the hand-rolled
//! parser in this module (zero-dependency round-trip) and checks that the
//! schema tag is present, every event is well-formed, and events within
//! each lane are properly nested (disjoint or contained, never
//! partially overlapping).

use crate::span::SpanEvent;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Schema tag written into (and required from) every trace document —
/// re-exported from the flipper-wire registry so the tag is defined once.
pub const TRACE_SCHEMA: &str = flipper_wire::TRACE_V1;

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render events as a `flipper-trace/v1` Chrome trace document.
///
/// Spans become `ph:"X"` complete events, instants (duration 0) become
/// `ph:"i"` events; every recording lane is a `tid` under one `pid`.
pub fn render_chrome_trace(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 120 + 128);
    out.push_str("{\"schema\":\"");
    out.push_str(TRACE_SCHEMA);
    out.push_str("\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let instant = ev.dur_ns == 0;
        out.push_str("{\"name\":\"");
        out.push_str(&escape_json(ev.name));
        out.push_str("\",\"ph\":\"");
        out.push_str(if instant { "i" } else { "X" });
        out.push_str("\",\"pid\":1,\"tid\":");
        out.push_str(&ev.lane.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&(ev.start_ns / 1_000).to_string());
        if !instant {
            out.push_str(",\"dur\":");
            out.push_str(&(ev.dur_ns / 1_000).to_string());
        } else {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"tsNs\":");
        out.push_str(&ev.start_ns.to_string());
        out.push_str(",\"durNs\":");
        out.push_str(&ev.dur_ns.to_string());
        let has_args = ev.label.is_some() || !ev.args.is_empty();
        if has_args {
            out.push_str(",\"args\":{");
            let mut first = true;
            if let Some(label) = &ev.label {
                out.push_str("\"label\":\"");
                out.push_str(&escape_json(label));
                out.push('"');
                first = false;
            }
            for (k, v) in &ev.args {
                if !first {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape_json(k));
                out.push_str("\":");
                out.push_str(&v.to_string());
                first = false;
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Errors from parsing or validating a trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The document is not syntactically valid JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What the parser expected or found.
        message: String,
    },
    /// The document parsed but is not a `flipper-trace/v1` object.
    Schema(String),
    /// An event is missing a field or has one of the wrong type.
    Event {
        /// Index of the offending event in `traceEvents`.
        index: usize,
        /// What is wrong with it.
        message: String,
    },
    /// Two events in one lane partially overlap.
    Nesting {
        /// Lane (`tid`) where the overlap occurs.
        lane: u64,
        /// Names of the two overlapping events.
        names: (String, String),
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            TraceError::Schema(msg) => write!(f, "not a {TRACE_SCHEMA} document: {msg}"),
            TraceError::Event { index, message } => {
                write!(f, "bad trace event #{index}: {message}")
            }
            TraceError::Nesting { lane, names } => write!(
                f,
                "events '{}' and '{}' partially overlap in lane {lane}",
                names.0, names.1
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// A parsed JSON value (minimal model: numbers are `f64`, which is exact
/// for the integer nanosecond fields up to 2^53 — about 104 days).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys sorted.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, TraceError> {
        Err(TraceError::Parse {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), TraceError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn parse_value(&mut self) -> Result<Json, TraceError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(c) => self.err(format!("unexpected '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, TraceError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn parse_number(&mut self) -> Result<Json, TraceError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| TraceError::Parse {
                offset: start,
                message: "non-utf8 number".into(),
            })?;
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => self.err(format!("bad number '{text}'")),
        }
    }

    fn parse_string(&mut self) -> Result<String, TraceError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy a run of plain UTF-8 bytes verbatim.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.err("invalid utf-8 in string"),
                    }
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, TraceError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, TraceError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parse a JSON document with the built-in zero-dependency parser.
pub fn parse_json(text: &str) -> Result<Json, TraceError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing data after document");
    }
    Ok(value)
}

/// Summary of a validated trace, for gates and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Total number of events.
    pub events: usize,
    /// Number of distinct lanes (`tid`s).
    pub lanes: usize,
    /// Distinct event names present.
    pub names: BTreeSet<String>,
}

/// Parse and validate a `flipper-trace/v1` document.
///
/// Checks: valid JSON, `schema` tag, `traceEvents` is an array of events
/// each carrying `name`/`ph`/`pid`/`tid`/`ts` (+ `dur` for `"X"`), and
/// within each lane the `"X"` events are properly nested — any two are
/// either disjoint or one contains the other (checked on the exact
/// `tsNs`/`durNs` fields).
pub fn validate_trace(text: &str) -> Result<TraceStats, TraceError> {
    let doc = parse_json(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(TRACE_SCHEMA) => {}
        Some(other) => return Err(TraceError::Schema(format!("schema is '{other}'"))),
        None => return Err(TraceError::Schema("missing 'schema' tag".into())),
    }
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => return Err(TraceError::Schema("missing 'traceEvents' array".into())),
    };

    // (lane, start, end, name) for all complete events.
    let mut lanes: BTreeMap<u64, Vec<(u64, u64, String)>> = BTreeMap::new();
    let mut names = BTreeSet::new();
    for (index, ev) in events.iter().enumerate() {
        let field = |key: &str| {
            ev.get(key).ok_or(TraceError::Event {
                index,
                message: format!("missing '{key}'"),
            })
        };
        let name = field("name")?.as_str().ok_or(TraceError::Event {
            index,
            message: "'name' is not a string".into(),
        })?;
        let ph = field("ph")?.as_str().ok_or(TraceError::Event {
            index,
            message: "'ph' is not a string".into(),
        })?;
        field("pid")?;
        let tid = field("tid")?.as_u64().ok_or(TraceError::Event {
            index,
            message: "'tid' is not an integer".into(),
        })?;
        field("ts")?.as_u64().ok_or(TraceError::Event {
            index,
            message: "'ts' is not an integer".into(),
        })?;
        let ts_ns = field("tsNs")?.as_u64().ok_or(TraceError::Event {
            index,
            message: "'tsNs' is not an integer".into(),
        })?;
        let dur_ns = field("durNs")?.as_u64().ok_or(TraceError::Event {
            index,
            message: "'durNs' is not an integer".into(),
        })?;
        names.insert(name.to_string());
        match ph {
            "X" => {
                field("dur")?.as_u64().ok_or(TraceError::Event {
                    index,
                    message: "'dur' is not an integer".into(),
                })?;
                lanes
                    .entry(tid)
                    .or_default()
                    .push((ts_ns, ts_ns + dur_ns, name.to_string()));
            }
            "i" => {}
            other => {
                return Err(TraceError::Event {
                    index,
                    message: format!("unsupported ph '{other}'"),
                })
            }
        }
    }

    let lane_count = lanes.len();
    for (lane, mut spans) in lanes {
        // Sort by start; for equal starts the longer (outer) span first.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64, String)> = Vec::new();
        for (start, end, name) in spans {
            while let Some(top) = stack.last() {
                if start >= top.1 {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                // start < top.end here, so containment requires end <= top.end.
                if end > top.1 {
                    return Err(TraceError::Nesting {
                        lane,
                        names: (top.2.clone(), name),
                    });
                }
            }
            stack.push((start, end, name));
        }
    }

    Ok(TraceStats {
        events: events.len(),
        lanes: lane_count,
        names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, lane: u32, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            name,
            label: None,
            lane,
            start_ns,
            dur_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn render_roundtrips_through_validator() {
        let mut e = ev("mine.run", 0, 1_000, 9_000_000);
        e.label = Some("quest \"deep\"".into());
        e.args.push(("cells", 12));
        let events = vec![
            e,
            ev("mine.cell", 0, 2_000, 1_000_000),
            ev("mine.count", 0, 10_000, 500_000),
            ev("demo.mark", 1, 5_000, 0),
            ev("exec.shard", 1, 4_000, 2_000_000),
        ];
        let text = render_chrome_trace(&events);
        let stats = validate_trace(&text).expect("valid trace");
        assert_eq!(stats.events, 5);
        assert_eq!(stats.lanes, 2);
        assert!(stats.names.contains("mine.run"));
        assert!(stats.names.contains("demo.mark"));
    }

    #[test]
    fn nested_and_disjoint_spans_validate() {
        let events = vec![
            ev("outer", 0, 0, 100),
            ev("inner", 0, 10, 20),
            ev("inner2", 0, 40, 60), // touches outer's end: contained
            ev("later", 0, 200, 50),
        ];
        validate_trace(&render_chrome_trace(&events)).expect("nested ok");
    }

    #[test]
    fn partial_overlap_is_rejected() {
        let events = vec![ev("a", 0, 0, 100), ev("b", 0, 50, 100)];
        let err = validate_trace(&render_chrome_trace(&events)).unwrap_err();
        assert!(matches!(err, TraceError::Nesting { lane: 0, .. }), "{err}");
    }

    #[test]
    fn overlap_in_different_lanes_is_fine() {
        let events = vec![ev("a", 0, 0, 100), ev("b", 1, 50, 100)];
        validate_trace(&render_chrome_trace(&events)).expect("lanes independent");
    }

    #[test]
    fn parser_handles_escapes_numbers_and_nesting() {
        let doc =
            parse_json(r#"{"s":"a\"b\\c\ndA","n":-12.5e1,"a":[1,2,{"x":null,"y":true}]}"#).unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("a\"b\\c\ndA"));
        assert_eq!(doc.get("n"), Some(&Json::Num(-125.0)));
        match doc.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("y"), Some(&Json::Bool(true)));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "{} trailing",
        ] {
            assert!(
                matches!(parse_json(bad), Err(TraceError::Parse { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn schema_tag_is_required() {
        let err = validate_trace(r#"{"traceEvents":[]}"#).unwrap_err();
        assert!(matches!(err, TraceError::Schema(_)));
        let err = validate_trace(r#"{"schema":"other/v9","traceEvents":[]}"#).unwrap_err();
        assert!(matches!(err, TraceError::Schema(_)));
    }

    #[test]
    fn missing_event_fields_are_reported() {
        let text = format!(
            r#"{{"schema":"{TRACE_SCHEMA}","traceEvents":[{{"name":"x","ph":"X","pid":1,"tid":0,"ts":0}}]}}"#
        );
        let err = validate_trace(&text).unwrap_err();
        assert!(matches!(err, TraceError::Event { index: 0, .. }), "{err}");
    }
}
