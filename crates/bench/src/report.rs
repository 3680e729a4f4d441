//! Machine-readable experiment output: `BENCH_<EXP>.json` files.
//!
//! The scenario binary's tables are human-readable and ephemeral; CI needs
//! the same numbers as artifacts so the perf trajectory is comparable
//! across PRs. Each experiment that opts in collects its cells as
//! [`BenchRow`]s and, when the binary runs with `--json`, writes them as a
//! JSON array of flat objects to `BENCH_<EXP>.json` in the working
//! directory. The encoder is deliberately tiny (string/number fields only,
//! no nesting) so the workspace stays free of a serde dependency.
//!
//! Every written file carries a trailing **environment row** (marked
//! `"row": "environment"`) recording the machine the numbers came from —
//! available cores, the effective `IDENTXX_WORKERS`/`IDENTXX_SHARDS`
//! knobs — so when the CI container ever grows past one vCPU, the
//! long-awaited multi-core E9/E10 rows are attributable without
//! archaeology. Artifact consumers should filter on the marker.
//!
//! [`parse_json`] is the matching decoder: [`write_bench_json`] re-reads
//! and re-encodes what it wrote and fails loudly unless the bytes round-trip
//! exactly, so a schema regression in *any* emitted report breaks the CI
//! smoke step that produced it.

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

/// One field of a bench row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A finite number (non-finite values are serialized as `null`).
    Num(f64),
    /// A string (escaped minimally: backslash, quote, control characters).
    Str(String),
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Num(v as f64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Num(v as f64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

/// One experiment cell: ordered `(key, value)` pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchRow {
    fields: Vec<(String, Value)>,
}

impl BenchRow {
    /// An empty row.
    pub fn new() -> BenchRow {
        BenchRow::default()
    }

    /// Appends a field (builder style).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> BenchRow {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// The row's fields, in serialization order.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// The value of the first field named `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The runtime's effective worker-thread count. Mirrors its rule
/// (`IDENTXX_WORKERS`, else `max(2, parallelism)`).
pub(crate) fn runtime_workers() -> usize {
    std::env::var("IDENTXX_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|n| *n >= 1)
        .unwrap_or_else(|| available_cores().max(2))
}

/// The environment row every written report ends with: which machine and
/// knob configuration produced these numbers.
pub fn environment_row() -> BenchRow {
    let shards = std::env::var("IDENTXX_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    BenchRow::new()
        .with("row", "environment")
        .with("available_cores", available_cores())
        .with("identxx_workers", runtime_workers())
        .with("identxx_shards", shards)
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes rows as a JSON array of flat objects.
pub fn to_json(rows: &[BenchRow]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  {");
        for (j, (key, value)) in row.fields.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            escape(key, &mut out);
            out.push_str(": ");
            match value {
                Value::Num(n) if n.is_finite() => {
                    // Integral values print without a fraction so the files
                    // diff cleanly across runs.
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                }
                Value::Num(_) => out.push_str("null"),
                Value::Str(s) => escape(s, &mut out),
            }
        }
        out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    out.push_str("]\n");
    out
}

/// Parses what [`to_json`] writes: a JSON array of flat objects whose
/// values are strings, numbers, or `null` (decoded as a non-finite
/// [`Value::Num`], which re-encodes as `null`). Exists so the emitted
/// artifacts have an in-tree consumer that pins the schema; it is not a
/// general JSON parser (no nesting, no booleans).
pub fn parse_json(text: &str) -> Result<Vec<BenchRow>, String> {
    let mut chars = text.char_indices().peekable();
    let mut rows = Vec::new();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::CharIndices>) {
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
    }
    fn expect(
        chars: &mut std::iter::Peekable<std::str::CharIndices>,
        want: char,
    ) -> Result<(), String> {
        skip_ws(chars);
        match chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((at, c)) => Err(format!("expected {want:?} at byte {at}, found {c:?}")),
            None => Err(format!("expected {want:?}, found end of input")),
        }
    }
    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::CharIndices>,
    ) -> Result<String, String> {
        expect(chars, '"')?;
        let mut out = String::new();
        loop {
            match chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (at, c) = chars.next().ok_or("truncated \\u escape".to_string())?;
                            code = code * 16
                                + c.to_digit(16)
                                    .ok_or(format!("bad hex digit {c:?} at byte {at}"))?;
                        }
                        out.push(char::from_u32(code).ok_or(format!("bad codepoint {code:#x}"))?);
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some((_, c)) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    expect(&mut chars, '[')?;
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, ']'))) {
        chars.next();
        return Ok(rows);
    }
    loop {
        expect(&mut chars, '{')?;
        let mut row = BenchRow::new();
        skip_ws(&mut chars);
        if matches!(chars.peek(), Some((_, '}'))) {
            chars.next();
        } else {
            loop {
                skip_ws(&mut chars);
                let key = parse_string(&mut chars)?;
                expect(&mut chars, ':')?;
                skip_ws(&mut chars);
                let value = match chars.peek() {
                    Some((_, '"')) => Value::Str(parse_string(&mut chars)?),
                    Some((_, 'n')) => {
                        for want in "null".chars() {
                            match chars.next() {
                                Some((_, c)) if c == want => {}
                                other => return Err(format!("bad literal near {other:?}")),
                            }
                        }
                        Value::Num(f64::NAN)
                    }
                    Some((at, _)) => {
                        let start = *at;
                        let mut end = start;
                        while matches!(
                            chars.peek(),
                            Some((_, c)) if c.is_ascii_digit()
                                || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                        ) {
                            end = chars.next().map(|(at, c)| at + c.len_utf8()).unwrap_or(end);
                        }
                        let raw = &text[start..end];
                        Value::Num(
                            raw.parse::<f64>()
                                .map_err(|_| format!("bad number {raw:?} at byte {start}"))?,
                        )
                    }
                    None => return Err("truncated value".to_string()),
                };
                row.fields.push((key, value));
                skip_ws(&mut chars);
                match chars.next() {
                    Some((_, ',')) => continue,
                    Some((_, '}')) => break,
                    other => return Err(format!("expected ',' or '}}', found {other:?}")),
                }
            }
        }
        rows.push(row);
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, ']')) => break,
            other => return Err(format!("expected ',' or ']', found {other:?}")),
        }
    }
    Ok(rows)
}

/// Writes `BENCH_<EXP>.json` (experiment name upper-cased, environment row
/// appended) in the current directory and returns its path.
///
/// The written bytes are parsed back and re-encoded before returning; a
/// mismatch — any value the schema cannot round-trip — is an
/// `InvalidData` error, so every report CI uploads has survived the
/// decoder it will be read with.
pub fn write_bench_json(experiment: &str, rows: &[BenchRow]) -> io::Result<PathBuf> {
    let mut rows = rows.to_vec();
    rows.push(environment_row());
    let path = PathBuf::from(format!("BENCH_{}.json", experiment.to_uppercase()));
    let encoded = to_json(&rows);
    std::fs::write(&path, &encoded)?;
    let reread = std::fs::read_to_string(&path)?;
    let decoded =
        parse_json(&reread).map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
    if to_json(&decoded) != encoded {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} does not round-trip through parse_json", path.display()),
        ));
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_serialize_flat_and_escaped() {
        let rows = vec![
            BenchRow::new()
                .with("experiment", "e9")
                .with("shards", 4usize)
                .with("decisions_per_sec", 15396.25),
            BenchRow::new().with("note", "quote\" and\\ctrl\u{1}"),
        ];
        let json = to_json(&rows);
        assert!(json.contains("\"experiment\": \"e9\""));
        assert!(json.contains("\"shards\": 4"));
        assert!(json.contains("\"decisions_per_sec\": 15396.25"));
        assert!(json.contains("\\\" and\\\\ctrl\\u0001"));
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        // Exactly one comma between the two objects.
        assert_eq!(json.matches("},").count(), 1);
    }

    #[test]
    fn environment_row_records_the_knobs() {
        let row = environment_row();
        assert_eq!(row.get("row"), Some(&Value::Str("environment".into())));
        for key in ["available_cores", "identxx_workers", "identxx_shards"] {
            match row.get(key) {
                Some(Value::Num(n)) => assert!(n.is_finite() && *n >= 0.0, "{key}"),
                other => panic!("{key} missing or non-numeric: {other:?}"),
            }
        }
        assert_eq!(row.fields().len(), 4, "{row:?}");
    }

    /// One representative row per experiment schema the binary emits,
    /// round-tripped through the parser: encode → decode → encode must be a
    /// fixed point, and the decoded rows must equal the originals.
    #[test]
    fn every_report_schema_round_trips() {
        let samples = vec![
            BenchRow::new()
                .with("experiment", "e8b")
                .with("shards", 4usize)
                .with("locality", 0.9)
                .with("cache_hit_ratio", 0.7231)
                .with("queries_per_flow", 0.42),
            BenchRow::new()
                .with("experiment", "e9")
                .with("shards", 8usize)
                .with("batch", 32usize)
                .with("decisions_per_sec", 22412.7),
            BenchRow::new()
                .with("experiment", "e10")
                .with("lanes", 4usize)
                .with("daemons", 64usize)
                .with("peak_threads", 9usize),
            BenchRow::new()
                .with("experiment", "e12")
                .with("drill", "partition")
                .with("fail_closed", 37usize)
                .with("round_p99_ms", 12.75),
            BenchRow::new()
                .with("experiment", "e13")
                .with("lifetime", "long")
                .with("hit_rate", 0.94)
                .with("cost_ratio", 1.31),
            BenchRow::new()
                .with("experiment", "e11")
                .with("churn", "on")
                .with("latency_p999_us", 4_200u64)
                .with("achieved_rate_per_sec", 1999.2)
                .with("not_a_number", f64::NAN),
            environment_row(),
        ];
        let encoded = to_json(&samples);
        let decoded = parse_json(&encoded).expect("parse what we wrote");
        assert_eq!(to_json(&decoded), encoded, "encode→decode→encode moved");
        // NaN decodes as NaN (both encode as null) — compare everything
        // else structurally.
        for (row, parsed) in samples.iter().zip(&decoded) {
            assert_eq!(row.fields().len(), parsed.fields().len());
            for ((k1, v1), (k2, v2)) in row.fields().iter().zip(parsed.fields()) {
                assert_eq!(k1, k2);
                match (v1, v2) {
                    (Value::Num(a), Value::Num(b)) if !a.is_finite() => {
                        assert!(!b.is_finite())
                    }
                    _ => assert_eq!(v1, v2),
                }
            }
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "[",
            "[{]",
            "[{\"k\": }]",
            "[{\"k\": 1} {\"k\": 2}]",
            "[{\"k\": tru}]",
            "[{\"k\": \"unterminated}]",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(parse_json("[]").unwrap(), Vec::<BenchRow>::new());
    }
}
