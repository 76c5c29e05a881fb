//! The `BENCH_*.json` record format: hand-rolled serialization and a
//! minimal JSON parser (the workspace vendors no serde), shared by the
//! `kplock-bench` driver and its `--check` regression gate.
//!
//! A bench file is one JSON object:
//!
//! ```json
//! {
//!   "schema": "kplock-bench/v1",
//!   "mode": "full",
//!   "records": [ { ...one BenchRecord... }, ... ]
//! }
//! ```
//!
//! Every record carries its full configuration key (`id` is the unique
//! join key `--check` matches on) plus the measurements; see
//! [`BenchRecord`] for field semantics. Latency percentiles are
//! per-operation for the `hot_loop` suite and per-run for the `sim` and
//! `threaded` suites (whole-run wall times across repetitions).

use std::fmt::Write as _;

/// One measured configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Unique key, e.g. `hot/contended/queue/t8/s16` — what `--check`
    /// joins baseline and current runs on.
    pub id: String,
    /// Suite name: `hot_loop`, `sim`, or `threaded`.
    pub suite: String,
    /// Workload label within the suite.
    pub workload: String,
    /// The suite's second axis: `queue` (the lock table) in the table
    /// suites, the granularity arm in `hierarchy`, `default` in
    /// `delegation`.
    pub table: String,
    /// OS threads driving the table (1 for the sim suite).
    pub threads: u32,
    /// Lock-table shards.
    pub shards: u32,
    /// Deadlock-resolution arm (`none` for raw table suites).
    pub resolution: String,
    /// Fault plan label (`none` or `lossy`).
    pub fault_plan: String,
    /// Operations counted (suite-specific: trait calls for `hot_loop`,
    /// commits for `sim`, applied steps for `threaded`).
    pub ops: u64,
    /// Wall-clock time for the measured phase.
    pub elapsed_ms: f64,
    /// `ops / elapsed` in operations per second.
    pub throughput_ops_per_s: f64,
    /// Latency percentiles in microseconds (see module docs for the
    /// sampling unit per suite).
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile, microseconds.
    pub p999_us: f64,
    /// Aborts/restarts observed (prevention restarts, timeout aborts).
    pub restarts: u64,
    /// Chandy–Misra–Haas probe messages (sim suite under `probe`).
    pub probe_messages: u64,
}

impl BenchRecord {
    fn to_json(&self, out: &mut String, indent: &str) {
        let _ = write!(
            out,
            "{indent}{{\"id\": {id}, \"suite\": {suite}, \"workload\": {workload}, \
             \"table\": {table}, \"threads\": {threads}, \"shards\": {shards}, \
             \"resolution\": {resolution}, \"fault_plan\": {fault}, \"ops\": {ops}, \
             \"elapsed_ms\": {elapsed}, \"throughput_ops_per_s\": {thr}, \
             \"p50_us\": {p50}, \"p99_us\": {p99}, \"p999_us\": {p999}, \
             \"restarts\": {restarts}, \"probe_messages\": {probes}}}",
            id = quote(&self.id),
            suite = quote(&self.suite),
            workload = quote(&self.workload),
            table = quote(&self.table),
            threads = self.threads,
            shards = self.shards,
            resolution = quote(&self.resolution),
            fault = quote(&self.fault_plan),
            ops = self.ops,
            elapsed = fmt_f64(self.elapsed_ms),
            thr = fmt_f64(self.throughput_ops_per_s),
            p50 = fmt_f64(self.p50_us),
            p99 = fmt_f64(self.p99_us),
            p999 = fmt_f64(self.p999_us),
            restarts = self.restarts,
            probes = self.probe_messages,
        );
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let get = |k: &str| v.get(k).ok_or_else(|| format!("record missing `{k}`"));
        Ok(BenchRecord {
            id: get("id")?.as_str()?.to_string(),
            suite: get("suite")?.as_str()?.to_string(),
            workload: get("workload")?.as_str()?.to_string(),
            table: get("table")?.as_str()?.to_string(),
            threads: get("threads")?.as_f64()? as u32,
            shards: get("shards")?.as_f64()? as u32,
            resolution: get("resolution")?.as_str()?.to_string(),
            fault_plan: get("fault_plan")?.as_str()?.to_string(),
            ops: get("ops")?.as_f64()? as u64,
            elapsed_ms: get("elapsed_ms")?.as_f64()?,
            throughput_ops_per_s: get("throughput_ops_per_s")?.as_f64()?,
            p50_us: get("p50_us")?.as_f64()?,
            p99_us: get("p99_us")?.as_f64()?,
            p999_us: get("p999_us")?.as_f64()?,
            restarts: get("restarts")?.as_f64()? as u64,
            probe_messages: get("probe_messages")?.as_f64()? as u64,
        })
    }
}

/// Serializes a full bench file (schema header + records).
pub fn to_json(mode: &str, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"kplock-bench/v1\",\n");
    let _ = writeln!(out, "  \"mode\": {},", quote(mode));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        r.to_json(&mut out, "    ");
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a bench file produced by [`to_json`] (or any JSON with the
/// same shape).
pub fn from_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let v = Json::parse(text)?;
    let schema = v
        .get("schema")
        .ok_or("missing `schema`")?
        .as_str()?
        .to_string();
    if schema != "kplock-bench/v1" {
        return Err(format!("unsupported schema {schema:?}"));
    }
    v.get("records")
        .ok_or("missing `records`")?
        .as_array()?
        .iter()
        .map(BenchRecord::from_json)
        .collect()
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fmt_f64(x: f64) -> String {
    // `{}` prints the shortest representation that round-trips; NaN and
    // infinities are not valid JSON, so clamp them to null-ish zero.
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A minimal JSON value — just enough to read bench files back.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else after the value).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, or a type error.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// The value as a number, or a type error.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(x) => Ok(*x),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// The value as an array, or a type error.
    pub fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected array, got {other:?}")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected , or }} , got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ], got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogate pairs are not produced by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: &str, thr: f64) -> BenchRecord {
        BenchRecord {
            id: id.to_string(),
            suite: "hot_loop".to_string(),
            workload: "contended".to_string(),
            table: "queue".to_string(),
            threads: 8,
            shards: 16,
            resolution: "none".to_string(),
            fault_plan: "none".to_string(),
            ops: 1_000_000,
            elapsed_ms: 123.456,
            throughput_ops_per_s: thr,
            p50_us: 1.25,
            p99_us: 17.0,
            p999_us: 250.5,
            restarts: 3,
            probe_messages: 0,
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![sample("a", 1e6), sample("b", 2.5e5)];
        let text = to_json("full", &records);
        assert_eq!(from_json(&text).unwrap(), records);
    }

    #[test]
    fn parser_handles_escapes_nesting_and_whitespace() {
        let v =
            Json::parse(r#" { "a\"b" : [ 1, -2.5e3, true, false, null, "x\\\n" ], "o": { } } "#)
                .unwrap();
        let arr = v.get("a\"b").unwrap().as_array().unwrap();
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1], Json::Num(-2500.0));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(arr[5], Json::Str("x\\\n".to_string()));
        assert_eq!(v.get("o"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(from_json(r#"{"schema": "other/v9", "records": []}"#).is_err());
    }

    #[test]
    fn missing_record_fields_are_reported() {
        let text = r#"{"schema": "kplock-bench/v1", "records": [{"id": "x"}]}"#;
        let err = from_json(text).unwrap_err();
        assert!(err.contains("suite"), "{err}");
    }
}
