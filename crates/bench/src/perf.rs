//! Self-measuring perf harness: report model, JSON (de)serialization, and
//! the regression check behind `perf --check`.
//!
//! The workspace is offline (no `serde_json`), so the `BENCH_*.json`
//! artifacts are written by a hand-rolled emitter and read back by the
//! minimal JSON parser below — both sides covered by round-trip tests.
//! The format is stable on purpose: every future `BENCH_N.json` is one
//! point of the repo's performance trajectory, and `--check` keeps a PR
//! from quietly regressing events/second.

/// One timed simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfRun {
    pub label: String,
    pub cached: bool,
    pub requests: u64,
    /// Engine events dispatched.
    pub events: u64,
    pub wall_secs: f64,
    pub events_per_sec: f64,
    /// Future-event-list high-water mark.
    pub peak_queue_depth: u64,
    /// Sanity anchor: mean response time must match the science runs.
    pub mean_response_ms: f64,
}

/// A full perf report — the contents of one `BENCH_N.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfReport {
    /// PR number this baseline belongs to (the `N` of `BENCH_N.json`).
    pub bench_id: u64,
    pub workload: String,
    pub scale: f64,
    pub runs: Vec<PerfRun>,
    pub total_events: u64,
    pub total_wall_secs: f64,
    pub total_events_per_sec: f64,
}

impl PerfReport {
    /// Serialize to pretty-printed JSON (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"bench_id\": {},\n", self.bench_id));
        s.push_str(&format!("  \"workload\": {},\n", quote(&self.workload)));
        s.push_str(&format!("  \"scale\": {},\n", self.scale));
        s.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"label\": {}, \"cached\": {}, \"requests\": {}, \"events\": {}, \
                 \"wall_secs\": {}, \"events_per_sec\": {}, \"peak_queue_depth\": {}, \
                 \"mean_response_ms\": {}}}{}\n",
                quote(&r.label),
                r.cached,
                r.requests,
                r.events,
                r.wall_secs,
                r.events_per_sec,
                r.peak_queue_depth,
                r.mean_response_ms,
                if i + 1 < self.runs.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"total_events\": {},\n", self.total_events));
        s.push_str(&format!(
            "  \"total_wall_secs\": {},\n",
            self.total_wall_secs
        ));
        s.push_str(&format!(
            "  \"total_events_per_sec\": {}\n",
            self.total_events_per_sec
        ));
        s.push_str("}\n");
        s
    }

    /// Parse a report emitted by [`PerfReport::to_json`] (or any JSON with
    /// the same shape). Unknown keys are ignored, so baselines carrying the
    /// retired BENCH_8–BENCH_10 partitioned-run columns (replay
    /// amplification, journal size) still parse.
    pub fn from_json(src: &str) -> Result<PerfReport, String> {
        let v = Json::parse(src)?;
        let runs = v
            .get("runs")?
            .as_array()?
            .iter()
            .map(|r| {
                Ok(PerfRun {
                    label: r.get("label")?.as_str()?.to_string(),
                    cached: r.get("cached")?.as_bool()?,
                    requests: r.get("requests")?.as_f64()? as u64,
                    events: r.get("events")?.as_f64()? as u64,
                    wall_secs: r.get("wall_secs")?.as_f64()?,
                    events_per_sec: r.get("events_per_sec")?.as_f64()?,
                    peak_queue_depth: r.get("peak_queue_depth")?.as_f64()? as u64,
                    mean_response_ms: r.get("mean_response_ms")?.as_f64()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PerfReport {
            bench_id: v.get("bench_id")?.as_f64()? as u64,
            workload: v.get("workload")?.as_str()?.to_string(),
            scale: v.get("scale")?.as_f64()?,
            runs,
            total_events: v.get("total_events")?.as_f64()? as u64,
            total_wall_secs: v.get("total_wall_secs")?.as_f64()?,
            total_events_per_sec: v.get("total_events_per_sec")?.as_f64()?,
        })
    }
}

/// Compare `current` against `baseline`: any run (matched by label +
/// cached flag) or the total whose events/sec dropped by more than
/// `tolerance` (e.g. 0.15 = 15%) is a regression. Runs present on only one
/// side are ignored — adding an organization must not fail the gate.
/// Returns the human-readable comparison table; `Err` lists the
/// regressions.
pub fn check(
    current: &PerfReport,
    baseline: &PerfReport,
    tolerance: f64,
) -> Result<String, String> {
    let mut table = String::new();
    let mut regressions = Vec::new();
    let mut compare = |name: &str, cur: f64, base: f64| {
        let ratio = if base > 0.0 {
            cur / base
        } else {
            f64::INFINITY
        };
        table.push_str(&format!(
            "  {name:<22} {base:>12.0} -> {cur:>12.0} ev/s  ({:+.1}%)\n",
            (ratio - 1.0) * 100.0
        ));
        if ratio < 1.0 - tolerance {
            regressions.push(format!(
                "{name}: {cur:.0} ev/s is {:.1}% below baseline {base:.0}",
                (1.0 - ratio) * 100.0
            ));
        }
    };
    for b in &baseline.runs {
        if let Some(c) = current
            .runs
            .iter()
            .find(|c| c.label == b.label && c.cached == b.cached)
        {
            let name = format!("{}{}", b.label, if b.cached { "+cache" } else { "" });
            compare(&name, c.events_per_sec, b.events_per_sec);
        }
    }
    compare(
        "TOTAL",
        current.total_events_per_sec,
        baseline.total_events_per_sec,
    );
    if regressions.is_empty() {
        Ok(table)
    } else {
        Err(format!(
            "{} throughput regression(s) beyond {:.0}%:\n  {}\n{table}",
            regressions.len(),
            tolerance * 100.0,
            regressions.join("\n  ")
        ))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal JSON value — just enough to read perf baselines.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
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

    pub fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing key `{key}`")),
            _ => Err(format!("`{key}` looked up on a non-object")),
        }
    }

    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }

    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

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

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
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
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat_lit("null").map(|()| Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
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
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    // Multi-byte UTF-8 passes through byte-by-byte; labels
                    // here are ASCII, but don't mangle it if not.
                    out.push(b as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfReport {
        PerfReport {
            bench_id: 3,
            workload: "trace2".into(),
            scale: 1.0,
            runs: vec![
                PerfRun {
                    label: "Base".into(),
                    cached: false,
                    requests: 1000,
                    events: 4321,
                    wall_secs: 0.5,
                    events_per_sec: 8642.0,
                    peak_queue_depth: 17,
                    mean_response_ms: 21.5,
                },
                PerfRun {
                    label: "RAID5".into(),
                    cached: true,
                    requests: 1000,
                    events: 9000,
                    wall_secs: 1.25,
                    events_per_sec: 7200.0,
                    peak_queue_depth: 40,
                    mean_response_ms: 35.0,
                },
            ],
            total_events: 13321,
            total_wall_secs: 1.75,
            total_events_per_sec: 7612.0,
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let parsed = PerfReport::from_json(&report.to_json()).expect("round-trip parse");
        assert_eq!(parsed, report);
    }

    #[test]
    fn check_passes_within_tolerance() {
        let base = sample();
        let mut cur = sample();
        for r in &mut cur.runs {
            r.events_per_sec *= 0.9; // -10%, inside the 15% budget
        }
        cur.total_events_per_sec *= 0.9;
        let table = check(&cur, &base, 0.15).expect("10% drop must pass at 15% tolerance");
        assert!(table.contains("TOTAL"));
    }

    #[test]
    fn check_fails_beyond_tolerance() {
        let base = sample();
        let mut cur = sample();
        cur.runs[1].events_per_sec *= 0.7; // -30%
        let err = check(&cur, &base, 0.15).expect_err("30% drop must fail");
        assert!(err.contains("RAID5+cache"), "{err}");
    }

    #[test]
    fn check_ignores_runs_missing_from_baseline() {
        let base = sample();
        let mut cur = sample();
        cur.runs.push(PerfRun {
            label: "Mirror".into(),
            cached: false,
            requests: 1000,
            events: 1,
            wall_secs: 1.0,
            events_per_sec: 1.0, // would be a huge "regression" if compared
            peak_queue_depth: 1,
            mean_response_ms: 1.0,
        });
        assert!(check(&cur, &base, 0.15).is_ok());
    }

    #[test]
    fn pre_bench8_runs_parse_with_defaults() {
        // A run object without the BENCH_8 instrumentation keys (older
        // baselines) must still parse.
        let src = "{\"bench_id\": 6, \"workload\": \"w\", \"scale\": 1, \"runs\": [\
                   {\"label\": \"Base\", \"cached\": false, \"requests\": 1, \"events\": 2, \
                   \"wall_secs\": 0.1, \"events_per_sec\": 20, \"peak_queue_depth\": 3, \
                   \"mean_response_ms\": 4.5}], \"total_events\": 2, \
                   \"total_wall_secs\": 0.1, \"total_events_per_sec\": 20}";
        let report = PerfReport::from_json(src).expect("old format parses");
        assert_eq!(report.runs[0].mean_response_ms, 4.5);

        // The committed BENCH_10.json still carries the retired
        // partitioned-run columns: it must parse, and `--check` against it
        // must compare every one of its rows.
        let bench10 = PerfReport::from_json(include_str!("../../../BENCH_10.json"))
            .expect("BENCH_10.json parses");
        assert!(!bench10.runs.is_empty());
        let table = check(&bench10, &bench10, 0.15).expect("a baseline passes against itself");
        assert_eq!(
            table.lines().count(),
            bench10.runs.len() + 1,
            "one compared row per BENCH_10 run, plus TOTAL"
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(PerfReport::from_json("{}").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = Json::parse("{\"a\\\"b\": [1.5e3, true, null, \"x\\n\"]}").expect("parse");
        let arr = v.get("a\"b").expect("key").as_array().expect("array");
        assert_eq!(arr[0].as_f64().expect("num"), 1500.0);
        assert_eq!(arr[3].as_str().expect("str"), "x\n");
    }
}
