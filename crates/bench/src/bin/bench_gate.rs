//! `bench_gate` — the bench-regression CI gate.
//!
//! Compares a freshly measured bench report against a committed
//! baseline (both the flat-row JSON arrays the `e17`/`e23` binaries
//! emit with `--out`) and fails the build when performance regressed
//! beyond budget:
//!
//! * every numeric field ending in `qps` may drop at most
//!   `--max-drop-pct` (default 20%) below its baseline value;
//! * every `overhead_pct` field on a row marked `"gated": true` must
//!   stay at or below `--max-overhead-pct` (default 5%), as an
//!   *absolute* budget — tracing overhead is a contract, not a ratio
//!   to yesterday's noise.
//!
//! Rows are matched by their identity fields: every string or boolean
//! field plus the small-integer configuration axes (`threads`,
//! `queries`). A baseline row with no matching
//! candidate row fails the gate — silently losing coverage is itself
//! a regression; regenerate the baselines when a grid changes.
//!
//! Usage: `bench_gate <baseline.json> <candidate.json>
//!             [--max-drop-pct P] [--max-overhead-pct P]`

use std::process::ExitCode;

use pl_bench::{f1, Table};

/// The subset of JSON the bench reports use: flat objects of strings,
/// numbers, and booleans.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
    Bool(bool),
}

type Row = Vec<(String, Value)>;

/// A recursive-descent parser for exactly the shape the bench binaries
/// write: `[ {"k": v, ...}, ... ]`. Anything else is a hard error —
/// this gate guards committed artifacts, not arbitrary JSON.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                }
                Some(&b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') | Some(b'f') => {
                let (lit, val): (&[u8], bool) = if self.bytes[self.pos] == b't' {
                    (b"true", true)
                } else {
                    (b"false", false)
                };
                if self.bytes[self.pos..].starts_with(lit) {
                    self.pos += lit.len();
                    Ok(Value::Bool(val))
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|&b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Row, String> {
        self.expect(b'{')?;
        let mut row = Row::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(row);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            row.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(row);
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn rows(mut self) -> Result<Vec<Row>, String> {
        self.expect(b'[')?;
        let mut rows = Vec::new();
        if self.peek() == Some(b']') {
            return Ok(rows);
        }
        loop {
            rows.push(self.object()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(rows);
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }
}

fn load(path: &str) -> Vec<Row> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    Parser::new(&text)
        .rows()
        .unwrap_or_else(|e| panic!("parsing {path}: {e}"))
}

/// Configuration axes that identify a row alongside its string fields.
const IDENTITY_INTS: &[&str] = &["threads", "queries"];

fn identity(row: &Row) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (k, v) in row {
        match v {
            Value::Str(s) => parts.push(format!("{k}={s}")),
            Value::Bool(b) => parts.push(format!("{k}={b}")),
            Value::Num(n) if IDENTITY_INTS.contains(&k.as_str()) => {
                parts.push(format!("{k}={n}"));
            }
            Value::Num(_) => {}
        }
    }
    parts.join(" ")
}

fn num(row: &Row, key: &str) -> Option<f64> {
    row.iter().find_map(|(k, v)| match v {
        Value::Num(n) if k == key => Some(*n),
        _ => None,
    })
}

fn is_gated(row: &Row) -> bool {
    row.iter()
        .any(|(k, v)| k == "gated" && *v == Value::Bool(true))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str, default: f64| -> f64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse().unwrap_or_else(|e| panic!("{name} {v}: {e}")))
            .unwrap_or(default)
    };
    let mut files: Vec<&String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2; // every flag takes one value
        } else {
            files.push(&args[i]);
            i += 1;
        }
    }
    let [baseline_path, candidate_path] = files[..] else {
        eprintln!(
            "usage: bench_gate <baseline.json> <candidate.json> \
             [--max-drop-pct P] [--max-overhead-pct P]"
        );
        return ExitCode::from(2);
    };
    let max_drop = flag("--max-drop-pct", 20.0);
    let max_overhead = flag("--max-overhead-pct", 5.0);

    let baseline = load(baseline_path);
    let candidate = load(candidate_path);

    let mut table = Table::new(&[
        "row",
        "metric",
        "baseline",
        "candidate",
        "delta %",
        "status",
    ]);
    let mut failures = 0usize;
    for base_row in &baseline {
        let id = identity(base_row);
        let Some(cand_row) = candidate.iter().find(|r| identity(r) == id) else {
            table.row(vec![
                id,
                "-".to_string(),
                "-".to_string(),
                "MISSING".to_string(),
                "-".to_string(),
                "FAIL".to_string(),
            ]);
            failures += 1;
            continue;
        };
        for (key, value) in base_row {
            let Value::Num(base) = value else { continue };
            if key.ends_with("qps") {
                let Some(cand) = num(cand_row, key) else {
                    continue;
                };
                let delta = (cand - base) / base * 100.0;
                let ok = cand >= base * (1.0 - max_drop / 100.0);
                failures += usize::from(!ok);
                table.row(vec![
                    id.clone(),
                    key.clone(),
                    f1(*base),
                    f1(cand),
                    format!("{delta:+.1}"),
                    (if ok { "ok" } else { "FAIL" }).to_string(),
                ]);
            } else if key == "overhead_pct" && is_gated(cand_row) {
                let Some(cand) = num(cand_row, key) else {
                    continue;
                };
                let ok = cand <= max_overhead;
                failures += usize::from(!ok);
                table.row(vec![
                    id.clone(),
                    key.clone(),
                    f1(*base),
                    f1(cand),
                    format!("cap {max_overhead:.1}"),
                    (if ok { "ok" } else { "FAIL" }).to_string(),
                ]);
            }
        }
    }
    table.print();
    println!(
        "\ngate: qps within -{max_drop:.0}% of {baseline_path}; gated overhead_pct \
         <= {max_overhead:.0}% absolute; {} row-metric(s) failed",
        failures
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        println!("bench_gate: PASS");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_rows() {
        let rows = Parser::new(
            r#"[
              {"skew": "uniform", "threads": 4, "qps": 123.5, "gated": true},
              {}
            ]"#,
        )
        .rows()
        .expect("parse");
        assert_eq!(rows.len(), 2);
        assert_eq!(num(&rows[0], "qps"), Some(123.5));
        assert!(is_gated(&rows[0]));
        assert_eq!(identity(&rows[0]), "skew=uniform threads=4 gated=true");
        assert!(rows[1].is_empty());
    }

    #[test]
    fn rejects_nested_json() {
        assert!(Parser::new(r#"[{"a": [1]}]"#).rows().is_err());
        assert!(Parser::new(r#"{"a": 1}"#).rows().is_err());
    }
}
