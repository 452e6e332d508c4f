//! Throughput-metric bookkeeping for the perf trajectory.
//!
//! `BENCH_<pr>.json` files at the repo root record simulator throughput
//! per scheme×workload cell so regressions show up as a diff, not a
//! feeling. This module holds the report model, a dependency-free JSON
//! subset reader/writer (the workspace deliberately has no serde), and
//! the regression check the CI smoke job runs.
//!
//! Schema (documented in DESIGN.md). Schema 2 (PR 9) adds no fields —
//! it marks two semantic changes: the regression check is per-scheme
//! (`check_regression` recomputes per-scheme subgroup geomeans from the
//! cells — present in every schema-1 file too, so old baselines still
//! check — and fails when any scheme regresses beyond tolerance, even if
//! the overall geomean passes), and windows are recorded with warm cells
//! (the per-workload warm-up checkpoint is built outside the cell wall
//! clocks, so cells time the measured passes only; see
//! `runner::run_bench_window`).
//!
//! ```json
//! {
//!   "schema": 2,
//!   "pr": 7,
//!   "windows": [
//!     { "name": "default", "warmup": 1100000, "measure": 1000000,
//!       "geomean_insts_per_sec": 1.23e6,
//!       "cells": [
//!         { "scheme": "baseline", "workload": "bfs",
//!           "insts": 2100000, "wall_secs": 0.41,
//!           "insts_per_sec": 5.1e6 }, ... ] } ]
//! }
//! ```
//!
//! `insts` is the figure window (warm-up + measured instructions); for
//! multi-pass schemes (RPG2's tuning sweep, Prophet's profile+optimized
//! runs) the wall clock covers every internal pass, so `insts_per_sec`
//! reads as "window instructions delivered per second of cell wall time"
//! — the cost of producing that figure cell. `insts` is kept at the full
//! window under warm cells too, so the trajectory stays comparable
//! across PRs; what changed is which work sits inside the wall clock.

use std::fmt::Write as _;

/// Throughput of one scheme×workload cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    pub scheme: String,
    pub workload: String,
    /// Figure-window instructions (warm-up + measured).
    pub insts: u64,
    pub wall_secs: f64,
    pub insts_per_sec: f64,
}

/// One measured window (a full scheme×workload sweep at one sizing).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchWindow {
    pub name: String,
    pub warmup: u64,
    pub measure: u64,
    pub cells: Vec<BenchCell>,
}

impl BenchWindow {
    /// Geometric-mean throughput across every cell.
    pub fn geomean_insts_per_sec(&self) -> f64 {
        let vals: Vec<f64> = self.cells.iter().map(|c| c.insts_per_sec).collect();
        prophet_sim_core::geomean(&vals)
    }

    /// The distinct scheme names present, in first-appearance order.
    pub fn schemes(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.scheme) {
                out.push(c.scheme.clone());
            }
        }
        out
    }

    /// Geometric-mean throughput across `scheme`'s cells only; `None`
    /// when the window has no such cells.
    pub fn scheme_geomean(&self, scheme: &str) -> Option<f64> {
        let vals: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.scheme == scheme)
            .map(|c| c.insts_per_sec)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(prophet_sim_core::geomean(&vals))
        }
    }
}

/// A whole `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub schema: u64,
    pub pr: u64,
    pub windows: Vec<BenchWindow>,
}

impl BenchReport {
    /// An empty report for this PR.
    pub fn new(pr: u64) -> Self {
        BenchReport {
            schema: 2,
            pr,
            windows: Vec::new(),
        }
    }

    /// Replaces the window with `w`'s name, or appends it.
    pub fn upsert_window(&mut self, w: BenchWindow) {
        match self.windows.iter_mut().find(|x| x.name == w.name) {
            Some(slot) => *slot = w,
            None => self.windows.push(w),
        }
    }

    /// The window named `name`, if recorded.
    pub fn window(&self, name: &str) -> Option<&BenchWindow> {
        self.windows.iter().find(|w| w.name == name)
    }

    /// Serializes the report (stable field order, 2-space indent).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": {},", self.schema);
        let _ = writeln!(s, "  \"pr\": {},", self.pr);
        let _ = writeln!(s, "  \"windows\": [");
        for (wi, w) in self.windows.iter().enumerate() {
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"name\": {},", json_str(&w.name));
            let _ = writeln!(s, "      \"warmup\": {},", w.warmup);
            let _ = writeln!(s, "      \"measure\": {},", w.measure);
            let _ = writeln!(
                s,
                "      \"geomean_insts_per_sec\": {},",
                json_num(w.geomean_insts_per_sec())
            );
            let _ = writeln!(s, "      \"cells\": [");
            for (ci, c) in w.cells.iter().enumerate() {
                let _ = write!(
                    s,
                    "        {{ \"scheme\": {}, \"workload\": {}, \"insts\": {}, \
                     \"wall_secs\": {}, \"insts_per_sec\": {} }}",
                    json_str(&c.scheme),
                    json_str(&c.workload),
                    c.insts,
                    json_num(c.wall_secs),
                    json_num(c.insts_per_sec)
                );
                let _ = writeln!(s, "{}", if ci + 1 < w.cells.len() { "," } else { "" });
            }
            let _ = writeln!(s, "      ]");
            let _ = writeln!(
                s,
                "    }}{}",
                if wi + 1 < self.windows.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Parses a report previously written by [`BenchReport::to_json`]
    /// (any JSON with the documented shape works).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = Json::parse(text)?;
        let schema = v.get("schema").and_then(Json::as_u64).unwrap_or(1);
        let pr = v.get("pr").and_then(Json::as_u64).unwrap_or(0);
        let mut windows = Vec::new();
        for w in v.get("windows").and_then(Json::as_arr).unwrap_or(&[]) {
            let mut cells = Vec::new();
            for c in w.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
                cells.push(BenchCell {
                    scheme: c
                        .get("scheme")
                        .and_then(Json::as_str)
                        .ok_or("cell without scheme")?
                        .to_string(),
                    workload: c
                        .get("workload")
                        .and_then(Json::as_str)
                        .ok_or("cell without workload")?
                        .to_string(),
                    insts: c.get("insts").and_then(Json::as_u64).unwrap_or(0),
                    wall_secs: c.get("wall_secs").and_then(Json::as_f64).unwrap_or(0.0),
                    insts_per_sec: c
                        .get("insts_per_sec")
                        .and_then(Json::as_f64)
                        .ok_or("cell without insts_per_sec")?,
                });
            }
            windows.push(BenchWindow {
                name: w
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("window without name")?
                    .to_string(),
                warmup: w.get("warmup").and_then(Json::as_u64).unwrap_or(0),
                measure: w.get("measure").and_then(Json::as_u64).unwrap_or(0),
                cells,
            });
        }
        Ok(BenchReport {
            schema,
            pr,
            windows,
        })
    }
}

/// One scheme's subgroup comparison inside a [`RegressionCheck`].
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeCheck {
    pub scheme: String,
    pub baseline_geomean: f64,
    pub current_geomean: f64,
    /// `current / baseline` (1.0 = parity, < 1.0 = slower).
    pub ratio: f64,
    pub pass: bool,
}

/// Outcome of comparing a fresh window against a committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionCheck {
    pub baseline_geomean: f64,
    pub current_geomean: f64,
    /// `current / baseline` (1.0 = parity, < 1.0 = slower).
    pub ratio: f64,
    pub tolerance_pct: f64,
    /// Per-scheme subgroup comparisons, for every scheme both windows
    /// measured. A regression in any subgroup fails the check even when
    /// the overall geomean passes (a Prophet slowdown must not hide
    /// behind a baseline speedup).
    pub schemes: Vec<SchemeCheck>,
    pub pass: bool,
}

/// Compares `current`'s geomean throughput against the same-named window
/// of `baseline` — overall *and* per scheme subgroup (schema 2): the
/// check fails when the overall geomean, or any scheme's own geomean, is
/// more than `tolerance_pct` percent slower. Absolute insts/sec depends
/// on the host, so this is only meaningful between runs on the same
/// runner class — the CI smoke job's 20% tolerance absorbs normal runner
/// jitter.
pub fn check_regression(
    baseline: &BenchReport,
    current: &BenchWindow,
    tolerance_pct: f64,
) -> Result<RegressionCheck, String> {
    let base = baseline
        .window(&current.name)
        .ok_or_else(|| format!("baseline has no window named '{}'", current.name))?;
    let baseline_geomean = base.geomean_insts_per_sec();
    let current_geomean = current.geomean_insts_per_sec();
    if baseline_geomean <= 0.0 {
        return Err("baseline geomean is not positive".into());
    }
    let floor = 1.0 - tolerance_pct / 100.0;
    let ratio = current_geomean / baseline_geomean;
    let mut schemes = Vec::new();
    for scheme in current.schemes() {
        let (Some(b), Some(c)) = (
            base.scheme_geomean(&scheme),
            current.scheme_geomean(&scheme),
        ) else {
            continue; // scheme not in the baseline (older schema/window)
        };
        if b <= 0.0 {
            return Err(format!(
                "baseline geomean for scheme '{scheme}' is not positive"
            ));
        }
        let r = c / b;
        schemes.push(SchemeCheck {
            scheme,
            baseline_geomean: b,
            current_geomean: c,
            ratio: r,
            pass: r >= floor,
        });
    }
    let pass = ratio >= floor && schemes.iter().all(|s| s.pass);
    Ok(RegressionCheck {
        baseline_geomean,
        current_geomean,
        ratio,
        tolerance_pct,
        schemes,
        pass,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // Enough digits to round-trip the comparisons we make.
        format!("{v:.6}")
    } else {
        "0".into()
    }
}

/// A minimal JSON value for the bench schema (no serde in the workspace).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Json {
    /// Field lookup on an object (None otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n as u64)
    }

    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut kv = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(kv));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        kv.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(kv));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(format!("unknown escape at byte {}", *pos)),
                }
            }
            c => {
                // Re-walk UTF-8: collect continuation bytes.
                let start = *pos - 1;
                let width = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                *pos = start + width;
                let chunk = b.get(start..*pos).ok_or("truncated UTF-8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?);
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(&c) = b.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{s}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new(7);
        r.upsert_window(BenchWindow {
            name: "smoke".into(),
            warmup: 30_000,
            measure: 20_000,
            cells: vec![
                BenchCell {
                    scheme: "baseline".into(),
                    workload: "bfs".into(),
                    insts: 50_000,
                    wall_secs: 0.01,
                    insts_per_sec: 5_000_000.0,
                },
                BenchCell {
                    scheme: "prophet".into(),
                    workload: "bfs".into(),
                    insts: 50_000,
                    wall_secs: 0.05,
                    insts_per_sec: 1_000_000.0,
                },
            ],
        });
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let text = r.to_json();
        let back = BenchReport::from_json(&text).expect("own output parses");
        assert_eq!(back.pr, 7);
        assert_eq!(back.windows.len(), 1);
        assert_eq!(back.windows[0].cells.len(), 2);
        assert_eq!(back.windows[0].cells[0].scheme, "baseline");
        assert!((back.windows[0].cells[1].insts_per_sec - 1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn upsert_replaces_same_window() {
        let mut r = sample();
        let mut w = r.windows[0].clone();
        w.cells.truncate(1);
        r.upsert_window(w);
        assert_eq!(r.windows.len(), 1);
        assert_eq!(r.windows[0].cells.len(), 1);
    }

    #[test]
    fn regression_check_passes_and_fails() {
        let base = sample();
        let mut cur = base.windows[0].clone();
        let ok = check_regression(&base, &cur, 20.0).unwrap();
        assert!(ok.pass);
        assert!((ok.ratio - 1.0).abs() < 1e-9);
        for c in &mut cur.cells {
            c.insts_per_sec *= 0.5;
        }
        let bad = check_regression(&base, &cur, 20.0).unwrap();
        assert!(!bad.pass);
        assert!(bad.ratio < 0.6);
    }

    #[test]
    fn scheme_regression_cannot_hide_in_overall_geomean() {
        // Prophet halves while baseline more than doubles: the overall
        // geomean *improves*, but the per-scheme guard must still fail.
        let base = sample();
        let mut cur = base.windows[0].clone();
        for c in &mut cur.cells {
            match c.scheme.as_str() {
                "baseline" => c.insts_per_sec *= 3.0,
                _ => c.insts_per_sec *= 0.5,
            }
        }
        let check = check_regression(&base, &cur, 20.0).unwrap();
        assert!(check.ratio > 1.0, "overall geomean improved");
        assert!(
            !check.pass,
            "prophet subgroup regression must fail the check"
        );
        let pro = check
            .schemes
            .iter()
            .find(|s| s.scheme == "prophet")
            .unwrap();
        assert!(!pro.pass);
        assert!((pro.ratio - 0.5).abs() < 1e-9);
        let bl = check
            .schemes
            .iter()
            .find(|s| s.scheme == "baseline")
            .unwrap();
        assert!(bl.pass);
    }

    #[test]
    fn schemes_absent_from_baseline_are_skipped() {
        let base = sample();
        let mut cur = base.windows[0].clone();
        cur.cells.push(BenchCell {
            scheme: "newscheme".into(),
            workload: "bfs".into(),
            insts: 50_000,
            wall_secs: 0.01,
            insts_per_sec: 1.0, // would fail any tolerance if compared
        });
        let check = check_regression(&base, &cur, 50.0).unwrap();
        assert!(
            check.schemes.iter().all(|s| s.scheme != "newscheme"),
            "schemes without a baseline subgroup must not be compared"
        );
    }

    #[test]
    fn geomean_over_cells() {
        let w = &sample().windows[0];
        let g = w.geomean_insts_per_sec();
        let expect = (5_000_000.0f64 * 1_000_000.0).sqrt();
        assert!((g - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }
}
