//! Append-only run-history store and the statistical regression gate.
//!
//! The paper's argument is longitudinal — single-number scores matter
//! because you compare them across machines and across time — so the
//! observability layer keeps its own longitude: every `repro` run appends
//! one compact [`RunRecord`] to `OBS_history.jsonl` (one JSON object per
//! line, never rewritten), and health judgments are *statistical over the
//! record history* instead of a flat percentage against one hand-committed
//! baseline.
//!
//! * [`BenchMeta`] — provenance stamped into every record AND into the
//!   `BENCH_scale.json` and `BENCH_som.json` artifacts: git revision, host
//!   fingerprint, cargo profile, capture time. A baseline from another machine now says so.
//! * [`append_record`] / [`load_history`] — the JSONL store, read through
//!   the shared truncation-tolerant scanner ([`crate::jsonl`]). Records
//!   carry [`HISTORY_SCHEMA_VERSION`]; newer-versioned lines are a load
//!   error (upgrade the reader), malformed lines in the middle of the
//!   store are an error with the line number, and a torn *trailing* line —
//!   a process killed mid-append — is skipped with a warning instead of
//!   refusing the whole history.
//! * [`trend_table`] — per-(kind, key) median, MAD, latest delta, and a
//!   sparkline of the recent series.
//! * [`gate`] — the regression verdict: for each gated metric the latest
//!   value must not exceed `median + max(k·MAD, rel_floor·median,
//!   abs_floor)` over a rolling window of prior same-host, same-profile
//!   runs. MAD adapts the threshold to each stage's real jitter; the
//!   relative floor keeps micro-stages from tripping on scheduler noise;
//!   the absolute floor keeps sub-millisecond stages honest. With too few
//!   comparable records the gate passes vacuously but says so.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// Version stamp of the `OBS_history.jsonl` record schema.
///
/// * v1 — kind, workers, [`BenchMeta`], convergence flag, peak RSS, flat
///   `samples` list of (key, value, unit).
pub const HISTORY_SCHEMA_VERSION: u32 = 1;

/// Provenance stamped into run records and the `BENCH_scale.json` and
/// `BENCH_som.json` artifacts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchMeta {
    /// Version of this meta block itself (bumped independently of the
    /// artifacts that embed it).
    pub schema_version: u32,
    /// Git revision (12-hex prefix) read from `.git` without spawning a
    /// subprocess; `unknown` outside a work tree.
    pub git_rev: String,
    /// Host fingerprint: `hostname/os-arch/Ncpu`.
    pub host: String,
    /// `release` or `debug`, from `cfg!(debug_assertions)`.
    pub cargo_profile: String,
    /// Capture time, milliseconds since the Unix epoch (`0` if the clock
    /// is unavailable).
    pub captured_ms: u64,
}

/// Version stamp of the [`BenchMeta`] block.
pub const BENCH_META_VERSION: u32 = 1;

impl BenchMeta {
    /// Captures provenance for the current process.
    #[must_use]
    pub fn capture() -> BenchMeta {
        BenchMeta {
            schema_version: BENCH_META_VERSION,
            git_rev: git_rev(),
            host: host_fingerprint(),
            cargo_profile: if cfg!(debug_assertions) {
                "debug".to_owned()
            } else {
                "release".to_owned()
            },
            captured_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
        }
    }
}

/// Resolves the symbolic or detached HEAD of the repository at `dir`.
fn git_rev_from(dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(dir.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let refname = match head.strip_prefix("ref: ") {
        None => return Some(head.to_owned()), // detached HEAD: the hash itself
        Some(r) => r.trim(),
    };
    if let Ok(hash) = std::fs::read_to_string(dir.join(".git").join(refname)) {
        return Some(hash.trim().to_owned());
    }
    // The loose ref may have been packed.
    let packed = std::fs::read_to_string(dir.join(".git/packed-refs")).ok()?;
    for line in packed.lines() {
        if line.starts_with(['#', '^']) {
            continue;
        }
        if let Some((hash, name)) = line.split_once(' ') {
            if name.trim() == refname {
                return Some(hash.to_owned());
            }
        }
    }
    None
}

/// The current git revision (12-hex prefix), found by walking up from the
/// working directory; `unknown` when no repository is found.
#[must_use]
pub fn git_rev() -> String {
    let mut dir: Option<PathBuf> = std::env::current_dir().ok();
    while let Some(d) = dir {
        if d.join(".git").exists() {
            return git_rev_from(&d)
                .map_or_else(|| "unknown".to_owned(), |h| h.chars().take(12).collect());
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_owned()
}

/// `hostname/os-arch/Ncpu` — enough identity to keep one machine's history
/// from gating another's.
#[must_use]
pub fn host_fingerprint() -> String {
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown-host".to_owned());
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{hostname}/{}-{}/{}cpu",
        std::env::consts::OS,
        std::env::consts::ARCH,
        cpus
    )
}

/// One scalar measurement inside a [`RunRecord`].
///
/// `unit` is one of `us`, `ms`, `bytes`, `kb` (all gated, higher is worse)
/// or `ratio`, `count` (trend-only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Stable metric key, e.g. `pipeline.som` or `pipeline.som/peak_bytes`.
    pub key: String,
    /// The measurement.
    pub value: f64,
    /// Unit tag; decides gating and formatting.
    pub unit: String,
}

/// One run's compact record in the history store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Record schema version ([`HISTORY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Producing subcommand: `trace`, `profile`, `bench_scale`,
    /// `bench_som`.
    pub kind: String,
    /// Worker count the run used.
    pub workers: usize,
    /// Provenance.
    pub meta: BenchMeta,
    /// Convergence verdict over all studies, when the run has one.
    #[serde(default)]
    pub converged: Option<bool>,
    /// Process peak RSS in kB, when memory telemetry captured one.
    #[serde(default)]
    pub peak_rss_kb: Option<u64>,
    /// The run's measurements.
    pub samples: Vec<Sample>,
}

impl RunRecord {
    /// Convenience constructor stamping schema version and provenance.
    #[must_use]
    pub fn new(kind: &str, workers: usize) -> RunRecord {
        RunRecord {
            schema_version: HISTORY_SCHEMA_VERSION,
            kind: kind.to_owned(),
            workers,
            meta: BenchMeta::capture(),
            converged: None,
            peak_rss_kb: None,
            samples: Vec::new(),
        }
    }

    /// Appends one measurement.
    pub fn push(&mut self, key: impl Into<String>, value: f64, unit: &str) {
        self.samples.push(Sample {
            key: key.into(),
            value,
            unit: unit.to_owned(),
        });
    }

    /// The value of the sample with this key, if present.
    #[must_use]
    pub fn sample(&self, key: &str) -> Option<f64> {
        self.samples.iter().find(|s| s.key == key).map(|s| s.value)
    }
}

/// Appends one record as a single compact JSON line, creating the store on
/// first use. Append-only by construction: the file is opened with
/// `append`, never truncated.
pub fn append_record(path: &Path, record: &RunRecord) -> Result<(), String> {
    let line = serde_json::to_string(record).map_err(|e| format!("encode record: {e}"))?;
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("append {}: {e}", path.display()))
}

/// A loaded history: every fully-written record, plus the warning to
/// surface when the store ended in a torn trailing record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistoryLoad {
    /// Records in append order.
    pub records: Vec<RunRecord>,
    /// One-line warning when a torn trailing record was skipped.
    pub warning: Option<String>,
}

/// Loads every record in append order. A missing store is an empty
/// history; a malformed line in the *middle* of the store or a
/// newer-versioned record is an error naming the line number; a torn
/// *trailing* line (interrupted append) is skipped, with the warning
/// carried in [`HistoryLoad::warning`] for the caller to print.
pub fn load_history(path: &Path) -> Result<HistoryLoad, String> {
    let scan = crate::jsonl::scan::<RunRecord>(path)?;
    for record in &scan.records {
        if record.schema_version > HISTORY_SCHEMA_VERSION {
            return Err(format!(
                "{}: history schema v{} is newer than supported v{}",
                path.display(),
                record.schema_version,
                HISTORY_SCHEMA_VERSION
            ));
        }
    }
    Ok(HistoryLoad {
        records: scan.records,
        warning: scan.torn.map(|t| t.warning(path)),
    })
}

/// Median of a series; `0.0` for an empty one.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median absolute deviation around the median (raw, not normalized).
#[must_use]
pub fn mad(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let med = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    median(&deviations)
}

/// Unicode sparkline of a series (empty string for an empty series).
#[must_use]
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|v| {
            if span <= 0.0 {
                BARS[3]
            } else {
                let t = ((v - min) / span * 7.0).round();
                BARS[(t as usize).min(7)]
            }
        })
        .collect()
}

/// Units where a larger latest value is a regression.
fn gated_unit(unit: &str) -> bool {
    matches!(unit, "us" | "ms" | "bytes" | "kb")
}

/// Unit-specific absolute floor below which deltas are never judged — keeps
/// sub-threshold stages from failing on quantization noise.
fn abs_floor(unit: &str) -> f64 {
    match unit {
        "us" => 500.0,
        "ms" => 0.5,
        "bytes" => (1u64 << 20) as f64,
        "kb" => 1024.0,
        _ => f64::INFINITY,
    }
}

fn fmt_value(value: f64, unit: &str) -> String {
    match unit {
        "us" if value >= 1000.0 => format!("{:.2}ms", value / 1000.0),
        "us" => format!("{value:.0}us"),
        "ms" => format!("{value:.2}ms"),
        "bytes" if value >= (1u64 << 20) as f64 => {
            format!("{:.1}MiB", value / (1u64 << 20) as f64)
        }
        "bytes" => format!("{value:.0}B"),
        "kb" => format!("{value:.0}kB"),
        "ratio" => format!("{value:.3}"),
        _ => format!("{value:.2}"),
    }
}

/// The kinds present in `records`, in first-appearance order.
fn kinds_in(records: &[RunRecord]) -> Vec<String> {
    let mut kinds: Vec<String> = Vec::new();
    for r in records {
        if !kinds.contains(&r.kind) {
            kinds.push(r.kind.clone());
        }
    }
    kinds
}

/// Renders the trend table: per (kind, key), count, median, MAD, latest
/// value with its delta vs the median, and a sparkline of the recent
/// series. All records of a kind contribute, regardless of host — the
/// table is for eyes; the [`gate`] is the one that insists on comparable
/// provenance.
#[must_use]
pub fn trend_table(records: &[RunRecord]) -> String {
    let mut out = String::new();
    if records.is_empty() {
        out.push_str("history: empty (run `repro trace` or a bench to append records)\n");
        return out;
    }
    let _ = writeln!(out, "history: {} records", records.len());
    for kind in kinds_in(records) {
        let of_kind: Vec<&RunRecord> = records.iter().filter(|r| r.kind == kind).collect();
        let latest = of_kind[of_kind.len() - 1];
        let _ = writeln!(
            out,
            "\n{kind} ({} runs, latest {} @ {} [{}])",
            of_kind.len(),
            latest.meta.git_rev,
            latest.meta.host,
            latest.meta.cargo_profile
        );
        for sample in &latest.samples {
            let series: Vec<f64> = of_kind
                .iter()
                .filter_map(|r| r.sample(&sample.key))
                .collect();
            let med = median(&series);
            let spread = mad(&series);
            let delta_pct = if med.abs() > f64::EPSILON {
                (sample.value - med) / med * 100.0
            } else {
                0.0
            };
            let tail: Vec<f64> = series.iter().rev().take(16).rev().copied().collect();
            let _ = writeln!(
                out,
                "  {:<40} n={:<3} med={:>10} mad={:>10} last={:>10} {:>+7.1}%  {}",
                sample.key,
                series.len(),
                fmt_value(med, &sample.unit),
                fmt_value(spread, &sample.unit),
                fmt_value(sample.value, &sample.unit),
                delta_pct,
                sparkline(&tail)
            );
        }
    }
    out
}

/// Tuning for the statistical regression gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Rolling window: at most this many prior comparable runs per metric.
    pub window: usize,
    /// Minimum comparable prior runs before a metric is judged at all.
    pub min_window: usize,
    /// MAD multiplier.
    pub k: f64,
    /// Relative floor: deltas below this fraction of the median never fail
    /// (the old flat rule, demoted from verdict to floor).
    pub rel_floor: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            window: 8,
            min_window: 4,
            k: 5.0,
            rel_floor: 0.25,
        }
    }
}

/// One gate run's verdict and its per-metric report lines.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Whether every judged metric passed.
    pub passed: bool,
    /// Human-readable per-metric lines (`ok` / `FAIL` / `skip`).
    pub lines: Vec<String>,
}

impl GateOutcome {
    /// Renders the verdict block.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        let _ = writeln!(out, "gate: {}", if self.passed { "PASS" } else { "FAIL" });
        out
    }
}

/// Judges the latest record of every kind against the rolling window of
/// prior records with the same host fingerprint and cargo profile.
///
/// Per gated metric the threshold is `median + max(k·MAD,
/// rel_floor·median, abs_floor(unit))`: a planted 2× slowdown clears all
/// three floors and fails; run-to-run jitter sits inside the MAD band or
/// under a floor and passes. A latest record that reports
/// `converged: false` fails outright.
#[must_use]
pub fn gate(records: &[RunRecord], cfg: &GateConfig) -> GateOutcome {
    let mut lines = Vec::new();
    let mut passed = true;
    if records.is_empty() {
        lines.push("gate: empty history — nothing to judge (vacuous pass)".to_owned());
        return GateOutcome { passed, lines };
    }
    for kind in kinds_in(records) {
        let of_kind: Vec<&RunRecord> = records.iter().filter(|r| r.kind == kind).collect();
        let latest = of_kind[of_kind.len() - 1];
        let prior: Vec<&RunRecord> = of_kind[..of_kind.len() - 1]
            .iter()
            .filter(|r| {
                r.meta.host == latest.meta.host && r.meta.cargo_profile == latest.meta.cargo_profile
            })
            .copied()
            .collect();
        if latest.converged == Some(false) {
            passed = false;
            lines.push(format!("{kind}: FAIL latest run did not converge"));
        }
        for sample in &latest.samples {
            if !gated_unit(&sample.unit) {
                continue;
            }
            let series: Vec<f64> = prior.iter().filter_map(|r| r.sample(&sample.key)).collect();
            let window: Vec<f64> = series
                .iter()
                .rev()
                .take(cfg.window)
                .rev()
                .copied()
                .collect();
            if window.len() < cfg.min_window {
                lines.push(format!(
                    "{kind}/{}: skip — {} comparable prior runs (< {}), vacuous pass",
                    sample.key,
                    window.len(),
                    cfg.min_window
                ));
                continue;
            }
            let med = median(&window);
            let spread = mad(&window);
            let margin = (cfg.k * spread)
                .max(cfg.rel_floor * med)
                .max(abs_floor(&sample.unit));
            let threshold = med + margin;
            if sample.value > threshold {
                passed = false;
                lines.push(format!(
                    "{kind}/{}: FAIL last={} > threshold={} (med={} mad={} n={})",
                    sample.key,
                    fmt_value(sample.value, &sample.unit),
                    fmt_value(threshold, &sample.unit),
                    fmt_value(med, &sample.unit),
                    fmt_value(spread, &sample.unit),
                    window.len()
                ));
            } else {
                lines.push(format!(
                    "{kind}/{}: ok last={} <= threshold={} (med={} n={})",
                    sample.key,
                    fmt_value(sample.value, &sample.unit),
                    fmt_value(threshold, &sample.unit),
                    fmt_value(med, &sample.unit),
                    window.len()
                ));
            }
        }
    }
    GateOutcome { passed, lines }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_with(kind: &str, wall_us: f64, tag: u64) -> RunRecord {
        let mut r = RunRecord::new(kind, 4);
        r.meta.git_rev = format!("rev{tag:08x}");
        r.meta.host = "testhost/linux-x86_64/8cpu".to_owned();
        r.meta.cargo_profile = "release".to_owned();
        r.converged = Some(true);
        r.push("pipeline.som", wall_us, "us");
        r.push("pipeline.som/peak_bytes", 4.0e6 + tag as f64, "bytes");
        r.push("pipeline.som/parallel_efficiency", 0.9, "ratio");
        r
    }

    /// Deterministic multiplicative jitter in `[1-amp, 1+amp]`.
    fn jitter(state: &mut u64, amp: f64) -> f64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let unit = (*state >> 33) as f64 / (1u64 << 31) as f64; // [0,1)
        1.0 + (unit * 2.0 - 1.0) * amp
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = record_with("trace", 120_000.0, 7);
        let json = serde_json::to_string(&r).unwrap();
        let back: RunRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        assert!(!json.contains('\n'), "records must be single-line JSON");
    }

    #[test]
    fn meta_capture_is_well_formed() {
        let meta = BenchMeta::capture();
        assert_eq!(meta.schema_version, BENCH_META_VERSION);
        assert!(!meta.git_rev.is_empty());
        assert!(meta.host.contains("cpu"));
        assert!(matches!(meta.cargo_profile.as_str(), "debug" | "release"));
    }

    #[test]
    fn store_appends_and_loads_in_order() {
        let dir = std::env::temp_dir().join(format!("obs_history_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        let _ = std::fs::remove_file(&path);
        assert_eq!(load_history(&path).unwrap(), HistoryLoad::default());
        for i in 0..3 {
            append_record(&path, &record_with("trace", 1000.0 * (i + 1) as f64, i)).unwrap();
        }
        let loaded = load_history(&path).unwrap();
        assert_eq!(loaded.records.len(), 3);
        assert!(loaded.warning.is_none());
        assert_eq!(loaded.records[2].sample("pipeline.som"), Some(3000.0));
        // A malformed line in the middle errors with its line number.
        std::fs::write(&path, "not json\n{\"also\":\"not a record\"}\n").unwrap();
        let err = load_history(&path).unwrap_err();
        assert!(err.contains(":1:"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn byte_chopped_trailing_record_is_skipped_with_warning() {
        let dir = std::env::temp_dir().join(format!("obs_history_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        for i in 0..2 {
            let _ = std::fs::remove_file(&path);
            append_record(&path, &record_with("trace", 1000.0, 1)).unwrap();
            append_record(&path, &record_with("trace", 2000.0, 2)).unwrap();
            let full = std::fs::read(&path).unwrap();
            // Chop the second record mid-line at two different depths, as a
            // crash mid-append would.
            let keep = full.iter().filter(|&&b| b == b'\n').count();
            assert_eq!(keep, 2);
            let first_line_end = full.iter().position(|&b| b == b'\n').unwrap();
            let cut = first_line_end + 1 + (full.len() - first_line_end) / (i + 2);
            std::fs::write(&path, &full[..cut]).unwrap();
            let loaded = load_history(&path).unwrap();
            assert_eq!(loaded.records.len(), 1, "cut at {cut}");
            assert_eq!(loaded.records[0].sample("pipeline.som"), Some(1000.0));
            let warning = loaded.warning.expect("torn tail must warn");
            assert!(warning.contains(":2:"), "{warning}");
            assert!(warning.contains("torn trailing record"), "{warning}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn newer_schema_versions_are_rejected() {
        let mut r = record_with("trace", 1.0, 0);
        r.schema_version = HISTORY_SCHEMA_VERSION + 1;
        let dir = std::env::temp_dir().join(format!("obs_history_v_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        let _ = std::fs::remove_file(&path);
        append_record(&path, &r).unwrap();
        let err = load_history(&path).unwrap_err();
        assert!(err.contains("newer than supported"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(mad(&[1.0, 1.0, 1.0]), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
    }

    #[test]
    fn sparkline_scales_and_handles_flat_series() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5.0, 5.0]), "▄▄");
        let s = sparkline(&[0.0, 7.0]);
        assert_eq!(s.chars().count(), 2);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }

    #[test]
    fn gate_fails_on_planted_doubling() {
        let mut state = 0x5EED_u64;
        let mut records: Vec<RunRecord> = (0..8)
            .map(|i| record_with("trace", 100_000.0 * jitter(&mut state, 0.05), i))
            .collect();
        // Plant a 2× slowdown in the latest run's SOM stage.
        records.push(record_with("trace", 200_000.0, 99));
        let outcome = gate(&records, &GateConfig::default());
        assert!(!outcome.passed, "{}", outcome.render());
        assert!(
            outcome
                .lines
                .iter()
                .any(|l| l.contains("pipeline.som") && l.contains("FAIL")),
            "{}",
            outcome.render()
        );
    }

    #[test]
    fn gate_passes_on_stable_jitter() {
        let mut state = 0xCAFE_u64;
        let records: Vec<RunRecord> = (0..9)
            .map(|i| record_with("trace", 100_000.0 * jitter(&mut state, 0.10), i))
            .collect();
        let outcome = gate(&records, &GateConfig::default());
        assert!(outcome.passed, "{}", outcome.render());
    }

    #[test]
    fn gate_is_vacuous_without_comparable_history() {
        // Same kind, but every prior run came from a different host.
        let mut other = record_with("trace", 100_000.0, 0);
        other.meta.host = "elsewhere/linux-x86_64/64cpu".to_owned();
        let records = vec![other.clone(), other, record_with("trace", 500_000.0, 1)];
        let outcome = gate(&records, &GateConfig::default());
        assert!(outcome.passed, "{}", outcome.render());
        assert!(
            outcome.lines.iter().any(|l| l.contains("skip")),
            "{}",
            outcome.render()
        );
    }

    #[test]
    fn gate_fails_non_converged_latest() {
        let mut records: Vec<RunRecord> =
            (0..5).map(|i| record_with("trace", 100_000.0, i)).collect();
        records.last_mut().unwrap().converged = Some(false);
        let outcome = gate(&records, &GateConfig::default());
        assert!(!outcome.passed);
    }

    #[test]
    fn trend_table_names_every_key() {
        let records: Vec<RunRecord> = (0..5).map(|i| record_with("trace", 100_000.0, i)).collect();
        let table = trend_table(&records);
        assert!(table.contains("pipeline.som"));
        assert!(table.contains("pipeline.som/peak_bytes"));
        assert!(table.contains("parallel_efficiency"));
        assert!(table.contains("5 runs"));
        assert!(trend_table(&[]).contains("empty"));
    }
}
