//! `--compare DIR_A DIR_B`: applies the `BENCHMARK.json` bounds to two sets
//! of result files, one (workload, metric) pair per row.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use serde::Value;

use crate::stats::{median, quartiles, relative_spread};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<Gate>,
    /// Per-layer metric names and units.
    pub per_layer: Vec<(String, String)>,
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: missing string `{key}`")),
    }
}

fn array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match v.get(key) {
        Some(Value::Array(a)) => Ok(a),
        _ => Err(format!("BENCHMARK.json: missing array `{key}`")),
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

impl Spec {
    /// Parses `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = array(&doc, "workloads")?
            .iter()
            .map(|w| str_field(w, "name"))
            .collect::<Result<_, _>>()?;
        let end_to_end = array(&doc, "end_to_end")?
            .iter()
            .map(|m| {
                Ok(Gate {
                    name: str_field(m, "name")?,
                    unit: str_field(m, "unit")?,
                    lower_is_better: str_field(m, "better")? == "lower",
                    bound: number(m.get("bound")).ok_or("BENCHMARK.json: bound is not a number")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let per_layer = array(&doc, "per_layer")?
            .iter()
            .map(|m| Ok((str_field(m, "name")?, str_field(m, "unit")?)))
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// Reads and parses `BENCHMARK.json` under `root`.
    pub fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Spec::parse(&text)
    }
}

/// The outcome of comparing B's runs against A's on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Within,
    /// B's median is better than A's by more than the bound.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's values against A's under `gate`.
///
/// When either side's interquartile spread exceeds the bound the verdict
/// is [`Verdict::Unresolved`], unless every B run beats every A run.
/// Otherwise B is worse or better when its median moved past the bound.
pub fn verdict(a: &[f64], b: &[f64], gate: &Gate) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let sign = if gate.lower_is_better { 1.0 } else { -1.0 };
    // Positive when B is worse.
    let worse_by = sign * (mb - ma) / ma.abs();
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let every_b_better = if gate.lower_is_better {
        max(b) < min(a)
    } else {
        min(b) > max(a)
    };
    // A side with no spread to speak of (fewer than two runs, or a zero
    // median) counts as infinitely wide.
    let spread = relative_spread(a)
        .unwrap_or(f64::INFINITY)
        .max(relative_spread(b).unwrap_or(f64::INFINITY));
    if spread > gate.bound || ma == 0.0 {
        return if every_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > gate.bound {
        Verdict::Worse
    } else if -worse_by > gate.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Untraced result files in `dir`, as (workload, metric) → values.
fn load_runs(dir: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut runs: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let is_result = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".trace0.json"));
        if !is_result {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(Value::Str(workload)) = doc.get("workload") else {
            return Err(format!("{}: no workload", path.display()));
        };
        let Some(Value::Object(metrics)) = doc.get("metrics") else {
            return Err(format!("{}: no metrics", path.display()));
        };
        for (name, m) in metrics {
            if let Some(v) = number(m.get("value")) {
                runs.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// Compares the untraced runs in `dir_a` (the baseline) with those in
/// `dir_b`, printing one row per (workload, metric). Returns the report
/// and whether any gated pair got worse.
pub fn compare(spec: &Spec, dir_a: &Path, dir_b: &Path) -> Result<(String, bool), String> {
    let a = load_runs(dir_a)?;
    let b = load_runs(dir_b)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<13} {:>6} {:>5} {:>12} {:>12} {:>18} {:>7} {:>7} {:>8}  verdict",
        "workload",
        "metric",
        "bound",
        "runs",
        "median_a",
        "median_b",
        "q1..q3_b",
        "sprd_a",
        "sprd_b",
        "change"
    );
    let mut any_worse = false;
    for workload in &spec.workloads {
        for gate in &spec.end_to_end {
            let key = (workload.clone(), gate.name.clone());
            let (va, vb) = (
                a.get(&key).map_or(&[][..], Vec::as_slice),
                b.get(&key).map_or(&[][..], Vec::as_slice),
            );
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let v = verdict(va, vb, gate);
            any_worse |= v == Verdict::Worse;
            let fmt = |x: Option<f64>| x.map_or("-".to_owned(), |x| format!("{x:.4}"));
            let (ma, mb) = (median(va), median(vb));
            let change = match (ma, mb) {
                (Some(ma), Some(mb)) if ma != 0.0 => format!("{:+.1}%", (mb - ma) / ma * 100.0),
                _ => "-".to_owned(),
            };
            let quart =
                quartiles(vb).map_or("-".to_owned(), |(q1, q3)| format!("{q1:.3}..{q3:.3}"));
            let _ = writeln!(
                out,
                "{:<12} {:<13} {:>6} {:>5} {:>12} {:>12} {:>18} {:>7} {:>7} {:>8}  {}",
                workload,
                gate.name,
                format!("{:.0}%", gate.bound * 100.0),
                format!("{}/{}", va.len(), vb.len()),
                fmt(ma),
                fmt(mb),
                quart,
                fmt(relative_spread(va)),
                fmt(relative_spread(vb)),
                change,
                v.label()
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(bound: f64, lower: bool) -> Gate {
        Gate {
            name: "t".into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound,
        }
    }

    fn around(center: f64) -> Vec<f64> {
        [0.99, 1.0, 1.01, 0.995, 1.005, 1.0]
            .iter()
            .map(|f| f * center)
            .collect()
    }

    #[test]
    fn tight_runs_get_a_direction() {
        let g = gate(0.10, true);
        assert_eq!(verdict(&around(1.0), &around(1.05), &g), Verdict::Within);
        assert_eq!(verdict(&around(1.0), &around(1.2), &g), Verdict::Worse);
        assert_eq!(verdict(&around(1.0), &around(0.8), &g), Verdict::Better);
        // Higher-is-better flips the direction.
        let g = gate(0.10, false);
        assert_eq!(verdict(&around(1.0), &around(1.2), &g), Verdict::Better);
        assert_eq!(verdict(&around(1.0), &around(0.8), &g), Verdict::Worse);
    }

    #[test]
    fn wide_runs_are_unresolved_unless_every_run_is_better() {
        let g = gate(0.05, true);
        let wide_a = vec![0.8, 0.9, 1.0, 1.1, 1.2, 1.0];
        assert_eq!(verdict(&wide_a, &around(1.3), &g), Verdict::Unresolved);
        assert_eq!(verdict(&wide_a, &around(1.0), &g), Verdict::Unresolved);
        assert_eq!(verdict(&wide_a, &around(0.5), &g), Verdict::Better);
        assert_eq!(verdict(&[], &around(1.0), &g), Verdict::Unresolved);
    }

    #[test]
    fn spec_parses_the_gates() {
        let spec = Spec::parse(
            r#"{"command": ["x"], "paths": ["p"], "run_seconds": 5,
                "workloads": [{"name": "w", "why": "y"}],
                "end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "c", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.workloads, vec!["w".to_owned()]);
        assert_eq!(
            spec.end_to_end,
            vec![Gate {
                name: "t".into(),
                unit: "s".into(),
                lower_is_better: true,
                bound: 0.1
            }]
        );
        assert_eq!(spec.per_layer, vec![("c".to_owned(), "count".to_owned())]);
    }

    #[test]
    fn compare_reads_result_directories() {
        let root = std::env::temp_dir().join(format!("hm_bench_cmp_{}", std::process::id()));
        let write = |dir: &str, seed: u32, v: f64| {
            let d = root.join(dir);
            std::fs::create_dir_all(&d).unwrap();
            let doc = format!(
                r#"{{"workload": "w", "metrics": {{"t": {{"value": {v}, "unit": "s"}}}}}}"#
            );
            std::fs::write(d.join(format!("w.seed{seed}.trace0.json")), doc).unwrap();
        };
        for (seed, f) in [0.99, 1.0, 1.01, 1.0, 1.005].iter().enumerate() {
            write("a", seed as u32, *f);
            write("b", seed as u32, f * 1.5);
        }
        let spec = Spec {
            workloads: vec!["w".into()],
            end_to_end: vec![gate(0.1, true)],
            per_layer: vec![],
        };
        let (report, worse) = compare(&spec, &root.join("a"), &root.join("b")).unwrap();
        assert!(worse, "{report}");
        assert!(report.contains("worse"), "{report}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
