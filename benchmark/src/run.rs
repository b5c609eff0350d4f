//! One benchmark run: set up a workload several times, then measure it for
//! the requested time, untraced or with traced iterations interleaved.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hiermeans_obs::memhook;
use serde::{Serialize, Value};

use crate::host;
use crate::stats::{median, percentile};
use crate::trace::{IterationTrace, Tracer};
use crate::workloads::{self, Kind, Op, Sizes};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Ops a run measures at least, so `op_p90_ms` has ten samples beyond it.
pub const MIN_OPS: usize = 100;
/// Iterations a run measures at least, for the per-iteration medians.
const MIN_ITERS: usize = 5;
/// Traced iterations a `--trace 1` run measures at least.
const MIN_TRACED: usize = 3;
/// A run that has not met its minimums by now gives up with an error.
const GIVE_UP_S: f64 = 150.0;
/// Lowest share of a traced iteration its layer spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// The probe time, in ms, that end-to-end times are scaled to: about what
/// [`host::probe_ms`] reads in the slower, more common speed phase of the
/// 2-vCPU host the benchmark was sized on, so scaled times read close to
/// the wall times that host shows.
const PROBE_REF_MS: f64 = 1.3;

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, from the traced iterations of a `--trace 1` run. A
/// layer the workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("workload.characterize_share", "frac"),
    ("workload.characterize_rows_per_s", "1/s"),
    ("workload.row_source_share", "frac"),
    ("workload.row_source_mb_per_s", "MB/s"),
    ("som.train_share", "frac"),
    ("som.bmu_searches", "count"),
    ("som.kernel_evals", "count"),
    ("som.bmu_searches_per_s", "1/s"),
    ("som.warm_hit_rate", "frac"),
    ("som.project_share", "frac"),
    ("som.project_rows_per_s", "1/s"),
    ("som.train_peak_mb", "MB"),
    ("som.dist_evals_frac_of_ceiling", "frac"),
    ("cluster.pairwise_share", "frac"),
    ("cluster.pairs_per_s", "1/s"),
    ("cluster.pairwise_frac_of_ceiling", "frac"),
    ("cluster.merge_loop_share", "frac"),
    ("cluster.merges", "count"),
    ("cluster.merges_per_s", "1/s"),
    ("cluster.peak_mb", "MB"),
    ("core.pipeline_share", "frac"),
    ("core.score_share", "frac"),
    ("core.score_cells_per_s", "1/s"),
    ("core.recommend_k_share", "frac"),
    ("core.silhouette_pairs_per_s", "1/s"),
    ("core.fleet_rescore_share", "frac"),
    ("core.fleet_rescores_per_s", "1/s"),
    ("store.ingest_share", "frac"),
    ("store.ingests_per_s", "1/s"),
    ("store.read_kb_per_op", "kB"),
    ("store.write_kb_per_op", "kB"),
    ("store.quarantined", "count"),
    ("obs.layer_coverage", "frac"),
    ("obs.trace_overhead_frac", "frac"),
    ("host.cpus", "count"),
    ("host.probe_ms", "ms"),
    ("host.steal_share", "frac"),
    ("host.dist_evals_per_s", "1/s"),
    ("host.pair_evals_per_s", "1/s"),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub kind: Kind,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Interleave traced iterations and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Directory the run's temporary files go under.
    pub work_root: PathBuf,
}

/// The printed outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// No op failed and no check failed.
    pub correct: bool,
    /// Ops attempted after set-up.
    pub attempted: usize,
    /// Ops that failed or whose outputs failed a check.
    pub failed: usize,
    /// `(name, value, unit)`, in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(String, f64, String)>,
    /// Failure messages, for the log.
    pub failures: Vec<String>,
    /// Sample counts behind the metrics.
    pub samples: Vec<(&'static str, usize)>,
    /// Raw per-iteration and per-op series, for the result file.
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// Per-layer values of every traced iteration (trace runs only).
    pub layer_rows: Vec<Vec<(String, f64)>>,
    /// Every recorded span (trace runs only).
    pub spans: Vec<crate::trace::SpanRecord>,
}

impl RunResult {
    /// The result line the benchmark prints last.
    pub fn summary(&self) -> Value {
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            ("metrics".into(), metrics_value(&self.metrics)),
        ])
    }
}

fn metrics_value(metrics: &[(String, f64, String)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = Value::Object(vec![
                    ("value".into(), Value::Float(*value)),
                    ("unit".into(), unit.to_value()),
                ]);
                (name.clone(), v)
            })
            .collect(),
    )
}

/// A per-run directory under `root`, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path, kind: Kind) -> Result<Self, String> {
        let path = root.join(format!("{}-{}", kind.name(), std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `root` behind only if another run is still using it.
        if let Some(root) = self.0.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// Tallies across a run's iterations.
#[derive(Default)]
struct Counts {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Counts {
    fn add(&mut self, ops: usize, failures: Vec<String>) {
        self.attempted += ops;
        // A check may flag several problems in one op's output; an
        // iteration cannot fail more ops than it ran.
        self.failed += failures.len().min(ops.max(1));
        self.failures.extend(failures);
    }
}

/// Scale factors for spans timed between consecutive host samples: the
/// ratio of [`PROBE_REF_MS`] to the mean of the probes on either side of
/// each span, raised to the workload's [`Kind::host_sensitivity`], times
/// `1 − steal` for the share of CPU time the hypervisor stole during the
/// span, raised to `steal_exponent`. The factor moves a time measured in
/// either host speed phase, and under any load from other guests, onto one
/// scale.
fn host_factors(kind: Kind, samples: &[host::Sample], steal_exponent: f64) -> Vec<f64> {
    samples
        .windows(2)
        .map(|w| {
            let probe = (w[0].probe_ms + w[1].probe_ms) / 2.0;
            let steal = w[0].steal_share(&w[1]);
            (PROBE_REF_MS / probe).powf(kind.host_sensitivity())
                * (1.0 - steal).powf(steal_exponent)
        })
        .collect()
}

/// The steal share of each span between consecutive host samples.
fn steal_shares(samples: &[host::Sample]) -> Vec<f64> {
    samples
        .windows(2)
        .map(|w| w[0].steal_share(&w[1]))
        .collect()
}

/// Each op's latency replaced by the median latency of its slot over the
/// run. Every repeat of a slot does the same work, so the median is the
/// program's time for it; a repeat the host stalled (a preempted process
/// or an I/O wait behind another tenant, which put 20–70 ms on up to a
/// tenth of `fleet_200`'s ops in some runs) does not move it.
fn slot_medians(ops: &[Op], ms: &[f64]) -> Vec<f64> {
    let mut by_slot: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (op, &t) in ops.iter().zip(ms) {
        by_slot.entry(op.slot).or_default().push(t);
    }
    let medians: BTreeMap<usize, f64> = by_slot
        .into_iter()
        .filter_map(|(slot, ts)| Some((slot, median(&ts)?)))
        .collect();
    ops.iter().map(|op| medians[&op.slot]).collect()
}

/// Runs `args`: set-up [`SETUP_REPS`] times, then measure.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let work = WorkDir::create(&args.work_root, args.kind)?;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut samples = vec![host::Sample::take()];
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(workloads::setup(args.kind, args.seed, args.sizes, &work.0)?);
        setup_s.push(start.elapsed().as_secs_f64());
        samples.push(host::Sample::take());
    }
    // A set-up is one block of work with no slot median to drop stalls, so
    // steal stretches it in full.
    let factors = host_factors(args.kind, &samples, 1.0);
    let setup = Setup {
        normalized: setup_s.iter().zip(&factors).map(|(s, f)| s * f).collect(),
        raw: setup_s,
        factors,
    };
    let mut workload = workload.expect("SETUP_REPS > 0");
    let result = if args.trace {
        measure_traced(args, workload.as_mut())
    } else {
        measure(args, workload.as_mut(), setup)
    };
    drop(workload);
    drop(work);
    result
}

fn enough(
    start: Instant,
    args: &RunArgs,
    ops: usize,
    iters: usize,
    min_iters: usize,
) -> Result<bool, String> {
    let elapsed = start.elapsed().as_secs_f64();
    let done = elapsed >= args.seconds && ops >= MIN_OPS && iters >= min_iters;
    if !done && elapsed >= GIVE_UP_S {
        return Err(format!(
            "{}: only {ops} ops in {iters} iterations after {elapsed:.0} s",
            args.kind.name()
        ));
    }
    Ok(done)
}

/// Set-up times of one run, in seconds, and their host factors.
struct Setup {
    raw: Vec<f64>,
    normalized: Vec<f64>,
    factors: Vec<f64>,
}

fn measure(
    args: &RunArgs,
    workload: &mut dyn workloads::Workload,
    setup: Setup,
) -> Result<RunResult, String> {
    let mut ops = Vec::new();
    let mut firsts = Vec::new();
    let mut peaks = Vec::new();
    let mut samples = Vec::new();
    let mut counts = Counts::default();
    let start = Instant::now();
    while !enough(start, args, ops.len(), firsts.len(), MIN_ITERS)? {
        samples.push(host::Sample::take());
        let first = ops.len();
        firsts.push(first);
        let (done, peak) = memhook::global_window(|| workload.iterate(&mut ops));
        done?;
        peaks.push(peak as f64);
        counts.add(ops.len() - first, workload.check()?);
    }
    samples.push(host::Sample::take());
    let factors = host_factors(args.kind, &samples, args.kind.steal_sensitivity());
    let spans: Vec<(usize, usize)> = (0..firsts.len())
        .map(|i| (firsts[i], firsts.get(i + 1).copied().unwrap_or(ops.len())))
        .collect();
    let mut ms = Vec::with_capacity(ops.len());
    for (&(first, end), factor) in spans.iter().zip(&factors) {
        ms.extend(ops[first..end].iter().map(|op| op.seconds * factor * 1e3));
    }
    let typical = slot_medians(&ops, &ms);
    let walls: Vec<f64> = spans
        .iter()
        .map(|&(first, end)| typical[first..end].iter().sum::<f64>() / 1e3)
        .collect();
    let missing = |what: &str| format!("{}: no {what} from {} ops", args.kind.name(), ms.len());
    let values: [Option<f64>; END_TO_END.len()] = [
        median(&setup.normalized),
        median(&walls),
        percentile(&typical, 50.0),
        percentile(&typical, 90.0),
        median(&peaks).map(|b| b / 1e6),
    ];
    let mut metrics = Vec::new();
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        metrics.push((
            name.to_string(),
            value.ok_or_else(|| missing(name))?,
            unit.to_string(),
        ));
    }
    Ok(RunResult {
        correct: counts.failed == 0,
        attempted: counts.attempted,
        failed: counts.failed,
        metrics,
        failures: counts.failures,
        samples: vec![
            ("setups", setup.raw.len()),
            ("iterations", walls.len()),
            ("ops", ops.len()),
        ],
        series: vec![
            ("setup_raw_s", setup.raw),
            ("setup_host_factor", setup.factors),
            ("host_factor", factors),
            ("iteration_s", walls),
            ("probe_ms", samples.iter().map(|s| s.probe_ms).collect()),
            ("steal_share", steal_shares(&samples)),
            ("op_ms", ms),
            ("op_slot", ops.iter().map(|op| op.slot as f64).collect()),
        ],
        layer_rows: Vec::new(),
        spans: Vec::new(),
    })
}

fn measure_traced(
    args: &RunArgs,
    workload: &mut dyn workloads::Workload,
) -> Result<RunResult, String> {
    let ceilings = (
        host::dist_evals_per_s(8, 1),
        host::dist_evals_per_s(2, host::cpus()),
    );
    let mut tracer = Tracer::new(args.kind.name());
    let mut ops = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut samples = Vec::new();
    let mut iterations: Vec<IterationTrace> = Vec::new();
    let mut counts = Counts::default();
    let start = Instant::now();
    while !enough(
        start,
        args,
        ops.len(),
        traced.len().min(untraced.len()),
        MIN_TRACED,
    )? {
        // Alternate so both sides see the same host speed phases.
        for traced_turn in [false, true] {
            samples.push(host::Sample::take());
            let first = ops.len();
            if traced_turn {
                tracer.begin_iteration(iterations.len());
                workload.iterate_traced(&mut tracer, &mut ops)?;
                iterations.push(tracer.end_iteration());
                traced.push(ops[first..].iter().map(|op| op.seconds).sum::<f64>());
            } else {
                workload.iterate(&mut ops)?;
                untraced.push(ops[first..].iter().map(|op| op.seconds).sum::<f64>());
            }
            counts.add(ops.len() - first, workload.check()?);
        }
    }
    let overhead = match (median(&traced), median(&untraced)) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    };
    samples.push(host::Sample::take());
    let probes: Vec<f64> = samples.iter().map(|s| s.probe_ms).collect();
    let steal = steal_shares(&samples);
    let host = Host {
        probe_ms: median(&probes).unwrap_or(0.0),
        steal_share: median(&steal).unwrap_or(0.0),
        dist_evals_per_s: ceilings.0,
        pair_evals_per_s: ceilings.1,
        overhead,
    };
    let layer_rows: Vec<Vec<(String, f64)>> = iterations
        .iter()
        .map(|it| layer_metrics(it, &host))
        .collect();
    // Held on the median: the host can preempt the process for tens of ms
    // in the microseconds between two layer spans, which drops that one
    // iteration's coverage without any layer going untimed.
    let coverages: Vec<f64> = iterations.iter().map(IterationTrace::coverage).collect();
    let coverage = median(&coverages).unwrap_or(0.0);
    if coverage < MIN_COVERAGE {
        counts.add(
            0,
            vec![format!(
                "layer spans cover a median {coverage:.3} of the traced iterations' wall time (< {MIN_COVERAGE})"
            )],
        );
    }
    let metrics = PER_LAYER
        .iter()
        .enumerate()
        .map(|(j, (name, unit))| {
            let column: Vec<f64> = layer_rows.iter().map(|row| row[j].1).collect();
            (
                name.to_string(),
                median(&column).unwrap_or(0.0),
                unit.to_string(),
            )
        })
        .collect();
    Ok(RunResult {
        correct: counts.failed == 0,
        attempted: counts.attempted,
        failed: counts.failed,
        metrics,
        failures: counts.failures,
        samples: vec![
            ("traced_iterations", traced.len()),
            ("untraced_iterations", untraced.len()),
            ("ops", ops.len()),
        ],
        series: vec![
            ("traced_s", traced),
            ("untraced_s", untraced),
            ("probe_ms", probes),
            ("steal_share", steal),
        ],
        layer_rows,
        spans: tracer.spans().to_vec(),
    })
}

/// Host-level numbers shared by every traced iteration of a run.
struct Host {
    probe_ms: f64,
    steal_share: f64,
    dist_evals_per_s: f64,
    pair_evals_per_s: f64,
    overhead: f64,
}

/// `num / den`, or 0 when the layer did no work.
fn rate(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One traced iteration's per-layer values, in [`PER_LAYER`] order.
fn layer_metrics(it: &IterationTrace, host: &Host) -> Vec<(String, f64)> {
    let wall = it.wall_s;
    let share = |name: &str| rate(it.inclusive(name), wall);
    let characterize_s = it.inclusive("workload.characterize");
    let som_s = it.inclusive("pipeline.som");
    let project_s = it.inclusive("pipeline.project") + it.inclusive("som.project");
    let pairwise_s = it.inclusive("cluster.pairwise");
    let merge_s = it.inclusive("cluster.merge_loop");
    let score_s = it.inclusive("core.score");
    let recommend_s = it.inclusive("core.recommend_k");
    let rescore_s = it.inclusive("core.fleet_rescore");
    let ingest_s = it.inclusive("store.ingest");
    let bmu = it.counter("bmu_searches") as f64;
    let warm = it.counter("bmu_warm_hits") as f64;
    let rescans = it.counter("bmu_exact_rescans") as f64;
    let merges = it.counter("linkage_merges") as f64;
    let pairs_per_s = rate(it.tally("cluster_pairs"), pairwise_s);
    // Streaming training is serial, so its ceiling is the one-thread loop
    // at the data's width; other workloads train at other widths.
    let serial_dist_frac = if it.tally("som_serial_dim") > 0.0 {
        rate(
            rate(it.counter("distance_evaluations") as f64, som_s),
            host.dist_evals_per_s,
        )
    } else {
        0.0
    };
    let store_ops = it.tally("store_ops");
    // In PER_LAYER order; the array type checks the count.
    let values: [f64; PER_LAYER.len()] = [
        share("workload.characterize"),
        rate(it.tally("characterized_rows"), characterize_s),
        rate(it.tally("row_source_s"), wall),
        rate(it.tally("row_source_bytes") / 1e6, it.tally("row_source_s")),
        share("pipeline.som"),
        bmu,
        it.counter("kernel_evaluations") as f64,
        rate(bmu, som_s),
        rate(warm, warm + rescans),
        rate(project_s, wall),
        rate(it.tally("projected_rows"), project_s),
        it.stage_peak("pipeline.som") as f64 / 1e6,
        serial_dist_frac,
        share("cluster.pairwise"),
        pairs_per_s,
        rate(pairs_per_s, host.pair_evals_per_s),
        share("cluster.merge_loop"),
        merges,
        rate(merges, merge_s),
        it.stage_peak("pipeline.cluster") as f64 / 1e6,
        share("core.pipeline"),
        share("core.score"),
        rate(it.counter("score_sweep_cells") as f64, score_s),
        share("core.recommend_k"),
        rate(it.tally("silhouette_pairs"), recommend_s),
        share("core.fleet_rescore"),
        rate(store_ops, rescore_s),
        share("store.ingest"),
        rate(store_ops, ingest_s),
        rate(it.tally("store_read_bytes") / 1e3, store_ops),
        rate(it.tally("store_write_bytes") / 1e3, store_ops),
        it.tally("store_quarantined"),
        it.coverage(),
        host.overhead,
        host::cpus() as f64,
        host.probe_ms,
        host.steal_share,
        host.dist_evals_per_s,
        host.pair_evals_per_s,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|((name, _), v)| (name.to_string(), v))
        .collect()
}

/// Writes the result file (and, for a trace run, the per-layer table and
/// the span file) under `out`; returns the result file's path.
pub fn write_outputs(args: &RunArgs, result: &RunResult, out: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let stem = format!(
        "{}.seed{}.trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let write = |name: String, text: String| {
        let path = out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok::<_, String>(path)
    };
    let cwd = std::env::current_dir().unwrap_or_default();
    let mut doc = vec![
        ("workload".to_owned(), args.kind.name().to_value()),
        ("seed".to_owned(), Value::UInt(args.seed)),
        ("seconds".to_owned(), Value::Float(args.seconds)),
        ("trace".to_owned(), Value::Bool(args.trace)),
        ("host.cpus".to_owned(), Value::Int(host::cpus() as i64)),
        ("host".to_owned(), host::host_string().to_value()),
        ("git_rev".to_owned(), host::git_rev(&cwd).to_value()),
        (
            "samples".to_owned(),
            Value::Object(
                result
                    .samples
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Value::Int(*v as i64)))
                    .collect(),
            ),
        ),
        ("failures".to_owned(), result.failures.to_value()),
        (
            "series".to_owned(),
            Value::Object(
                result
                    .series
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.to_value()))
                    .collect(),
            ),
        ),
    ];
    if let Value::Object(fields) = result.summary() {
        doc.extend(fields);
    }
    let json = serde_json::to_string_pretty(&Value::Object(doc)).map_err(|e| e.to_string())?;
    let path = write(format!("{stem}.json"), json)?;
    if args.trace {
        let rows: Vec<Value> = result
            .layer_rows
            .iter()
            .map(|row| {
                Value::Object(
                    row.iter()
                        .map(|(k, v)| (k.clone(), Value::Float(*v)))
                        .collect(),
                )
            })
            .collect();
        let table = Value::Object(vec![
            ("workload".to_owned(), args.kind.name().to_value()),
            ("median".to_owned(), metrics_value(&result.metrics)),
            ("iterations".to_owned(), Value::Array(rows)),
        ]);
        let json = serde_json::to_string_pretty(&table).map_err(|e| e.to_string())?;
        write(format!("{stem}.per_layer.json"), json)?;
        let mut lines = String::new();
        for span in &result.spans {
            lines.push_str(&serde_json::to_string(span).map_err(|e| e.to_string())?);
            lines.push('\n');
        }
        write(format!("{stem}.spans.jsonl"), lines)?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_repeat_does_not_move_its_slot() {
        let ops: Vec<Op> = [0, 1, 0, 1, 0, 1]
            .into_iter()
            .map(|slot| Op { slot, seconds: 0.0 })
            .collect();
        // Slot 0 takes 2 ms, slot 1 takes 5 ms; one repeat of slot 1 stalled.
        let ms = [2.0, 5.0, 2.0, 60.0, 2.0, 5.0];
        assert_eq!(slot_medians(&ops, &ms), vec![2.0, 5.0, 2.0, 5.0, 2.0, 5.0]);
    }
}
