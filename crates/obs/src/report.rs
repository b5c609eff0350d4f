//! The structured trace exporter: the stable `OBS_trace.json` schema and a
//! human-readable stage tree.
//!
//! [`TraceReport`] is one collector's trace; [`TraceDocument`] bundles one
//! report per paper study into the `OBS_trace.json` artifact written by
//! `repro trace`. The schema is versioned ([`SCHEMA_VERSION`]) and every
//! name in it is a stable string, so downstream tooling can diff traces
//! across commits.
//!
//! Wall-clock fields (`start_us`, `duration_us`, timing histograms) are the
//! only parts of a trace that legitimately vary run-to-run;
//! [`TraceReport::fingerprint`] projects them away, leaving a string that
//! must be byte-identical between serial and parallel executions of the
//! same computation.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::convergence::{ConvergenceVerdict, EpochRecord};
use crate::lanes::LaneSetExport;
use crate::metrics::{Counter, CounterExport, HistogramExport};
use crate::resilience::ResilienceEvent;
use crate::span::SpanExport;
use crate::State;

/// Version stamp of the `OBS_trace.json` schema.
///
/// * v1 — spans, counters, histograms, events, epoch telemetry, merge
///   trajectory, convergence verdict.
/// * v2 — adds the `resilience` field: typed retry / degradation /
///   fault-injection events ([`ResilienceEvent`]).
/// * v3 — adds the `lanes` field (per-worker chunk timelines with
///   occupancy/parallel-efficiency analytics, [`LaneSetExport`]), the
///   `chunk_duration_us`/`chunk_imbalance` histograms, and `p50`/`p95`/
///   `p99` summary fields on every histogram. All additions are
///   `#[serde(default)]`-compatible: v2 artifacts still parse.
/// * v4 — adds the `memory` block ([`MemoryReport`]): process peak RSS and
///   per-span allocation count / bytes / high-water mark from
///   [`crate::memhook`]. `None` when memory telemetry was off (or for v3
///   artifacts, which still parse via `#[serde(default)]`). Memory is
///   run-varying, like the clocks, so it is excluded from
///   [`TraceReport::fingerprint`].
/// * v5 — adds the `store` resilience-event class
///   ([`ResilienceEvent::Store`]): result-store actions — quarantine
///   routing, torn-tail recovery, fsck repair, score-cache rebuild — now
///   narrate through the same `resilience` field the pipeline driver uses.
///   Structurally additive (a new `kind` value, no new fields), so v4
///   artifacts still parse; v5 artifacts containing `store` events do not
///   parse with a v4 reader, hence the bump.
/// * v6 — adds the epoch-warm BMU counters (`bmu_warm_hits`,
///   `bmu_exact_rescans`) and the per-epoch `warm_hit_rate` field on
///   [`EpochRecord`]. All three are *advisory* — they describe which
///   internal fast path served a search, not the search's result — so they
///   are excluded from [`TraceReport::fingerprint`]. Additive and
///   `#[serde(default)]`-compatible: v5 artifacts still parse.
/// * v7 — adds two document-level fields on [`TraceDocument`]: `meta`
///   (provenance — schema version, git revision, host fingerprint, cargo
///   profile, [`crate::history::BenchMeta`] — matching what the
///   `BENCH_*.json` baselines already carry) and `live` (the telemetry
///   plane's end-of-run [`crate::live::LiveSummary`] when the run hosted
///   `--live`). Both are run-varying metadata outside every
///   [`TraceReport::fingerprint`], additive, and
///   `#[serde(default)]`-compatible: v6 artifacts still parse.
pub const SCHEMA_VERSION: u32 = 7;

/// One recorded point event, exported.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventExport {
    /// Event name.
    pub name: String,
    /// Free-form detail text.
    pub detail: String,
    /// Index of the enclosing span, if any.
    pub span: Option<usize>,
    /// Microseconds from the collector's origin.
    pub at_us: u64,
}

/// Memory attribution for one span, exported in the `memory` block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageMemory {
    /// Arena index of the span this attribution belongs to.
    pub span: usize,
    /// The span's stage name, duplicated for grep-ability.
    pub stage: String,
    /// Heap allocations charged to the span (coordinating thread plus
    /// parallel worker tallies).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Coordinating-thread live-byte high-water mark over the span.
    pub peak_bytes: u64,
}

/// The schema-v4 `memory` block: process peak RSS plus per-span
/// allocation attribution (only spans that were open while the tracking
/// allocator was hooked appear in `stages`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Process peak resident set size in kB (kernel `VmHWM` combined with
    /// the sampler's observed maximum); `0` when unavailable.
    pub peak_rss_kb: u64,
    /// Per-span attribution in span open order.
    pub stages: Vec<StageMemory>,
}

/// One collector's exported trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Spans in open order; `id` equals the vector index.
    pub spans: Vec<SpanExport>,
    /// Counter totals, one entry per [`Counter`] in declaration order.
    pub counters: Vec<CounterExport>,
    /// Fixed-bucket histograms in declaration order.
    pub histograms: Vec<HistogramExport>,
    /// Point events in record order.
    pub events: Vec<EventExport>,
    /// Per-epoch SOM quality telemetry (empty if sampling was off).
    pub som_epochs: Vec<EpochRecord>,
    /// Agglomerative merge distances in merge order.
    pub merge_distances: Vec<f64>,
    /// The SOM convergence verdict, if training recorded telemetry.
    pub convergence: Option<ConvergenceVerdict>,
    /// Self-healing events — retries, degradations, injected faults — in
    /// record order. Empty for a fault-free single-attempt run.
    pub resilience: Vec<ResilienceEvent>,
    /// Per-stage worker-lane timelines with parallel-efficiency analytics,
    /// in attach order. Empty when lane recording is off (v2 traces).
    #[serde(default)]
    pub lanes: Vec<LaneSetExport>,
    /// Memory telemetry; `None` when `ObsConfig.memory` was off (and for
    /// pre-v4 traces).
    #[serde(default)]
    pub memory: Option<MemoryReport>,
}

pub(crate) fn export(state: &State, peak_rss_kb: Option<u64>) -> TraceReport {
    TraceReport {
        schema_version: SCHEMA_VERSION,
        spans: state
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| SpanExport {
                id,
                parent: s.parent,
                name: s.name.to_owned(),
                start_us: s.start_us,
                duration_us: s.duration_us,
            })
            .collect(),
        counters: Counter::ALL
            .iter()
            .map(|&c| CounterExport {
                name: c.name().to_owned(),
                value: state.counters[c as usize],
            })
            .collect(),
        histograms: state.histograms.iter().map(|h| h.export()).collect(),
        events: state
            .events
            .iter()
            .map(|e| EventExport {
                name: e.name.to_owned(),
                detail: e.detail.clone(),
                span: e.span,
                at_us: e.at_us,
            })
            .collect(),
        som_epochs: state.epochs.clone(),
        merge_distances: state.merge_distances.clone(),
        convergence: state.verdict.clone(),
        resilience: state.resilience.clone(),
        lanes: state.lane_sets.iter().map(crate::lanes::export).collect(),
        memory: peak_rss_kb.map(|peak_rss_kb| MemoryReport {
            peak_rss_kb,
            stages: state
                .spans
                .iter()
                .enumerate()
                .filter_map(|(id, s)| {
                    s.mem.map(|m| StageMemory {
                        span: id,
                        stage: s.name.to_owned(),
                        allocs: m.allocs,
                        bytes: m.bytes,
                        peak_bytes: m.peak_bytes,
                    })
                })
                .collect(),
        }),
    }
}

impl TraceReport {
    /// The total of the counter with this stable name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The histogram with this stable name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramExport> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Durations (µs) of every span named `name`, in open order — the
    /// timing source of the per-stage run-history samples.
    #[must_use]
    pub fn span_durations_us(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_us)
            .collect()
    }

    /// Whether a degradation event was recorded — the run fell back to
    /// raw-space clustering after exhausting retries.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.resilience
            .iter()
            .any(|e| matches!(e, ResilienceEvent::Degraded { .. }))
    }

    /// How many retry events were recorded.
    #[must_use]
    pub fn retry_count(&self) -> usize {
        self.resilience
            .iter()
            .filter(|e| matches!(e, ResilienceEvent::Retry { .. }))
            .count()
    }

    /// The lane set attached under this stage name, if any.
    #[must_use]
    pub fn lane(&self, stage: &str) -> Option<&LaneSetExport> {
        self.lanes.iter().find(|l| l.stage == stage)
    }

    /// The structural projection of every lane set: stage, enclosing span,
    /// chunk count, run count, and the chunk-index multiset — no clocks, no
    /// worker attribution, so the string is identical for any worker count.
    #[must_use]
    pub fn lane_fingerprint(&self) -> String {
        let mut out = String::new();
        for l in &self.lanes {
            let _ = writeln!(out, "{}", l.structural_line());
        }
        out
    }

    /// A deterministic projection of the trace: the span tree (names and
    /// structure, no clocks), counter totals, non-timing histograms, epoch
    /// telemetry, merge trajectory, events, and the verdict. Floats are
    /// rendered as raw bit patterns, so two fingerprints are equal iff the
    /// deterministic trace content is bitwise identical.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "schema v{}", self.schema_version);
        for s in &self.spans {
            let _ = writeln!(out, "span {} id={} parent={:?}", s.name, s.id, s.parent);
        }
        for c in self.counters.iter().filter(|c| !advisory_counter(&c.name)) {
            let _ = writeln!(out, "counter {}={}", c.name, c.value);
        }
        for h in self.histograms.iter().filter(|h| !h.timing) {
            let _ = writeln!(
                out,
                "histogram {} counts={:?} total={} sum={:016x} min={:016x} max={:016x}",
                h.name,
                h.counts,
                h.total,
                h.sum.to_bits(),
                h.min.to_bits(),
                h.max.to_bits()
            );
        }
        // `warm_hit_rate` is deliberately absent: it is advisory (differs
        // between resident and streamed runs of identical maps).
        for e in &self.som_epochs {
            let _ = writeln!(
                out,
                "epoch {} qe={:016x} te={:016x} sigma={:016x}",
                e.epoch,
                e.quantization_error.to_bits(),
                e.topographic_error.to_bits(),
                e.sigma.to_bits()
            );
        }
        for (i, d) in self.merge_distances.iter().enumerate() {
            let _ = writeln!(out, "merge {} d={:016x}", i, d.to_bits());
        }
        for e in &self.events {
            let _ = writeln!(out, "event {} span={:?} {}", e.name, e.span, e.detail);
        }
        if let Some(v) = &self.convergence {
            let _ = writeln!(
                out,
                "verdict converged={} records={} window={} rel={:016x} rate={:016x} reason={}",
                v.converged,
                v.records,
                v.window,
                v.relative_improvement.to_bits(),
                v.rate_per_epoch.to_bits(),
                v.reason
            );
        }
        for (i, e) in self.resilience.iter().enumerate() {
            let _ = writeln!(out, "resilience {} {} {}", i, e.kind(), e);
        }
        out.push_str(&self.lane_fingerprint());
        out
    }

    /// Renders the human-readable stage tree with durations, hot-path
    /// counters, and the convergence verdict.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace (schema v{})", self.schema_version);
        for s in &self.spans {
            let indent = "  ".repeat(s.depth_in(&self.spans) + 1);
            let _ = writeln!(out, "{indent}{:<32} {}", s.name, fmt_us(s.duration_us));
        }
        let active: Vec<&CounterExport> = self.counters.iter().filter(|c| c.value > 0).collect();
        if !active.is_empty() {
            let _ = writeln!(out, "  counters:");
            for c in active {
                let _ = writeln!(out, "    {:<32} {}", c.name, c.value);
            }
        }
        for h in self.histograms.iter().filter(|h| h.total > 0) {
            let _ = writeln!(
                out,
                "  histogram {:<22} n={} min={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3} mean={:.3}",
                h.name,
                h.total,
                h.min,
                h.p50,
                h.p95,
                h.p99,
                h.max,
                h.sum / h.total as f64
            );
        }
        if !self.lanes.is_empty() {
            let _ = writeln!(out, "  lanes:");
            for l in &self.lanes {
                let _ = writeln!(
                    out,
                    "    {:<28} runs={} chunks={} workers={} busy={} wall={} eff={:.0}%",
                    l.stage,
                    l.runs,
                    l.n_chunks,
                    l.workers.len(),
                    fmt_us(l.busy_us),
                    fmt_us(l.wall_us),
                    l.parallel_efficiency * 100.0
                );
                if l.workers.len() > 1 {
                    let occupancies: Vec<String> = l
                        .workers
                        .iter()
                        .map(|w| format!("{}:{:.0}%", w.worker, w.occupancy * 100.0))
                        .collect();
                    let _ = writeln!(out, "      occupancy {}", occupancies.join(" "));
                }
            }
        }
        if let Some((first, last)) = self.som_epochs.first().zip(self.som_epochs.last()) {
            let _ = writeln!(
                out,
                "  som quality: qe {:.4} -> {:.4}, te {:.4} -> {:.4} over {} sampled epochs",
                first.quantization_error,
                last.quantization_error,
                first.topographic_error,
                last.topographic_error,
                self.som_epochs.len()
            );
        }
        let warm_hits = self.counter("bmu_warm_hits").unwrap_or(0);
        let warm_rescans = self.counter("bmu_exact_rescans").unwrap_or(0);
        if warm_hits + warm_rescans > 0 {
            let _ = writeln!(
                out,
                "  warm bmu: {} cache hits / {} exact rescans ({:.1}% prune hit rate)",
                warm_hits,
                warm_rescans,
                100.0 * warm_hits as f64 / (warm_hits + warm_rescans) as f64
            );
        }
        if let Some(v) = &self.convergence {
            let _ = writeln!(
                out,
                "  convergence: {} — {}",
                if v.converged {
                    "CONVERGED"
                } else {
                    "NOT CONVERGED"
                },
                v.reason
            );
        }
        if !self.resilience.is_empty() {
            let _ = writeln!(out, "  resilience:");
            for e in &self.resilience {
                let _ = writeln!(out, "    {e}");
            }
        }
        if let Some(m) = &self.memory {
            let _ = writeln!(out, "  memory: peak_rss {} kB", m.peak_rss_kb);
            for s in &m.stages {
                let _ = writeln!(
                    out,
                    "    {:<28} allocs={} bytes={} peak={}",
                    s.stage,
                    s.allocs,
                    fmt_bytes(s.bytes),
                    fmt_bytes(s.peak_bytes)
                );
            }
        }
        out
    }
}

/// Whether an exported counter name belongs to an advisory counter
/// ([`Counter::advisory`]) and must stay out of the fingerprint.
fn advisory_counter(name: &str) -> bool {
    Counter::ALL
        .iter()
        .any(|c| c.advisory() && c.name() == name)
}

fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3} s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.3} ms", us as f64 / 1e3)
    } else {
        format!("{us} us")
    }
}

/// One study's trace inside a [`TraceDocument`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyTrace {
    /// Stable study label, e.g. `sar_machine_a`.
    pub label: String,
    /// The study's trace.
    pub trace: TraceReport,
}

/// The `OBS_trace.json` document: one trace per paper study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDocument {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Worker count the traced run used.
    pub workers: usize,
    /// One entry per study, in run order.
    pub studies: Vec<StudyTrace>,
    /// Provenance stamp (schema ver, git rev, host, cargo profile), the
    /// same block the `BENCH_*.json` baselines carry. `None` in pre-v7
    /// artifacts.
    #[serde(default)]
    pub meta: Option<crate::history::BenchMeta>,
    /// End-of-run summary of the live telemetry plane when the run hosted
    /// `--live`; `None` otherwise.
    #[serde(default)]
    pub live: Option<crate::live::LiveSummary>,
}

impl TraceDocument {
    /// Bundles study traces into a document.
    #[must_use]
    pub fn new(workers: usize, studies: Vec<StudyTrace>) -> Self {
        TraceDocument {
            schema_version: SCHEMA_VERSION,
            workers,
            studies,
            meta: None,
            live: None,
        }
    }

    /// Stamps the provenance block.
    #[must_use]
    pub fn with_meta(mut self, meta: crate::history::BenchMeta) -> Self {
        self.meta = Some(meta);
        self
    }

    /// Stamps the live telemetry-plane summary.
    #[must_use]
    pub fn with_live(mut self, live: crate::live::LiveSummary) -> Self {
        self.live = Some(live);
        self
    }

    /// Whether every study's SOM reported a converged verdict. A study with
    /// no verdict at all counts as non-converged — missing telemetry must
    /// fail loudly, not pass silently.
    #[must_use]
    pub fn all_converged(&self) -> bool {
        !self.studies.is_empty()
            && self
                .studies
                .iter()
                .all(|s| s.trace.convergence.as_ref().is_some_and(|v| v.converged))
    }

    /// Renders every study's stage tree.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "OBS trace (schema v{}, {} workers)",
            self.schema_version, self.workers
        );
        for s in &self.studies {
            let _ = writeln!(out, "\nstudy {}", s.label);
            out.push_str(&s.trace.render_tree());
        }
        out
    }
}

/// Structural shape validation for `OBS_trace.json` / `OBS_profile.json`
/// documents — the `repro check-trace` backend for non-Chrome artifacts.
///
/// Deliberately schema-driven over raw JSON rather than a serde round-trip:
/// `#[serde(default)]` would silently paper over a missing or mistyped
/// field, which is exactly the corruption this check exists to catch. On
/// top of the document skeleton it pins the v6 additions (`warm_hit_rate`
/// on epoch records in `[0, 1]`, the `memory` block) and the v7 additions
/// (the `meta` provenance block, the `live` plane summary).
///
/// Returns `(studies, epoch_records)` counts on success.
///
/// # Errors
///
/// Returns a `field: problem` message for the first violation found.
pub fn validate_document(text: &str) -> Result<(usize, usize), String> {
    use serde::Value;

    fn require<'v>(obj: &'v Value, field: &str, at: &str) -> Result<&'v Value, String> {
        obj.get(field)
            .ok_or_else(|| format!("missing `{at}{field}`"))
    }
    fn as_u64(value: &Value, at: &str) -> Result<u64, String> {
        match value {
            Value::UInt(v) => Ok(*v),
            Value::Int(v) if *v >= 0 => Ok(*v as u64),
            _ => Err(format!("`{at}` is not a non-negative integer")),
        }
    }
    fn as_finite(value: &Value, at: &str) -> Result<f64, String> {
        match value {
            Value::Float(v) if v.is_finite() => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            Value::UInt(v) => Ok(*v as f64),
            _ => Err(format!("`{at}` is not a finite number")),
        }
    }
    fn as_str<'v>(value: &'v Value, at: &str) -> Result<&'v str, String> {
        match value {
            Value::Str(v) => Ok(v),
            _ => Err(format!("`{at}` is not a string")),
        }
    }
    fn as_array<'v>(value: &'v Value, at: &str) -> Result<&'v [Value], String> {
        match value {
            Value::Array(v) => Ok(v),
            _ => Err(format!("`{at}` is not an array")),
        }
    }

    let root: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if !matches!(root, Value::Object(_)) {
        return Err("root is not an object".to_owned());
    }
    let version = as_u64(require(&root, "schema_version", "")?, "schema_version")?;
    if version > u64::from(SCHEMA_VERSION) {
        return Err(format!(
            "`schema_version` {version} is newer than this reader's v{SCHEMA_VERSION}"
        ));
    }
    as_u64(require(&root, "workers", "")?, "workers")?;
    let studies = as_array(require(&root, "studies", "")?, "studies")?;
    let mut epoch_records = 0usize;
    for (i, study) in studies.iter().enumerate() {
        let here = format!("studies[{i}].");
        as_str(require(study, "label", &here)?, &format!("{here}label"))?;
        let trace = require(study, "trace", &here)?;
        if !matches!(trace, Value::Object(_)) {
            return Err(format!("`{here}trace` is not an object"));
        }
        let there = format!("{here}trace.");
        for field in ["spans", "counters", "histograms", "som_epochs"] {
            as_array(require(trace, field, &there)?, &format!("{there}{field}"))?;
        }
        let epochs = as_array(trace.get("som_epochs").expect("checked above"), "")?;
        for (j, epoch) in epochs.iter().enumerate() {
            let at = format!("{there}som_epochs[{j}].");
            as_u64(require(epoch, "epoch", &at)?, &format!("{at}epoch"))?;
            for field in ["quantization_error", "topographic_error", "sigma"] {
                as_finite(require(epoch, field, &at)?, &format!("{at}{field}"))?;
            }
            // v6: advisory warm hit rate — absent, null, or a rate.
            match epoch.get("warm_hit_rate") {
                None | Some(Value::Null) => {}
                Some(value) => {
                    let field = format!("{at}warm_hit_rate");
                    let rate = as_finite(value, &field)?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("`{field}` {rate} outside [0, 1]"));
                    }
                }
            }
        }
        epoch_records += epochs.len();
        // v4/v6: the memory block — absent, null, or fully shaped.
        match trace.get("memory") {
            None | Some(Value::Null) => {}
            Some(memory) => {
                let at = format!("{there}memory.");
                as_u64(
                    require(memory, "peak_rss_kb", &at)?,
                    &format!("{at}peak_rss_kb"),
                )?;
                let stages = as_array(require(memory, "stages", &at)?, &format!("{at}stages"))?;
                for (k, stage) in stages.iter().enumerate() {
                    let at = format!("{at}stages[{k}].");
                    as_str(require(stage, "stage", &at)?, &format!("{at}stage"))?;
                    for field in ["span", "allocs", "bytes", "peak_bytes"] {
                        as_u64(require(stage, field, &at)?, &format!("{at}{field}"))?;
                    }
                }
            }
        }
    }
    // v7: the provenance stamp — absent, null, or fully shaped.
    match root.get("meta") {
        None | Some(Value::Null) => {}
        Some(meta) => {
            as_u64(
                require(meta, "schema_version", "meta.")?,
                "meta.schema_version",
            )?;
            as_u64(require(meta, "captured_ms", "meta.")?, "meta.captured_ms")?;
            for field in ["git_rev", "host", "cargo_profile"] {
                as_str(require(meta, field, "meta.")?, &format!("meta.{field}"))?;
            }
        }
    }
    // v7: the live telemetry-plane summary — absent, null, or fully shaped.
    match root.get("live") {
        None | Some(Value::Null) => {}
        Some(live) => {
            as_str(require(live, "addr", "live.")?, "live.addr")?;
            as_u64(
                require(live, "events_published", "live.")?,
                "live.events_published",
            )?;
            let requests = require(live, "requests", "live.")?;
            for field in ["metrics", "healthz", "readyz", "trace", "events"] {
                as_u64(
                    require(requests, field, "live.requests.")?,
                    &format!("live.requests.{field}"),
                )?;
            }
        }
    }
    Ok((studies.len(), epoch_records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, Counter, EpochRecord};

    fn sample_report() -> TraceReport {
        let c = Collector::enabled();
        {
            let _root = c.span("pipeline");
            let _child = c.span("pipeline.som");
            c.add(Counter::BmuSearches, 13);
            c.record_epoch(EpochRecord {
                epoch: 0,
                quantization_error: 0.5,
                topographic_error: 0.1,
                sigma: 3.0,
                warm_hit_rate: None,
            });
            c.record_merge(0.75);
        }
        c.report().unwrap()
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample_report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: TraceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        assert_eq!(back.schema_version, SCHEMA_VERSION);
    }

    #[test]
    fn fingerprint_ignores_clocks() {
        let a = sample_report();
        let mut b = a.clone();
        for s in &mut b.spans {
            s.start_us += 1000;
            s.duration_us += 1000;
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_sees_counter_changes() {
        let a = sample_report();
        let mut b = a.clone();
        b.counters[0].value += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn advisory_warm_telemetry_does_not_perturb_the_fingerprint() {
        let a = sample_report();
        let mut b = a.clone();
        for c in &mut b.counters {
            if c.name == "bmu_warm_hits" || c.name == "bmu_exact_rescans" {
                c.value += 1234;
            }
        }
        for e in &mut b.som_epochs {
            e.warm_hit_rate = Some(0.875);
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        // ...but the rendered tree narrates the warm split.
        assert!(b.render_tree().contains("warm bmu:"));
        assert!(!a.render_tree().contains("warm bmu:"));
    }

    #[test]
    fn memory_block_present_iff_enabled() {
        // Memory off (the default): no block at all.
        assert!(sample_report().memory.is_none());

        // Memory on: the block exists even though this unit-test binary has
        // no tracking allocator installed — RSS-only degradation.
        let c = Collector::enabled_with(crate::ObsConfig {
            memory: true,
            ..crate::ObsConfig::default()
        });
        {
            let _s = c.span("stage");
        }
        let r = c.report().unwrap();
        let m = r.memory.clone().expect("memory block when enabled");
        assert!(
            m.stages.is_empty(),
            "no span attribution without the tracking allocator"
        );
        let json = serde_json::to_string(&r).unwrap();
        let back: TraceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn memory_does_not_perturb_the_fingerprint() {
        let a = sample_report();
        let mut b = a.clone();
        b.memory = Some(MemoryReport {
            peak_rss_kb: 12345,
            stages: vec![StageMemory {
                span: 0,
                stage: "pipeline".into(),
                allocs: 10,
                bytes: 100,
                peak_bytes: 50,
            }],
        });
        assert_eq!(a.fingerprint(), b.fingerprint());
        // ...but the rendered tree does show it.
        assert!(b.render_tree().contains("memory: peak_rss 12345 kB"));
        assert!(b.render_tree().contains("allocs=10"));
    }

    #[test]
    fn v3_documents_without_memory_field_still_parse() {
        let r = sample_report();
        let json = serde_json::to_string(&r).unwrap();
        // A v3 artifact simply has no `memory` key.
        let v3 = json.replace(",\"memory\":null", "");
        assert_ne!(v3, json, "compact encoding should carry the null field");
        let back: TraceReport = serde_json::from_str(&v3).unwrap();
        assert!(back.memory.is_none());
    }

    #[test]
    fn render_tree_mentions_stages_and_counters() {
        let text = sample_report().render_tree();
        assert!(text.contains("pipeline"));
        assert!(text.contains("pipeline.som"));
        assert!(text.contains("bmu_searches"));
        assert!(text.contains("merge_distance"));
    }

    #[test]
    fn resilience_events_survive_export_and_fingerprint() {
        let c = Collector::enabled();
        c.record_resilience(crate::resilience::ResilienceEvent::Retry {
            attempt: 2,
            epochs: 400,
            seed: 7,
        });
        c.record_resilience(crate::resilience::ResilienceEvent::Degraded {
            after_attempts: 3,
            mode: "raw_space".into(),
        });
        let r = c.report().unwrap();
        assert_eq!(r.retry_count(), 1);
        assert!(r.degraded());
        assert!(r.fingerprint().contains("resilience 1 degraded"));
        let json = serde_json::to_string(&r).unwrap();
        let back: TraceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        // The rendered tree narrates the fallback.
        assert!(r.render_tree().contains("degraded to raw_space"));
    }

    #[test]
    fn document_convergence_gate() {
        let r = sample_report();
        let doc = TraceDocument::new(
            4,
            vec![StudyTrace {
                label: "s1".into(),
                trace: r.clone(),
            }],
        );
        // No verdict recorded -> not converged.
        assert!(!doc.all_converged());
        assert!(!TraceDocument::new(4, vec![]).all_converged());
        let mut converged = r;
        converged.convergence = Some(crate::convergence::assess(&[
            EpochRecord {
                epoch: 0,
                quantization_error: 1.0,
                topographic_error: 0.0,
                sigma: 1.0,
                warm_hit_rate: None,
            },
            EpochRecord {
                epoch: 1,
                quantization_error: 0.99,
                topographic_error: 0.0,
                sigma: 1.0,
                warm_hit_rate: None,
            },
            EpochRecord {
                epoch: 2,
                quantization_error: 0.99,
                topographic_error: 0.0,
                sigma: 1.0,
                warm_hit_rate: None,
            },
            EpochRecord {
                epoch: 3,
                quantization_error: 0.99,
                topographic_error: 0.0,
                sigma: 1.0,
                warm_hit_rate: None,
            },
            EpochRecord {
                epoch: 4,
                quantization_error: 0.99,
                topographic_error: 0.0,
                sigma: 1.0,
                warm_hit_rate: None,
            },
            EpochRecord {
                epoch: 5,
                quantization_error: 0.99,
                topographic_error: 0.0,
                sigma: 1.0,
                warm_hit_rate: None,
            },
        ]));
        let doc = TraceDocument::new(
            4,
            vec![StudyTrace {
                label: "s1".into(),
                trace: converged,
            }],
        );
        assert!(
            doc.all_converged(),
            "{:?}",
            doc.studies[0].trace.convergence
        );
        let json = serde_json::to_string(&doc).unwrap();
        let back: TraceDocument = serde_json::from_str(&json).unwrap();
        assert_eq!(doc, back);
    }

    fn stamped_document() -> TraceDocument {
        TraceDocument::new(
            2,
            vec![StudyTrace {
                label: "synthetic".into(),
                trace: sample_report(),
            }],
        )
        .with_meta(crate::history::BenchMeta::capture())
        .with_live(crate::live::LiveSummary {
            addr: "127.0.0.1:9184".into(),
            requests: crate::live::LiveRequestCounts::default(),
            events_published: 3,
        })
    }

    /// Navigates into an object field of the shim's [`serde::Value`].
    fn field_mut<'v>(value: &'v mut serde::Value, name: &str) -> &'v mut serde::Value {
        match value {
            serde::Value::Object(fields) => {
                &mut fields
                    .iter_mut()
                    .find(|(k, _)| k == name)
                    .unwrap_or_else(|| panic!("field `{name}`"))
                    .1
            }
            _ => panic!("`{name}` parent is not an object"),
        }
    }

    fn item_mut(value: &mut serde::Value, index: usize) -> &mut serde::Value {
        match value {
            serde::Value::Array(items) => &mut items[index],
            _ => panic!("not an array"),
        }
    }

    fn drop_field(value: &mut serde::Value, name: &str) {
        match value {
            serde::Value::Object(fields) => fields.retain(|(k, _)| k != name),
            _ => panic!("not an object"),
        }
    }

    #[test]
    fn meta_and_live_stamps_round_trip_and_stay_optional() {
        let doc = stamped_document();
        let json = serde_json::to_string(&doc).unwrap();
        let back: TraceDocument = serde_json::from_str(&json).unwrap();
        assert_eq!(doc, back);
        // A v6-style document without the stamps still parses.
        let bare = serde_json::to_string(&TraceDocument::new(1, Vec::new())).unwrap();
        let mut value: serde::Value = serde_json::from_str(&bare).unwrap();
        drop_field(&mut value, "meta");
        drop_field(&mut value, "live");
        let back: TraceDocument =
            serde_json::from_str(&serde_json::to_string(&value).unwrap()).unwrap();
        assert_eq!(back.meta, None);
        assert_eq!(back.live, None);
    }

    #[test]
    fn validate_document_accepts_a_real_stamped_document() {
        let json = serde_json::to_string(&stamped_document()).unwrap();
        assert_eq!(validate_document(&json), Ok((1, 1)));
    }

    #[test]
    fn validate_document_rejects_shape_violations() {
        let doc = stamped_document();
        let json = serde_json::to_string(&doc).unwrap();
        let base: serde::Value = serde_json::from_str(&json).unwrap();
        let rendered = |v: &serde::Value| serde_json::to_string(v).unwrap();

        let mut missing_workers = base.clone();
        drop_field(&mut missing_workers, "workers");
        let err = validate_document(&rendered(&missing_workers)).unwrap_err();
        assert!(err.contains("workers"), "{err}");

        let mut future = base.clone();
        *field_mut(&mut future, "schema_version") =
            serde::Value::UInt(u64::from(SCHEMA_VERSION) + 1);
        let err = validate_document(&rendered(&future)).unwrap_err();
        assert!(err.contains("newer"), "{err}");

        let mut bad_rate = base.clone();
        let epoch = item_mut(
            field_mut(
                field_mut(item_mut(field_mut(&mut bad_rate, "studies"), 0), "trace"),
                "som_epochs",
            ),
            0,
        );
        *field_mut(epoch, "warm_hit_rate") = serde::Value::Float(1.5);
        let err = validate_document(&rendered(&bad_rate)).unwrap_err();
        assert!(err.contains("warm_hit_rate"), "{err}");

        let mut bad_memory = base.clone();
        let trace = field_mut(item_mut(field_mut(&mut bad_memory, "studies"), 0), "trace");
        *field_mut(trace, "memory") =
            serde::Value::Object(vec![("stages".to_owned(), serde::Value::Array(Vec::new()))]);
        let err = validate_document(&rendered(&bad_memory)).unwrap_err();
        assert!(err.contains("peak_rss_kb"), "{err}");

        let mut bad_meta = base.clone();
        *field_mut(field_mut(&mut bad_meta, "meta"), "git_rev") = serde::Value::UInt(42);
        let err = validate_document(&rendered(&bad_meta)).unwrap_err();
        assert!(err.contains("git_rev"), "{err}");

        let mut bad_live = base;
        drop_field(
            field_mut(field_mut(&mut bad_live, "live"), "requests"),
            "metrics",
        );
        let err = validate_document(&rendered(&bad_live)).unwrap_err();
        assert!(err.contains("metrics"), "{err}");
    }

    #[test]
    fn validate_document_tolerates_absent_optional_blocks() {
        // Null / absent warm_hit_rate, memory, meta, live all pass.
        let doc = TraceDocument::new(
            1,
            vec![StudyTrace {
                label: "s".into(),
                trace: sample_report(),
            }],
        );
        let json = serde_json::to_string(&doc).unwrap();
        assert_eq!(validate_document(&json), Ok((1, 1)));
    }
}
