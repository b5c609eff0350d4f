//! `hiermeans-obs`: zero-dependency tracing, metrics, and convergence
//! telemetry for the hiermeans pipeline.
//!
//! The paper's methodology is a multi-stage statistical pipeline — workload
//! characterization → SOM → agglomerative clustering → hierarchical-mean
//! scoring — where silent mis-convergence produces plausible-but-wrong
//! single numbers. This crate makes every stage report what it is doing:
//!
//! * [`span`] — RAII stage spans with monotonic timing and nesting, forming
//!   the trace's stage tree.
//! * [`metrics`] — a closed registry of hot-path counters (BMU searches,
//!   distance evaluations, linkage merges, score-sweep cells) and
//!   fixed-bucket histograms (epoch durations, merge distances), with
//!   per-chunk [`CounterBuf`]s merged in chunk order so traces are
//!   reproducible across worker counts.
//! * [`convergence`] — per-epoch quantization/topographic-error records and
//!   the [`ConvergenceVerdict`] that flags an under-converged SOM.
//! * [`report`] — the stable `OBS_trace.json` schema ([`TraceReport`],
//!   [`report::TraceDocument`]) and a human-readable stage tree.
//!
//! # Zero cost when disabled
//!
//! Everything hangs off a [`Collector`] handle. The default
//! [`Collector::disabled`] holds no allocation; every method starts with a
//! branch on that `Option` and returns immediately, so instrumented code
//! pays one predictable branch per call and hot loops pay nothing (they
//! buffer into local [`CounterBuf`]s that are only flushed when enabled).
//!
//! # Example
//!
//! ```
//! use hiermeans_obs::{Collector, Counter};
//!
//! let collector = Collector::enabled();
//! {
//!     let _stage = collector.span("demo.stage");
//!     collector.add(Counter::DistanceEvaluations, 42);
//! }
//! let report = collector.report().unwrap();
//! assert_eq!(report.spans[0].name, "demo.stage");
//! assert_eq!(report.counter("distance_evaluations"), Some(42));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod chrome;
pub mod convergence;
pub mod dashboard;
pub mod hash;
pub mod history;
pub mod jsonl;
pub mod lanes;
pub mod memhook;
pub mod metrics;
pub mod progress;
pub mod prom;
pub mod report;
pub mod resilience;
pub mod span;
pub mod stages;

use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use convergence::{ConvergenceVerdict, EpochRecord};
pub use hash::{fnv1a64, fnv1a64_hex, Fnv1a64};
pub use jsonl::{JsonlScan, TornTail};
pub use lanes::{LaneBuf, LaneClock, LaneInterval, LaneSetExport, LaneWorkerExport};
pub use metrics::{Counter, CounterBuf, CounterExport, HistogramExport, HistogramId};
pub use progress::{ProgressEvent, ProgressLog, ProgressPublisher};
pub use report::{
    EventExport, MemoryReport, StageMemory, StudyTrace, TraceDocument, TraceReport, SCHEMA_VERSION,
};
pub use resilience::ResilienceEvent;
pub use span::{SpanExport, SpanGuard};

use lanes::LaneSetRecord;
use metrics::Histogram;
use span::SpanRecord;

/// Tuning knobs for an enabled collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record SOM epoch quality (QE/TE) every this many epochs; `0` turns
    /// per-epoch quality telemetry off while keeping spans and counters.
    /// Quality telemetry costs one extra BMU pass per sampled epoch, so the
    /// near-zero-overhead configurations use `0` and convergence auditing
    /// uses `1`.
    pub epoch_quality_stride: usize,
    /// Record per-worker chunk timelines ([`LaneBuf`]) in the parallel hot
    /// paths. On by default: lane recording is two clock reads and one push
    /// into a pre-allocated buffer per chunk, within noise of off (see the
    /// `obs_overhead` bench).
    pub lanes: bool,
    /// Record memory telemetry: per-span allocation stats via
    /// [`memhook`] (when the hosting binary installed the tracking
    /// allocator) and process peak-RSS sampling. Off by default — with it
    /// off the collector touches no allocator state at all, so traces and
    /// pipeline outputs are bitwise identical to a memory-unaware build.
    /// The `repro` subcommands turn it on.
    pub memory: bool,
    /// Write progress events (finished epochs, streamed strips, ingest
    /// totals) to the [`ProgressPublisher`] attached via
    /// [`Collector::enabled_live`], which sets this flag. Off by default;
    /// without an attached publisher it does nothing. Publishing never
    /// writes into the recorded trace state: progress on or off leaves
    /// every output bitwise identical.
    pub live: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            epoch_quality_stride: 1,
            lanes: true,
            memory: false,
            live: false,
        }
    }
}

/// One recorded point event (e.g. a diagnostic formerly printed to stdout).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EventRecord {
    pub(crate) name: &'static str,
    pub(crate) detail: String,
    pub(crate) span: Option<usize>,
    pub(crate) at_us: u64,
}

#[derive(Debug)]
pub(crate) struct State {
    pub(crate) spans: Vec<SpanRecord>,
    pub(crate) open: Vec<usize>,
    pub(crate) counters: [u64; Counter::ALL.len()],
    pub(crate) histograms: Vec<Histogram>,
    pub(crate) epochs: Vec<EpochRecord>,
    pub(crate) merge_distances: Vec<f64>,
    pub(crate) verdict: Option<ConvergenceVerdict>,
    pub(crate) events: Vec<EventRecord>,
    pub(crate) resilience: Vec<ResilienceEvent>,
    pub(crate) lane_sets: Vec<LaneSetRecord>,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    config: ObsConfig,
    /// Whether the tracking allocator is installed AND `config.memory` is
    /// set — i.e. per-span allocation attribution is actually available.
    hooked: bool,
    /// Progress sink; only consulted when `config.live` is set.
    live: Option<ProgressPublisher>,
    state: Mutex<State>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        if self.config.memory {
            memhook::rss_sampler_release();
            memhook::tracking_release();
        }
    }
}

/// A shared handle to one trace in progress.
///
/// Clones share the same trace; the disabled handle (the [`Default`]) is a
/// no-op on every method. The collector is thread-aware: any thread may add
/// counters or open spans, but the intended pattern is that stage spans
/// live on the coordinating thread while scoped workers fill per-chunk
/// [`CounterBuf`]s that the coordinator merges in chunk order — which keeps
/// the exported trace identical for any worker count.
#[derive(Debug, Clone, Default)]
pub struct Collector(Option<Arc<Inner>>);

impl PartialEq for Collector {
    /// Handles compare equal when they share a trace (or are both
    /// disabled) — the semantics configuration equality wants.
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Slowest chunk over mean chunk duration for one run; `1.0` when all
/// durations are zero (nothing measurable, so nothing imbalanced).
fn imbalance(max: f64, sum: f64, count: u64) -> f64 {
    if sum == 0.0 {
        1.0
    } else {
        max * count as f64 / sum
    }
}

impl Collector {
    /// The no-op collector: no allocation, every method returns immediately.
    #[must_use]
    pub fn disabled() -> Self {
        Collector(None)
    }

    /// A live collector with the default [`ObsConfig`].
    #[must_use]
    pub fn enabled() -> Self {
        Self::enabled_with(ObsConfig::default())
    }

    /// A live collector with explicit tuning.
    #[must_use]
    pub fn enabled_with(config: ObsConfig) -> Self {
        Self::construct(config, None)
    }

    /// A live collector whose `live_*` hooks append [`ProgressEvent`]s to
    /// a [`ProgressLog`] through `publisher`: one line per finished epoch,
    /// per streamed strip and per ingest batch, written when it happens.
    /// Publishing never touches the recorded trace state, so outputs stay
    /// bitwise identical to a publisher-less collector.
    #[must_use]
    pub fn enabled_live(config: ObsConfig, publisher: ProgressPublisher) -> Self {
        Self::construct(
            ObsConfig {
                live: true,
                ..config
            },
            Some(publisher),
        )
    }

    fn construct(config: ObsConfig, live: Option<ProgressPublisher>) -> Self {
        let hooked = if config.memory {
            memhook::rss_sampler_acquire();
            // Registers this collector for worker-tally accounting; the
            // matching releases happen in `Drop for Inner`.
            memhook::tracking_activate()
        } else {
            false
        };
        Collector(Some(Arc::new(Inner {
            origin: Instant::now(),
            config,
            hooked,
            live,
            state: Mutex::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                counters: [0; Counter::ALL.len()],
                histograms: HistogramId::ALL
                    .iter()
                    .map(|&id| Histogram::new(id))
                    .collect(),
                epochs: Vec::new(),
                merge_distances: Vec::new(),
                verdict: None,
                events: Vec::new(),
                resilience: Vec::new(),
                lane_sets: Vec::new(),
            }),
        })))
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The SOM epoch-quality sampling stride: `0` when disabled or when
    /// quality telemetry is turned off, otherwise the configured stride.
    #[must_use]
    pub fn epoch_quality_stride(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |inner| inner.config.epoch_quality_stride)
    }

    fn elapsed_us(inner: &Inner) -> u64 {
        u64::try_from(inner.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name`, nested under the innermost open span.
    /// The span closes (and its duration is stamped) when the guard drops.
    /// With memory telemetry hooked, the guard also opens a
    /// [`memhook::ThreadScope`] so allocations on the coordinating thread
    /// (plus parallel worker tallies) are attributed to this span.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let index = self.0.as_ref().map(|inner| {
            let start_us = Self::elapsed_us(inner);
            let mut state = inner.state.lock().expect("obs state poisoned");
            let index = state.spans.len();
            let parent = state.open.last().copied();
            state.spans.push(SpanRecord {
                name,
                parent,
                start_us,
                duration_us: 0,
                closed: false,
                mem: None,
            });
            state.open.push(index);
            index
        });
        // The scope opens AFTER the span record is pushed, so the trace's
        // own bookkeeping allocation charges the parent, not this span.
        let mem = self
            .0
            .as_ref()
            .and_then(|inner| inner.hooked.then(memhook::ThreadScope::open));
        SpanGuard {
            collector: self.clone(),
            index,
            mem,
        }
    }

    pub(crate) fn end_span(&self, index: usize, mem: Option<memhook::MemStats>) {
        if let Some(inner) = self.0.as_ref() {
            let now_us = Self::elapsed_us(inner);
            let mut state = inner.state.lock().expect("obs state poisoned");
            state.open.retain(|&i| i != index);
            if let Some(record) = state.spans.get_mut(index) {
                record.duration_us = now_us.saturating_sub(record.start_us);
                record.closed = true;
                record.mem = mem;
            }
        }
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = self.0.as_ref() {
            let mut state = inner.state.lock().expect("obs state poisoned");
            state.counters[counter as usize] += n;
        }
    }

    /// Merges a per-chunk counter buffer into the trace. Callers merge
    /// chunk buffers in chunk order and flush once per parallel section.
    pub fn flush(&self, buf: &CounterBuf) {
        if let Some(inner) = self.0.as_ref() {
            let mut state = inner.state.lock().expect("obs state poisoned");
            for (acc, v) in state.counters.iter_mut().zip(buf.counts().iter()) {
                *acc += v;
            }
        }
    }

    /// Records one observation into a fixed-bucket histogram.
    pub fn record(&self, id: HistogramId, value: f64) {
        if let Some(inner) = self.0.as_ref() {
            let mut state = inner.state.lock().expect("obs state poisoned");
            state.histograms[id as usize].record(value);
        }
    }

    /// A copy of this collector's origin clock for stamping worker-lane
    /// intervals, or `None` when the collector is disabled or lane
    /// recording is configured off — so instrumented hot paths pay zero
    /// clock reads unless lanes are actually wanted.
    #[must_use]
    pub fn lane_clock(&self) -> Option<LaneClock> {
        self.0
            .as_ref()
            .and_then(|inner| inner.config.lanes.then(|| LaneClock::new(inner.origin)))
    }

    /// Attaches one stage's recorded worker lanes under the innermost open
    /// span, feeding the chunk-duration and per-run imbalance histograms.
    /// Callers accumulate a [`LaneBuf`] across a stage's runs (e.g. all
    /// training epochs) and attach once — a single clone of the interval
    /// buffer, keeping steady-state loops allocation-free.
    pub fn attach_lanes(&self, stage: &'static str, n_chunks: usize, buf: &LaneBuf) {
        if let Some(inner) = self.0.as_ref() {
            if !inner.config.lanes {
                return;
            }
            let mut state = inner.state.lock().expect("obs state poisoned");
            let span = state.open.last().copied();
            // Chunk-duration observations plus one imbalance ratio
            // (max/mean duration) per run.
            let mut run = u32::MAX;
            let (mut run_max, mut run_sum, mut run_count) = (0.0f64, 0.0f64, 0u64);
            for iv in buf.intervals() {
                let duration = iv.duration_us();
                state.histograms[HistogramId::ChunkDurationMicros as usize].record(duration);
                if iv.run != run {
                    if run_count > 0 {
                        state.histograms[HistogramId::ChunkImbalance as usize]
                            .record(imbalance(run_max, run_sum, run_count));
                    }
                    run = iv.run;
                    (run_max, run_sum, run_count) = (duration, duration, 1);
                } else {
                    run_max = run_max.max(duration);
                    run_sum += duration;
                    run_count += 1;
                }
            }
            if run_count > 0 {
                state.histograms[HistogramId::ChunkImbalance as usize]
                    .record(imbalance(run_max, run_sum, run_count));
            }
            state.lane_sets.push(LaneSetRecord {
                stage,
                span,
                n_chunks,
                buf: buf.clone(),
            });
        }
    }

    /// Records one training run's sampled SOM epoch quality telemetry, in
    /// epoch order. Trainers hand over a run's records once, when it ends.
    pub fn record_epochs(&self, records: &[EpochRecord]) {
        if let Some(inner) = self.0.as_ref() {
            let mut state = inner.state.lock().expect("obs state poisoned");
            state.epochs.extend_from_slice(records);
        }
    }

    /// The attached progress publisher, when this collector both carries
    /// one and has `config.live` set.
    fn live_publisher(&self) -> Option<&ProgressPublisher> {
        self.0
            .as_ref()
            .filter(|inner| inner.config.live)
            .and_then(|inner| inner.live.as_ref())
    }

    /// Appends one finished training epoch to the attached progress log
    /// (quality values only on sampled epochs). No-op without one.
    pub fn live_epoch(
        &self,
        epoch: usize,
        total_epochs: usize,
        quantization_error: Option<f64>,
        epoch_duration_us: u64,
    ) {
        if let Some(publisher) = self.live_publisher() {
            publisher.publish_epoch(epoch, total_epochs, quantization_error, epoch_duration_us);
        }
    }

    /// Appends one out-of-core streaming strip advance to the attached
    /// progress log. No-op without one.
    pub fn live_strip(&self, epoch: usize, strip: usize, total_strips: usize) {
        if let Some(publisher) = self.live_publisher() {
            publisher.publish_strip(epoch, strip, total_strips);
        }
    }

    /// Appends store-ingestion outcome deltas (accepted, rejected) to the
    /// attached progress log, which accumulates the running totals. No-op
    /// without one.
    pub fn live_ingest(&self, accepted_delta: u64, rejected_delta: u64) {
        if let Some(publisher) = self.live_publisher() {
            publisher.publish_ingest(accepted_delta, rejected_delta);
        }
    }

    /// Records one agglomerative merge: appends the merge-distance
    /// trajectory, feeds the merge-distance histogram, and bumps
    /// [`Counter::LinkageMerges`].
    pub fn record_merge(&self, distance: f64) {
        if let Some(inner) = self.0.as_ref() {
            let mut state = inner.state.lock().expect("obs state poisoned");
            state.merge_distances.push(distance);
            state.histograms[HistogramId::MergeDistance as usize].record(distance);
            state.counters[Counter::LinkageMerges as usize] += 1;
        }
    }

    /// Records a point event under the innermost open span — the structured
    /// replacement for ad-hoc stdout diagnostics in library crates.
    pub fn event(&self, name: &'static str, detail: impl Into<String>) {
        if let Some(inner) = self.0.as_ref() {
            let at_us = Self::elapsed_us(inner);
            let mut state = inner.state.lock().expect("obs state poisoned");
            let span = state.open.last().copied();
            let detail = detail.into();
            state.events.push(EventRecord {
                name,
                detail,
                span,
                at_us,
            });
        }
    }

    /// Records one self-healing event (retry, degradation, injected fault)
    /// into the trace's `resilience` field.
    pub fn record_resilience(&self, event: ResilienceEvent) {
        if let Some(inner) = self.0.as_ref() {
            let mut state = inner.state.lock().expect("obs state poisoned");
            state.resilience.push(event);
        }
    }

    /// The self-healing events recorded so far (empty when disabled).
    #[must_use]
    pub fn resilience_events(&self) -> Vec<ResilienceEvent> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            inner
                .state
                .lock()
                .expect("obs state poisoned")
                .resilience
                .clone()
        })
    }

    /// Stores the training run's convergence verdict (last write wins).
    pub fn set_verdict(&self, verdict: ConvergenceVerdict) {
        if let Some(inner) = self.0.as_ref() {
            let mut state = inner.state.lock().expect("obs state poisoned");
            state.verdict = Some(verdict);
        }
    }

    /// Whether memory telemetry was requested for this collector.
    #[must_use]
    pub fn memory_enabled(&self) -> bool {
        self.0.as_ref().is_some_and(|inner| inner.config.memory)
    }

    /// Exports the trace recorded so far; `None` for a disabled collector.
    #[must_use]
    pub fn report(&self) -> Option<TraceReport> {
        self.0.as_ref().map(|inner| {
            let state = inner.state.lock().expect("obs state poisoned");
            let peak_rss_kb = inner
                .config
                .memory
                .then(|| memhook::peak_rss_kb().unwrap_or(0));
            report::export(&state, peak_rss_kb)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_is_inert() {
        let c = Collector::disabled();
        assert!(!c.is_enabled());
        assert_eq!(c.epoch_quality_stride(), 0);
        {
            let _g = c.span("nothing");
            c.add(Counter::BmuSearches, 1);
            c.record(HistogramId::MergeDistance, 1.0);
            c.record_merge(2.0);
            c.event("e", "detail");
        }
        assert!(c.report().is_none());
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let c = Collector::enabled();
        {
            let _outer = c.span("outer");
            {
                let _inner = c.span("inner");
            }
            let _sibling = c.span("sibling");
        }
        let r = c.report().unwrap();
        assert_eq!(r.spans.len(), 3);
        assert_eq!(r.spans[0].name, "outer");
        assert_eq!(r.spans[0].parent, None);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[2].parent, Some(0));
    }

    #[test]
    fn clones_share_the_trace() {
        let c = Collector::enabled();
        let d = c.clone();
        d.add(Counter::LinkageMerges, 3);
        assert_eq!(c.report().unwrap().counter("linkage_merges"), Some(3));
        assert_eq!(c, d);
        assert_ne!(c, Collector::enabled());
        assert_eq!(Collector::disabled(), Collector::disabled());
    }

    #[test]
    fn flush_merges_chunk_buffers() {
        let c = Collector::enabled();
        let mut chunk0 = CounterBuf::new();
        chunk0.add(Counter::DistanceEvaluations, 10);
        let mut chunk1 = CounterBuf::new();
        chunk1.add(Counter::DistanceEvaluations, 32);
        let mut merged = CounterBuf::new();
        merged.merge(&chunk0);
        merged.merge(&chunk1);
        c.flush(&merged);
        assert_eq!(
            c.report().unwrap().counter("distance_evaluations"),
            Some(42)
        );
    }

    #[test]
    fn merge_trajectory_and_histogram_agree() {
        let c = Collector::enabled();
        for d in [0.1, 0.4, 2.0] {
            c.record_merge(d);
        }
        let r = c.report().unwrap();
        assert_eq!(r.merge_distances, vec![0.1, 0.4, 2.0]);
        assert_eq!(r.counter("linkage_merges"), Some(3));
        let h = r.histogram("merge_distance").unwrap();
        assert_eq!(h.total, 3);
    }

    #[test]
    fn stride_zero_disables_quality_sampling() {
        let c = Collector::enabled_with(ObsConfig {
            epoch_quality_stride: 0,
            ..ObsConfig::default()
        });
        assert!(c.is_enabled());
        assert_eq!(c.epoch_quality_stride(), 0);
        assert_eq!(Collector::enabled().epoch_quality_stride(), 1);
    }

    #[test]
    fn lane_clock_respects_config_and_enablement() {
        assert!(Collector::disabled().lane_clock().is_none());
        assert!(Collector::enabled().lane_clock().is_some());
        let off = Collector::enabled_with(ObsConfig {
            lanes: false,
            ..ObsConfig::default()
        });
        assert!(off.lane_clock().is_none());
        // Attaching to a lanes-off collector records nothing.
        let mut buf = LaneBuf::new();
        buf.record(0, 0, 0.0, 5.0);
        buf.end_run();
        off.attach_lanes("stage", 1, &buf);
        assert!(off.report().unwrap().lanes.is_empty());
    }

    #[test]
    fn attach_lanes_records_under_open_span_and_feeds_histograms() {
        let c = Collector::enabled();
        {
            let _root = c.span("root");
            let _inner = c.span("inner");
            let mut buf = LaneBuf::with_capacity(4);
            // Run 0: durations 10 and 30 (imbalance 1.5); run 1: one chunk.
            buf.record(0, 0, 0.0, 10.0);
            buf.record(1, 1, 0.0, 30.0);
            buf.end_run();
            buf.record(0, 0, 40.0, 50.0);
            buf.end_run();
            c.attach_lanes("stage.lanes", 2, &buf);
        }
        let r = c.report().unwrap();
        assert_eq!(r.lanes.len(), 1);
        let lane = r.lane("stage.lanes").unwrap();
        assert_eq!(lane.span, Some(1));
        assert_eq!(lane.n_chunks, 2);
        assert_eq!(lane.runs, 2);
        assert_eq!(lane.intervals.len(), 3);
        let chunk = r.histogram("chunk_duration_us").unwrap();
        assert_eq!(chunk.total, 3);
        assert_eq!(chunk.sum, 50.0);
        let imbalance = r.histogram("chunk_imbalance").unwrap();
        assert_eq!(imbalance.total, 2);
        assert!((imbalance.max - 1.5).abs() < 1e-12);
        assert!((imbalance.min - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lane_clock_is_monotonic() {
        let c = Collector::enabled();
        let clock = c.lane_clock().unwrap();
        let a = clock.now_us();
        let b = clock.now_us();
        assert!(b >= a);
    }
}
