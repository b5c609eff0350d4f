//! Per-worker timeline lanes: who computed which chunk, when.
//!
//! The span tree ([`crate::span`]) deliberately lives on the coordinating
//! thread, so it can say *that* a parallel stage took 12 ms but not how the
//! chunks were spread across workers, whether one straggler chunk serialized
//! the stage, or how much of the workers' wall time was actually busy. Lanes
//! close that gap: each scoped worker records one [`LaneInterval`] per chunk
//! it executes into a lock-free, pre-allocated [`LaneBuf`] (the timeline
//! sibling of [`crate::CounterBuf`]), the coordinator merges the intervals
//! in chunk order, and the trainer attaches the buffer to the collector once
//! per stage — so steady-state epochs stay allocation-free.
//!
//! Exported lane sets ([`LaneSetExport`]) carry derived analytics: per-worker
//! busy time and occupancy, and the stage's parallel efficiency
//! `busy / (workers × wall)`. Stamps have the clock's nanosecond
//! resolution, and an interval counts as at least one nanosecond, so a set
//! that recorded work always has positive busy and wall time, even when a
//! chunk's two stamps read the same tick. The *structure* of a lane set —
//! stage name, enclosing span, chunk count, run count, and the multiset of
//! chunk indices — is a pure function of the input, never of the worker
//! count or the clock, and is what [`crate::TraceReport::fingerprint`]
//! folds in.

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// A copy of one collector's origin clock, handed by value into parallel
/// sections so workers can stamp intervals without touching the collector
/// (no lock, no `Arc` traffic) on the hot path.
#[derive(Debug, Clone, Copy)]
pub struct LaneClock {
    origin: Instant,
}

impl LaneClock {
    pub(crate) fn new(origin: Instant) -> Self {
        LaneClock { origin }
    }

    /// Microseconds since the owning collector's origin, to the nanosecond.
    #[must_use]
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_nanos() as f64 / 1e3
    }
}

/// One chunk's execution interval on one worker's lane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaneInterval {
    /// Deterministic chunk index within the parallel section.
    pub chunk: u32,
    /// Worker lane (`0` is the calling thread on the serial path).
    pub worker: u32,
    /// Which run of the section this interval belongs to (a stage executed
    /// once per epoch produces one run per epoch).
    pub run: u32,
    /// Interval start, µs from the collector origin.
    pub begin_us: f64,
    /// Interval end, µs from the collector origin.
    pub end_us: f64,
}

impl LaneInterval {
    /// The interval's duration in microseconds, as stamped.
    #[must_use]
    pub fn duration_us(&self) -> f64 {
        (self.end_us - self.begin_us).max(0.0)
    }

    /// The interval in whole nanoseconds, at least one long: a chunk that
    /// ran took time even when both stamps read the same clock tick.
    fn ticks(&self) -> (u64, u64) {
        let ns = |us: f64| (us * 1e3).round() as u64;
        let begin = ns(self.begin_us);
        (begin, ns(self.end_us).max(begin + 1))
    }
}

/// A pre-allocated interval buffer for one stage: workers (or the serial
/// fallback) record into it lock-free, and the owner attaches it to the
/// collector once via [`crate::Collector::attach_lanes`].
///
/// Reserve the full capacity up front (`runs × chunks_per_run`) so
/// steady-state recording never reallocates — the zero-alloc training test
/// counts on it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneBuf {
    intervals: Vec<LaneInterval>,
    runs: u32,
}

impl LaneBuf {
    /// An empty buffer (allocates on first record; prefer
    /// [`LaneBuf::with_capacity`] around hot loops).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with room for `capacity` intervals.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        LaneBuf {
            intervals: Vec::with_capacity(capacity),
            runs: 0,
        }
    }

    /// Records one chunk interval in the current run.
    pub fn record(&mut self, chunk: usize, worker: usize, begin_us: f64, end_us: f64) {
        self.intervals.push(LaneInterval {
            chunk: u32::try_from(chunk).unwrap_or(u32::MAX),
            worker: u32::try_from(worker).unwrap_or(u32::MAX),
            run: self.runs,
            begin_us,
            end_us,
        });
    }

    /// Absorbs worker-local intervals from one parallel run, re-sorted into
    /// chunk order and re-tagged with the current run index. Coordinators
    /// call this once per section with the concatenation of every worker's
    /// local intervals.
    pub fn absorb_run(&mut self, mut intervals: Vec<LaneInterval>) {
        intervals.sort_unstable_by_key(|iv| iv.chunk);
        for iv in &intervals {
            self.record(
                iv.chunk as usize,
                iv.worker as usize,
                iv.begin_us,
                iv.end_us,
            );
        }
        self.end_run();
    }

    /// Closes the current run: subsequent records belong to the next run.
    pub fn end_run(&mut self) {
        self.runs += 1;
    }

    /// Completed runs.
    #[must_use]
    pub fn runs(&self) -> u32 {
        self.runs
    }

    /// All recorded intervals, in record order (chunk order within a run).
    #[must_use]
    pub fn intervals(&self) -> &[LaneInterval] {
        &self.intervals
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty() && self.runs == 0
    }
}

/// Internal record of one attached lane set.
#[derive(Debug, Clone)]
pub(crate) struct LaneSetRecord {
    pub(crate) stage: &'static str,
    pub(crate) span: Option<usize>,
    pub(crate) n_chunks: usize,
    pub(crate) buf: LaneBuf,
}

/// One worker's aggregate within a lane set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneWorkerExport {
    /// Worker lane id (`0` is the calling thread on the serial path).
    pub worker: u32,
    /// Intervals this worker executed.
    pub intervals: u64,
    /// Busy time on this lane, µs: the time its intervals cover.
    pub busy_us: f64,
    /// `busy_us / wall_us` — the share of the stage's wall time this lane
    /// spent computing.
    pub occupancy: f64,
}

/// One stage's exported lane set: the raw intervals plus derived
/// parallel-efficiency analytics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneSetExport {
    /// Stage name the lanes were recorded under.
    pub stage: String,
    /// Index of the span that was open when the lanes were attached.
    pub span: Option<usize>,
    /// Deterministic chunk count per run (`0..n_chunks` is partitioned
    /// exactly once per run).
    pub n_chunks: usize,
    /// Completed runs (one per epoch for per-epoch stages).
    pub runs: u32,
    /// Every recorded interval, chunk order within each run.
    pub intervals: Vec<LaneInterval>,
    /// Per-worker aggregates, ascending worker id.
    pub workers: Vec<LaneWorkerExport>,
    /// Summed wall time of the runs (max end − min begin per run), µs.
    pub wall_us: f64,
    /// Summed busy time across all lanes, µs.
    pub busy_us: f64,
    /// `busy / (workers × wall)` — 1.0 means every lane was busy for the
    /// stage's whole wall time.
    pub parallel_efficiency: f64,
}

impl LaneSetExport {
    /// The multiset of chunk indices as sorted `(chunk, count)` pairs — the
    /// worker-count- and clock-invariant projection of the lane set used by
    /// the trace fingerprint.
    #[must_use]
    pub fn chunk_multiset(&self) -> Vec<(u32, u64)> {
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        let mut sorted: Vec<u32> = self.intervals.iter().map(|iv| iv.chunk).collect();
        sorted.sort_unstable();
        for chunk in sorted {
            match pairs.last_mut() {
                Some((c, n)) if *c == chunk => *n += 1,
                _ => pairs.push((chunk, 1)),
            }
        }
        pairs
    }

    /// Fingerprint line for this lane set: structure only, no clocks, no
    /// worker attribution.
    #[must_use]
    pub fn structural_line(&self) -> String {
        format!(
            "lanes {} span={:?} n_chunks={} runs={} chunks={:?}",
            self.stage,
            self.span,
            self.n_chunks,
            self.runs,
            self.chunk_multiset()
        )
    }
}

pub(crate) fn export(record: &LaneSetRecord) -> LaneSetExport {
    let intervals = record.buf.intervals().to_vec();
    // Times are summed in whole nanoseconds, each interval at least one.
    // Wall time: sum over runs of (max end − min begin). Runs are separated
    // by coordinator work (e.g. the weight update between epochs) that the
    // stage's lanes should not be billed for. Busy time: per lane, the time
    // its intervals cover, so two intervals stamped in one tick count that
    // tick once and no lane is busier than the wall.
    let mut wall_ns = 0u64;
    let mut run: Option<(u32, u64, u64)> = None;
    // Per lane: (worker, intervals, busy ns, covered until).
    let mut lanes: Vec<(u32, u64, u64, u64)> = Vec::new();
    for iv in &intervals {
        let (begin, end) = iv.ticks();
        run = match run {
            Some((r, b, e)) if r == iv.run => Some((r, b.min(begin), e.max(end))),
            done => {
                wall_ns += done.map_or(0, |(_, b, e)| e - b);
                Some((iv.run, begin, end))
            }
        };
        let lane = match lanes.iter().position(|l| l.0 == iv.worker) {
            Some(i) => &mut lanes[i],
            None => {
                lanes.push((iv.worker, 0, 0, 0));
                let last = lanes.len() - 1;
                &mut lanes[last]
            }
        };
        lane.1 += 1;
        lane.2 += end.saturating_sub(begin.max(lane.3));
        lane.3 = lane.3.max(end);
    }
    wall_ns += run.map_or(0, |(_, b, e)| e - b);
    lanes.sort_unstable_by_key(|l| l.0);
    let busy_ns: u64 = lanes.iter().map(|l| l.2).sum();
    let us = |ns: u64| ns as f64 / 1e3;
    let workers: Vec<LaneWorkerExport> = lanes
        .iter()
        .map(|&(worker, intervals, busy, _)| LaneWorkerExport {
            worker,
            intervals,
            busy_us: us(busy),
            occupancy: ratio(busy, wall_ns),
        })
        .collect();
    let parallel_efficiency = ratio(busy_ns, wall_ns * workers.len() as u64);
    LaneSetExport {
        stage: record.stage.to_owned(),
        span: record.span,
        n_chunks: record.n_chunks,
        runs: record.buf.runs(),
        intervals,
        workers,
        wall_us: us(wall_ns),
        busy_us: us(busy_ns),
        parallel_efficiency,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_with(buf: LaneBuf) -> LaneSetRecord {
        LaneSetRecord {
            stage: "test.stage",
            span: Some(1),
            n_chunks: 3,
            buf,
        }
    }

    #[test]
    fn record_and_runs() {
        let mut buf = LaneBuf::with_capacity(6);
        buf.record(0, 0, 10.0, 20.0);
        buf.record(1, 0, 20.0, 30.0);
        buf.record(2, 0, 30.0, 45.0);
        buf.end_run();
        buf.record(0, 0, 50.0, 60.0);
        buf.end_run();
        assert_eq!(buf.runs(), 2);
        assert_eq!(buf.intervals().len(), 4);
        assert_eq!(buf.intervals()[3].run, 1);
        assert!(!buf.is_empty());
        assert!(LaneBuf::new().is_empty());
    }

    #[test]
    fn absorb_run_sorts_by_chunk_and_retags_run() {
        let mut buf = LaneBuf::new();
        buf.end_run(); // one prior (empty) run
        buf.absorb_run(vec![
            LaneInterval {
                chunk: 2,
                worker: 1,
                run: 0,
                begin_us: 7.0,
                end_us: 9.0,
            },
            LaneInterval {
                chunk: 0,
                worker: 2,
                run: 0,
                begin_us: 1.0,
                end_us: 5.0,
            },
        ]);
        let ivs = buf.intervals();
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].chunk, 0);
        assert_eq!(ivs[0].worker, 2);
        assert_eq!(ivs[0].run, 1);
        assert_eq!(ivs[1].chunk, 2);
        assert_eq!(buf.runs(), 2);
    }

    #[test]
    fn export_computes_occupancy_and_efficiency() {
        // Two workers over one run: worker 0 busy 10 of wall 20, worker 1
        // busy 20 of wall 20 -> efficiency (10+20)/(2*20) = 0.75.
        let mut buf = LaneBuf::with_capacity(3);
        buf.record(0, 1, 0.0, 20.0);
        buf.record(1, 0, 0.0, 5.0);
        buf.record(2, 0, 10.0, 15.0);
        buf.end_run();
        let e = export(&record_with(buf));
        assert_eq!(e.wall_us, 20.0);
        assert_eq!(e.busy_us, 30.0);
        assert_eq!(e.workers.len(), 2);
        assert_eq!(e.workers[0].worker, 0);
        assert_eq!(e.workers[0].busy_us, 10.0);
        assert!((e.workers[0].occupancy - 0.5).abs() < 1e-12);
        assert!((e.workers[1].occupancy - 1.0).abs() < 1e-12);
        assert!((e.parallel_efficiency - 0.75).abs() < 1e-12);
    }

    #[test]
    fn wall_time_sums_runs_not_gaps() {
        // Two runs of 10 us separated by a 1000 us gap: wall is 20, not 1020.
        let mut buf = LaneBuf::new();
        buf.record(0, 0, 0.0, 10.0);
        buf.end_run();
        buf.record(0, 0, 1010.0, 1020.0);
        buf.end_run();
        let e = export(&record_with(buf));
        assert_eq!(e.wall_us, 20.0);
        assert!((e.parallel_efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_set_inside_one_clock_tick_has_positive_busy_and_wall_time() {
        // Every stamp reads the same tick, as on a stage faster than the
        // clock: each chunk still counts one nanosecond of work, and the
        // two chunks lane 0 ran in that tick count it once.
        let mut buf = LaneBuf::new();
        buf.record(0, 0, 7.25, 7.25);
        buf.record(1, 0, 7.25, 7.25);
        buf.record(2, 1, 7.25, 7.25);
        buf.end_run();
        let e = export(&record_with(buf));
        assert_eq!((e.wall_us, e.busy_us), (1e-3, 2e-3));
        assert_eq!(e.parallel_efficiency, 1.0);
        assert!(e.workers.iter().all(|w| w.occupancy == 1.0), "{e:?}");
    }

    #[test]
    fn sub_microsecond_stamps_are_kept() {
        let mut buf = LaneBuf::new();
        buf.record(0, 0, 3.0, 3.5);
        buf.record(1, 1, 3.25, 3.75);
        buf.end_run();
        let e = export(&record_with(buf));
        assert!((e.wall_us - 0.75).abs() < 1e-12, "{e:?}");
        assert!((e.busy_us - 1.0).abs() < 1e-12, "{e:?}");
        assert!((e.parallel_efficiency - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn structural_line_ignores_workers_and_clocks() {
        let mut serial = LaneBuf::new();
        serial.record(0, 0, 0.0, 10.0);
        serial.record(1, 0, 10.0, 30.0);
        serial.end_run();
        let mut parallel = LaneBuf::new();
        parallel.record(0, 3, 500.0, 800.0);
        parallel.record(1, 7, 500.0, 900.0);
        parallel.end_run();
        let a = export(&record_with(serial));
        let b = export(&record_with(parallel));
        assert_eq!(a.structural_line(), b.structural_line());
        assert_eq!(a.chunk_multiset(), vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn structural_line_sees_chunk_set_changes() {
        let mut a = LaneBuf::new();
        a.record(0, 0, 0.0, 1.0);
        a.end_run();
        let mut b = LaneBuf::new();
        b.record(1, 0, 0.0, 1.0);
        b.end_run();
        assert_ne!(
            export(&record_with(a)).structural_line(),
            export(&record_with(b)).structural_line()
        );
    }

    #[test]
    fn empty_buf_exports_zeroes() {
        let e = export(&record_with(LaneBuf::new()));
        assert_eq!(e.wall_us, 0.0);
        assert_eq!(e.busy_us, 0.0);
        assert!(e.workers.is_empty());
        assert_eq!(e.parallel_efficiency, 0.0);
    }
}
