//! The benchmark's own span recorder.
//!
//! A traced iteration is a root `iteration` span whose children are the
//! benchmark's calls into each layer. Calls that accept a
//! [`Collector`] get a fresh one per call, and the program's own
//! `stages::*` spans and counters from it are grafted under the calling
//! span, so one tree covers both sides of each layer boundary.

use std::collections::BTreeMap;
use std::time::Instant;

use hiermeans_obs::{Collector, ObsConfig};
use serde::Serialize;

/// Name of the span enclosing one traced iteration.
const ROOT: &str = "iteration";

/// One closed span.
#[derive(Debug, Clone, Serialize)]
pub struct SpanRecord {
    /// Index of this span in the run's span list.
    pub id: usize,
    /// Layer or stage name.
    pub name: String,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Workload the span belongs to.
    pub workload: String,
    /// Traced iteration the span belongs to.
    pub iteration: usize,
}

/// What one traced iteration recorded.
#[derive(Debug, Default)]
pub struct IterationTrace {
    /// Wall time of the root span, in seconds.
    pub wall_s: f64,
    inclusive_s: BTreeMap<String, f64>,
    root_self_s: f64,
    counters: BTreeMap<String, u64>,
    stage_peak_bytes: BTreeMap<String, u64>,
    tallies: BTreeMap<&'static str, f64>,
}

impl IterationTrace {
    /// Summed duration of every span named `name`, in seconds.
    pub fn inclusive(&self, name: &str) -> f64 {
        self.inclusive_s.get(name).copied().unwrap_or(0.0)
    }

    /// A program counter summed over the iteration's layer calls.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Largest coordinating-thread heap peak the program attributed to a
    /// stage span named `name`, in bytes.
    pub fn stage_peak(&self, name: &str) -> u64 {
        self.stage_peak_bytes.get(name).copied().unwrap_or(0)
    }

    /// A quantity the workload tallied itself (rows, bytes, seconds).
    pub fn tally(&self, name: &str) -> f64 {
        self.tallies.get(name).copied().unwrap_or(0.0)
    }

    /// Share of the root span's wall time covered by layer spans.
    pub fn coverage(&self) -> f64 {
        if self.wall_s > 0.0 {
            1.0 - self.root_self_s / self.wall_s
        } else {
            0.0
        }
    }
}

/// Records spans for a run's traced iterations.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: String,
    iteration: usize,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    first_of_iteration: usize,
    counters: BTreeMap<String, u64>,
    stage_peak_bytes: BTreeMap<String, u64>,
    tallies: BTreeMap<&'static str, f64>,
    /// Held open for the whole traced iteration so the program's RSS
    /// sampler thread starts once per iteration, not once per layer call.
    anchor: Option<Collector>,
}

/// The collector configuration of every traced layer call.
const OBS: ObsConfig = ObsConfig {
    epoch_quality_stride: 0,
    lanes: false,
    memory: true,
    live: false,
};

impl Tracer {
    /// A tracer for `workload`'s traced iterations.
    pub fn new(workload: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_owned(),
            iteration: 0,
            spans: Vec::new(),
            open: Vec::new(),
            first_of_iteration: 0,
            counters: BTreeMap::new(),
            stage_peak_bytes: BTreeMap::new(),
            tallies: BTreeMap::new(),
            anchor: None,
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn open_span(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(SpanRecord {
            id,
            name: name.to_owned(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
            iteration: self.iteration,
        });
        self.open.push(id);
        id
    }

    fn close_span(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in reverse open order");
        self.spans[id].end_us = self.now_us();
    }

    /// Opens the root span of traced iteration `iteration`.
    pub fn begin_iteration(&mut self, iteration: usize) {
        assert!(self.open.is_empty(), "previous iteration still open");
        self.iteration = iteration;
        self.first_of_iteration = self.spans.len();
        self.counters.clear();
        self.stage_peak_bytes.clear();
        self.tallies.clear();
        self.anchor = Some(Collector::enabled_with(OBS));
        self.open_span(ROOT);
    }

    /// Closes the root span and summarizes the iteration.
    pub fn end_iteration(&mut self) -> IterationTrace {
        let root = self.first_of_iteration;
        self.close_span(root);
        self.anchor = None;
        let spans = &self.spans[root..];
        let mut inclusive_s = BTreeMap::new();
        for s in spans {
            *inclusive_s.entry(s.name.clone()).or_insert(0.0) += (s.end_us - s.start_us) / 1e6;
        }
        let children: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| (s.start_us, s.end_us))
            .collect();
        let (start, end) = (spans[0].start_us, spans[0].end_us);
        IterationTrace {
            wall_s: (end - start) / 1e6,
            inclusive_s,
            root_self_s: ((end - start) - covered(start, end, children)) / 1e6,
            counters: std::mem::take(&mut self.counters),
            stage_peak_bytes: std::mem::take(&mut self.stage_peak_bytes),
            tallies: std::mem::take(&mut self.tallies),
        }
    }
}

/// Where a workload sends its calls into each layer: straight through
/// ([`Untraced`]) or under spans of a [`Tracer`]. Writing a workload's
/// iteration once against this trait keeps its traced and untraced runs
/// the same sequence of calls.
pub trait Layers {
    /// Whether spans and tallies are recorded.
    const TRACED: bool;

    /// Times `f` as a span named `name`.
    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T;

    /// Times `f` as a span named `name`, handing it the collector the
    /// program should record into.
    fn layer<T>(&mut self, name: &str, f: impl FnOnce(&Collector) -> T) -> T;

    /// Adds `value` to the workload-side tally `name`.
    fn tally(&mut self, name: &'static str, value: f64);
}

/// Calls every layer directly, with a disabled collector.
#[derive(Debug)]
pub struct Untraced;

impl Layers for Untraced {
    const TRACED: bool = false;

    fn span<T>(&mut self, _name: &str, f: impl FnOnce() -> T) -> T {
        f()
    }

    fn layer<T>(&mut self, _name: &str, f: impl FnOnce(&Collector) -> T) -> T {
        f(&Collector::disabled())
    }

    fn tally(&mut self, _name: &'static str, _value: f64) {}
}

impl Layers for Tracer {
    const TRACED: bool = true;

    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open_span(name);
        let out = f();
        self.close_span(id);
        out
    }

    /// Hands `f` a fresh enabled collector; the program's spans, counters
    /// and per-stage heap peaks from it are grafted under the span.
    fn layer<T>(&mut self, name: &str, f: impl FnOnce(&Collector) -> T) -> T {
        let id = self.open_span(name);
        let base_us = self.now_us();
        let collector = Collector::enabled_with(OBS);
        let out = f(&collector);
        self.close_span(id);
        let end_us = self.spans[id].end_us;
        let Some(report) = collector.report() else {
            return out;
        };
        let offset = self.spans.len();
        for s in &report.spans {
            let start_us = (base_us + s.start_us as f64).min(end_us);
            self.spans.push(SpanRecord {
                id: offset + s.id,
                name: s.name.clone(),
                start_us,
                end_us: (start_us + s.duration_us as f64).min(end_us),
                parent: Some(s.parent.map_or(id, |p| offset + p)),
                workload: self.workload.clone(),
                iteration: self.iteration,
            });
        }
        for c in &report.counters {
            *self.counters.entry(c.name.clone()).or_insert(0) += c.value;
        }
        for stage in report.memory.iter().flat_map(|m| &m.stages) {
            let peak = self
                .stage_peak_bytes
                .entry(stage.stage.clone())
                .or_insert(0);
            *peak = (*peak).max(stage.peak_bytes);
        }
        out
    }

    fn tally(&mut self, name: &'static str, value: f64) {
        *self.tallies.entry(name).or_insert(0.0) += value;
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered(start: f64, end: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(
            covered(0.0, 10.0, vec![(1.0, 3.0), (2.0, 4.0), (6.0, 12.0)]),
            7.0
        );
        assert_eq!(covered(0.0, 10.0, vec![]), 0.0);
    }

    #[test]
    fn layer_spans_cover_the_iteration_and_graft_program_spans() {
        let mut tracer = Tracer::new("unit");
        tracer.begin_iteration(0);
        tracer.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tracer.layer("b", |c| {
            let _s = c.span("program.stage");
            c.add(hiermeans_obs::Counter::LinkageMerges, 3);
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        tracer.tally("rows", 2.0);
        let it = tracer.end_iteration();
        assert!(it.coverage() > 0.9, "coverage {}", it.coverage());
        assert!(it.inclusive("program.stage") > 0.004);
        assert!(it.inclusive("program.stage") <= it.inclusive("b"));
        assert_eq!(it.counter("linkage_merges"), 3);
        assert_eq!(it.tally("rows"), 2.0);
        let graft = tracer
            .spans()
            .iter()
            .find(|s| s.name == "program.stage")
            .unwrap();
        let layer = tracer.spans().iter().find(|s| s.name == "b").unwrap();
        assert_eq!(graft.parent, Some(layer.id));
        assert_eq!(layer.parent, Some(0));
    }
}
