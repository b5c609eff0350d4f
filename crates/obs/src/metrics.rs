//! The metrics registry: named counters on the pipeline hot paths and
//! fixed-bucket histograms.
//!
//! Counters form a closed set ([`Counter`]) so instrumented code pays an
//! array index, never a hash lookup, and every export is schema-stable.
//! Histogram buckets are fixed at compile time for the same reason: two
//! traces of the same study always have comparable bucket vectors.
//!
//! Hot loops should not touch the shared [`crate::Collector`] per item.
//! Instead they accumulate into a local [`CounterBuf`] — one per work chunk
//! of `hiermeans_linalg::parallel` — and the coordinating thread merges the
//! per-chunk buffers *in chunk order* before flushing once. Counter sums are
//! commutative, so totals are identical for any worker count; keeping the
//! merge in chunk order makes the whole trace, not just the totals,
//! reproducible run-to-run.

use serde::{Deserialize, Serialize};

/// The closed set of hot-path counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Best-matching-unit searches (one per sample per search pass).
    BmuSearches,
    /// Point-to-point distance evaluations inside BMU searches and pairwise
    /// distance matrices.
    DistanceEvaluations,
    /// Neighborhood-kernel evaluations during SOM training: online, the
    /// units inside each step's support radius; batch, `units²` per epoch
    /// (every unit pair of the smoothing pass, evaluated or skipped).
    KernelEvaluations,
    /// SOM training epochs completed.
    SomEpochs,
    /// Agglomerative linkage merges performed.
    LinkageMerges,
    /// Score-table sweep cells computed (one per `k` per machine).
    ScoreSweepCells,
    /// Workloads assembled into characteristic vectors.
    WorkloadsCharacterized,
    /// Raw features dropped by the characterization filters.
    FeaturesDropped,
    /// Distinct rows (occupied cells) the agglomerative linkage ran over.
    ClusterCells,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 9] = [
        Counter::BmuSearches,
        Counter::DistanceEvaluations,
        Counter::KernelEvaluations,
        Counter::SomEpochs,
        Counter::LinkageMerges,
        Counter::ScoreSweepCells,
        Counter::WorkloadsCharacterized,
        Counter::FeaturesDropped,
        Counter::ClusterCells,
    ];

    /// Stable snake_case name used in `OBS_trace.json`.
    pub fn name(self) -> &'static str {
        match self {
            Counter::BmuSearches => "bmu_searches",
            Counter::DistanceEvaluations => "distance_evaluations",
            Counter::KernelEvaluations => "kernel_evaluations",
            Counter::SomEpochs => "som_epochs",
            Counter::LinkageMerges => "linkage_merges",
            Counter::ScoreSweepCells => "score_sweep_cells",
            Counter::WorkloadsCharacterized => "workloads_characterized",
            Counter::FeaturesDropped => "features_dropped",
            Counter::ClusterCells => "cluster_cells",
        }
    }
}

/// A local counter buffer for one unit of work (typically one parallel
/// chunk). Cheap to create, free of locks; merge buffers in chunk order and
/// flush the result through [`crate::Collector::flush`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterBuf {
    counts: [u64; Counter::ALL.len()],
}

impl CounterBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to `counter`.
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.counts[counter as usize] += n;
    }

    /// The buffered value of `counter`.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize]
    }

    /// Merges another buffer into this one (callers merge in chunk order).
    pub fn merge(&mut self, other: &CounterBuf) {
        for (acc, v) in self.counts.iter_mut().zip(other.counts.iter()) {
            *acc += v;
        }
    }

    pub(crate) fn counts(&self) -> &[u64; Counter::ALL.len()] {
        &self.counts
    }
}

/// The closed set of fixed-bucket histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistogramId {
    /// Wall-clock duration of one SOM training epoch, in microseconds.
    EpochDurationMicros,
    /// Dendrogram merge distances, in map-coordinate units.
    MergeDistance,
    /// Wall-clock duration of one parallel-section chunk (lane interval),
    /// in microseconds.
    ChunkDurationMicros,
    /// Per-run chunk-duration imbalance: the slowest chunk's duration over
    /// the run's mean chunk duration (1.0 = perfectly balanced).
    ChunkImbalance,
}

impl HistogramId {
    /// Every histogram, in export order.
    pub const ALL: [HistogramId; 4] = [
        HistogramId::EpochDurationMicros,
        HistogramId::MergeDistance,
        HistogramId::ChunkDurationMicros,
        HistogramId::ChunkImbalance,
    ];

    /// Stable snake_case name used in `OBS_trace.json`.
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::EpochDurationMicros => "epoch_duration_us",
            HistogramId::MergeDistance => "merge_distance",
            HistogramId::ChunkDurationMicros => "chunk_duration_us",
            HistogramId::ChunkImbalance => "chunk_imbalance",
        }
    }

    /// Whether the recorded values are wall-clock timings (or derived from
    /// them, like the chunk imbalance ratio). Timing histograms are excluded
    /// from [`crate::report::TraceReport::fingerprint`], since durations
    /// legitimately differ between serial and parallel runs of the same
    /// computation.
    pub fn is_timing(self) -> bool {
        matches!(
            self,
            HistogramId::EpochDurationMicros
                | HistogramId::ChunkDurationMicros
                | HistogramId::ChunkImbalance
        )
    }

    /// The fixed upper bucket boundaries (the last bucket is unbounded).
    pub fn boundaries(self) -> &'static [f64] {
        match self {
            // 10us .. 10s, one decade per bucket.
            HistogramId::EpochDurationMicros => &[1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7],
            // Map positions live on a grid of diameter ~13; geometric
            // boundaries resolve both the near-duplicate merges and the
            // final cross-map joins.
            HistogramId::MergeDistance => &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
            // Chunks are 1..=256 items of cheap arithmetic: sub-µs to ms.
            HistogramId::ChunkDurationMicros => &[1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6],
            // Ratio >= 1; a straggler chunk at 2x the mean halves the
            // achievable speedup of a 2-worker stage.
            HistogramId::ChunkImbalance => &[1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0],
        }
    }
}

/// One fixed-bucket histogram: per-bucket counts plus summary moments.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Histogram {
    id: HistogramId,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    pub(crate) fn new(id: HistogramId) -> Self {
        Histogram {
            id,
            counts: vec![0; id.boundaries().len() + 1],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub(crate) fn record(&mut self, value: f64) {
        let bucket = self
            .id
            .boundaries()
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.id.boundaries().len());
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The `q`-quantile (`0.0..=1.0`) estimated by linear interpolation
    /// within the fixed buckets. The first bucket is clamped below by the
    /// observed minimum and the overflow bucket above by the observed
    /// maximum, so estimates never leave the observed range.
    fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let boundaries = self.id.boundaries();
        let target = q * self.total as f64;
        let mut cumulative = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let before = cumulative as f64;
            cumulative += count;
            if cumulative as f64 >= target {
                let upper = boundaries.get(bucket).copied().unwrap_or(self.max);
                let lower = if bucket == 0 {
                    self.min
                } else {
                    boundaries[bucket - 1].max(self.min)
                };
                let lower = lower.min(upper);
                let fraction = ((target - before) / count as f64).clamp(0.0, 1.0);
                return (lower + fraction * (upper - lower)).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub(crate) fn export(&self) -> HistogramExport {
        HistogramExport {
            name: self.id.name().to_owned(),
            timing: self.id.is_timing(),
            boundaries: self.id.boundaries().to_vec(),
            counts: self.counts.clone(),
            total: self.total,
            sum: self.sum,
            min: if self.total == 0 { 0.0 } else { self.min },
            max: if self.total == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// One exported counter total.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterExport {
    /// Stable counter name (see [`Counter::name`]).
    pub name: String,
    /// The aggregated total.
    pub value: u64,
}

/// One exported histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramExport {
    /// Stable histogram name (see [`HistogramId::name`]).
    pub name: String,
    /// Whether the values are wall-clock timings (excluded from
    /// deterministic fingerprints).
    pub timing: bool,
    /// Upper bucket boundaries; the final bucket is unbounded.
    pub boundaries: Vec<f64>,
    /// Per-bucket observation counts (`boundaries.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
    /// Sum of all recorded values.
    pub sum: f64,
    /// Smallest recorded value (0 when empty).
    pub min: f64,
    /// Largest recorded value (0 when empty).
    pub max: f64,
    /// Median, interpolated within the fixed buckets (0 when empty).
    /// `#[serde(default)]` keeps schema-v2 artifacts parseable.
    #[serde(default)]
    pub p50: f64,
    /// 95th percentile, interpolated within the fixed buckets.
    #[serde(default)]
    pub p95: f64,
    /// 99th percentile, interpolated within the fixed buckets.
    #[serde(default)]
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_ordered() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn counter_buf_merges_commutatively() {
        let mut a = CounterBuf::new();
        a.add(Counter::BmuSearches, 3);
        a.add(Counter::DistanceEvaluations, 10);
        let mut b = CounterBuf::new();
        b.add(Counter::BmuSearches, 4);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(Counter::BmuSearches), 7);
        assert_eq!(ab.get(Counter::DistanceEvaluations), 10);
    }

    #[test]
    fn histogram_buckets_cover_the_line() {
        let mut h = Histogram::new(HistogramId::MergeDistance);
        for v in [0.0, 0.3, 0.9, 3.0, 100.0] {
            h.record(v);
        }
        let e = h.export();
        assert_eq!(e.total, 5);
        assert_eq!(e.counts.iter().sum::<u64>(), 5);
        assert_eq!(e.counts[0], 1); // 0.0 <= 0.25
        assert_eq!(*e.counts.last().unwrap(), 1); // 100.0 overflows
        assert_eq!(e.min, 0.0);
        assert_eq!(e.max, 100.0);
    }

    #[test]
    fn empty_histogram_exports_zero_moments() {
        let e = Histogram::new(HistogramId::EpochDurationMicros).export();
        assert_eq!(e.total, 0);
        assert_eq!(e.min, 0.0);
        assert_eq!(e.max, 0.0);
        assert_eq!(e.p50, 0.0);
        assert_eq!(e.p95, 0.0);
        assert_eq!(e.p99, 0.0);
        assert!(e.timing);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 1..=100 across the first two decade buckets: interpolation
        // recovers the true percentiles to within a couple of units.
        let mut h = Histogram::new(HistogramId::EpochDurationMicros);
        for v in 1..=100 {
            h.record(f64::from(v));
        }
        let e = h.export();
        assert!((e.p50 - 50.0).abs() < 2.0, "p50 = {}", e.p50);
        assert!((e.p95 - 95.0).abs() < 2.0, "p95 = {}", e.p95);
        assert!((e.p99 - 99.0).abs() < 2.0, "p99 = {}", e.p99);
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let mut h = Histogram::new(HistogramId::EpochDurationMicros);
        h.record(42.0);
        let e = h.export();
        assert_eq!(e.p50, 42.0);
        assert_eq!(e.p99, 42.0);
        // Overflow-bucket values are bounded by the observed max.
        let mut h = Histogram::new(HistogramId::MergeDistance);
        h.record(100.0);
        h.record(200.0);
        let e = h.export();
        assert!(e.p99 <= 200.0 && e.p99 >= 100.0, "p99 = {}", e.p99);
    }

    #[test]
    fn new_lane_histograms_are_timing() {
        assert!(HistogramId::ChunkDurationMicros.is_timing());
        assert!(HistogramId::ChunkImbalance.is_timing());
        assert!(!HistogramId::MergeDistance.is_timing());
        assert_eq!(HistogramId::ALL.len(), 4);
        for (i, id) in HistogramId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
        }
    }
}
