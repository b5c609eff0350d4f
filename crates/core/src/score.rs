//! Score tables over cluster counts — the machinery behind the paper's
//! Tables IV, V and VI.

use hiermeans_cluster::Dendrogram;
use hiermeans_linalg::parallel::{self, Chunking};
use hiermeans_obs::{stages, Collector, Counter, CounterBuf, LaneBuf};
use hiermeans_workload::execution::SpeedupTable;
use hiermeans_workload::Machine;
use serde::{Deserialize, Serialize};

use crate::hierarchical::hierarchical_mean;
use crate::means::Mean;
use crate::CoreError;

/// Chunking for the per-`k` score sweep: each `k` is an independent cut +
/// two hierarchical means, so one `k` per chunk balances best; sweeps
/// shorter than 4 rows are cheaper to run in place.
const SWEEP_CHUNKING: Chunking = Chunking::new(1, 4);

/// One row of a hierarchical-mean score table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoreRow {
    /// The cluster count this row was computed at.
    pub k: usize,
    /// Hierarchical mean of machine A's speedups.
    pub score_a: f64,
    /// Hierarchical mean of machine B's speedups.
    pub score_b: f64,
}

impl ScoreRow {
    /// The A/B score ratio the paper reports per row.
    pub fn ratio(&self) -> f64 {
        self.score_a / self.score_b
    }
}

/// A hierarchical-mean score table over a range of cluster counts, with the
/// plain-mean baseline row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreTable {
    mean: Mean,
    rows: Vec<ScoreRow>,
    plain_a: f64,
    plain_b: f64,
}

impl ScoreTable {
    /// Scores `speedups` at each cluster count in `ks`, reading cluster
    /// memberships from `clusters_for(k)`.
    ///
    /// # Errors
    ///
    /// Propagates mean-computation and cluster-validation errors.
    pub fn compute(
        speedups: &SpeedupTable,
        ks: impl IntoIterator<Item = usize>,
        mean: Mean,
        mut clusters_for: impl FnMut(usize) -> Result<Vec<Vec<usize>>, CoreError>,
    ) -> Result<Self, CoreError> {
        let a = speedups.speedups(Machine::A);
        let b = speedups.speedups(Machine::B);
        let mut rows = Vec::new();
        for k in ks {
            let clusters = clusters_for(k)?;
            rows.push(ScoreRow {
                k,
                score_a: hierarchical_mean(a, &clusters, mean)?,
                score_b: hierarchical_mean(b, &clusters, mean)?,
            });
        }
        Ok(ScoreTable {
            mean,
            rows,
            plain_a: mean.compute(a)?,
            plain_b: mean.compute(b)?,
        })
    }

    /// Like [`ScoreTable::compute`] but sweeps the cluster counts in
    /// parallel: the rows for each `k` are computed concurrently (the
    /// closure must therefore be `Fn + Sync` rather than `FnMut`).
    ///
    /// The result is bit-for-bit identical to [`ScoreTable::compute`] with
    /// the same inputs — each row depends only on its own `k`, and rows are
    /// collected back in sweep order regardless of scheduling.
    ///
    /// # Errors
    ///
    /// Propagates mean-computation and cluster-validation errors; with
    /// several failing `k`s, the error for the earliest `k` in the sweep is
    /// returned (matching the serial path).
    pub fn compute_parallel(
        speedups: &SpeedupTable,
        ks: impl IntoIterator<Item = usize>,
        mean: Mean,
        clusters_for: impl Fn(usize) -> Result<Vec<Vec<usize>>, CoreError> + Sync,
    ) -> Result<Self, CoreError> {
        Self::compute_parallel_traced(speedups, ks, mean, clusters_for, &Collector::disabled())
    }

    /// [`ScoreTable::compute_parallel`] with observability: wraps the sweep
    /// in a `score.sweep` span and counts one `ScoreSweepCells` per table
    /// cell (each row holds one score per machine).
    ///
    /// # Errors
    ///
    /// Same as [`ScoreTable::compute_parallel`].
    pub fn compute_parallel_traced(
        speedups: &SpeedupTable,
        ks: impl IntoIterator<Item = usize>,
        mean: Mean,
        clusters_for: impl Fn(usize) -> Result<Vec<Vec<usize>>, CoreError> + Sync,
        collector: &Collector,
    ) -> Result<Self, CoreError> {
        let _span = collector.span(stages::SCORE_SWEEP);
        let a = speedups.speedups(Machine::A);
        let b = speedups.speedups(Machine::B);
        let ks: Vec<usize> = ks.into_iter().collect();
        let mut lane_buf = collector
            .lane_clock()
            .map(|clock| (clock, LaneBuf::with_capacity(ks.len())));
        let rows = parallel::try_map_items(
            ks.len(),
            SWEEP_CHUNKING,
            lane_buf.as_mut().map(|(clock, buf)| (*clock, buf)),
            |i| {
                let k = ks[i];
                let clusters = clusters_for(k)?;
                Ok::<_, CoreError>(ScoreRow {
                    k,
                    score_a: hierarchical_mean(a, &clusters, mean)?,
                    score_b: hierarchical_mean(b, &clusters, mean)?,
                })
            },
        )
        .map_err(CoreError::from)?;
        if let Some((_, buf)) = lane_buf.as_ref() {
            collector.attach_lanes(stages::SCORE_SWEEP, ks.len(), buf);
        }
        if collector.is_enabled() {
            let mut buf = CounterBuf::new();
            buf.add(Counter::ScoreSweepCells, 2 * rows.len() as u64);
            collector.flush(&buf);
        }
        Ok(ScoreTable {
            mean,
            rows,
            plain_a: mean.compute(a)?,
            plain_b: mean.compute(b)?,
        })
    }

    /// Scores a dendrogram's cuts at `k = 2..=max_k` — the paper's table
    /// protocol. The cuts are swept in parallel (see
    /// [`ScoreTable::compute_parallel`]).
    ///
    /// # Errors
    ///
    /// Propagates cut and mean errors.
    pub fn from_dendrogram(
        speedups: &SpeedupTable,
        dendrogram: &Dendrogram,
        max_k: usize,
        mean: Mean,
    ) -> Result<Self, CoreError> {
        Self::from_dendrogram_traced(speedups, dendrogram, max_k, mean, &Collector::disabled())
    }

    /// [`ScoreTable::from_dendrogram`] with an observability collector
    /// threaded into the sweep.
    ///
    /// # Errors
    ///
    /// Same as [`ScoreTable::from_dendrogram`].
    pub fn from_dendrogram_traced(
        speedups: &SpeedupTable,
        dendrogram: &Dendrogram,
        max_k: usize,
        mean: Mean,
        collector: &Collector,
    ) -> Result<Self, CoreError> {
        Self::compute_parallel_traced(
            speedups,
            2..=max_k,
            mean,
            |k| Ok(dendrogram.cut_into(k)?.clusters()),
            collector,
        )
    }

    /// The mean family used.
    pub fn mean(&self) -> Mean {
        self.mean
    }

    /// The per-`k` rows in the order they were computed.
    pub fn rows(&self) -> &[ScoreRow] {
        &self.rows
    }

    /// The plain (unclustered) mean of machine A — the baseline bottom row.
    pub fn plain_a(&self) -> f64 {
        self.plain_a
    }

    /// The plain (unclustered) mean of machine B.
    pub fn plain_b(&self) -> f64 {
        self.plain_b
    }

    /// The plain-mean A/B ratio.
    pub fn plain_ratio(&self) -> f64 {
        self.plain_a / self.plain_b
    }

    /// The row at cluster count `k`, if present.
    pub fn row(&self, k: usize) -> Option<&ScoreRow> {
        self.rows.iter().find(|r| r.k == k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiermeans_workload::measurement::{
        paper_hgm_table, reference_clustering, Characterization,
    };

    fn paper_table(ch: Characterization) -> ScoreTable {
        ScoreTable::compute(&SpeedupTable::paper_exact(), 2..=8, Mean::Geometric, |k| {
            reference_clustering(ch, k).ok_or(CoreError::InvalidClusters {
                reason: "missing reference clustering",
            })
        })
        .unwrap()
    }

    #[test]
    fn reproduces_table_four() {
        let ch = Characterization::SarCounters(Machine::A);
        let table = paper_table(ch);
        for &(k, a, b, ratio) in &paper_hgm_table(ch).unwrap() {
            let row = table.row(k).unwrap();
            assert!(
                (row.score_a - a).abs() < 0.02,
                "k={k} A: {} vs {a}",
                row.score_a
            );
            assert!(
                (row.score_b - b).abs() < 0.02,
                "k={k} B: {} vs {b}",
                row.score_b
            );
            assert!((row.ratio() - ratio).abs() < 0.02, "k={k} ratio");
        }
        assert!((table.plain_a() - 2.10).abs() < 0.01);
        assert!((table.plain_b() - 1.94).abs() < 0.01);
        assert!((table.plain_ratio() - 1.08).abs() < 0.01);
    }

    #[test]
    fn reproduces_table_five() {
        let ch = Characterization::SarCounters(Machine::B);
        let table = paper_table(ch);
        for &(k, a, b, _) in &paper_hgm_table(ch).unwrap() {
            let row = table.row(k).unwrap();
            assert!((row.score_a - a).abs() < 0.02, "k={k} A");
            assert!((row.score_b - b).abs() < 0.04, "k={k} B");
        }
    }

    #[test]
    fn reproduces_table_six() {
        let ch = Characterization::MethodUtilization;
        let table = paper_table(ch);
        for &(k, a, b, _) in &paper_hgm_table(ch).unwrap() {
            let row = table.row(k).unwrap();
            assert!((row.score_a - a).abs() < 0.02, "k={k} A");
            assert!((row.score_b - b).abs() < 0.02, "k={k} B");
        }
    }

    #[test]
    fn ratio_converges_to_plain_as_k_grows() {
        // "as the number of clusters increases, the ratio of two scores over
        // machine A and B converges to the ratio of the plain geometric
        // mean". At k = n every hierarchical mean equals the plain mean.
        let speedups = SpeedupTable::paper_exact();
        let ch = Characterization::SarCounters(Machine::A);
        let table = ScoreTable::compute(&speedups, [8, 13], Mean::Geometric, |k| {
            if k == 13 {
                Ok((0..13).map(|i| vec![i]).collect())
            } else {
                reference_clustering(ch, k).ok_or(CoreError::InvalidClusters { reason: "missing" })
            }
        })
        .unwrap();
        let at_8 = (table.row(8).unwrap().ratio() - table.plain_ratio()).abs();
        let at_13 = (table.row(13).unwrap().ratio() - table.plain_ratio()).abs();
        assert!(at_13 < 1e-12);
        assert!(at_8 < 0.03); // already nearly converged by k = 8
    }

    #[test]
    fn from_dendrogram_smoke() {
        use hiermeans_cluster::{agglomerative, Linkage};
        use hiermeans_linalg::Matrix;
        let speedups = SpeedupTable::paper_exact();
        // Any geometry over 13 points works here; use the latent machine-A
        // positions.
        let pos = hiermeans_workload::measurement::latent_positions(Characterization::SarCounters(
            Machine::A,
        ))
        .unwrap();
        let pts =
            Matrix::from_rows(&pos.iter().map(|p| vec![p[0], p[1]]).collect::<Vec<_>>()).unwrap();
        let dend = agglomerative::cluster(&pts, Linkage::Complete, &Collector::disabled()).unwrap();
        let table = ScoreTable::from_dendrogram(&speedups, &dend, 8, Mean::Geometric).unwrap();
        assert_eq!(table.rows().len(), 7);
        // The latent geometry reproduces the recovered chain, so this table
        // must match Table IV.
        let row = table.row(4).unwrap();
        assert!((row.score_a - 2.89).abs() < 0.01);
    }

    #[test]
    fn all_mean_families_work() {
        let speedups = SpeedupTable::paper_exact();
        let ch = Characterization::SarCounters(Machine::A);
        for mean in Mean::all() {
            let t = ScoreTable::compute(&speedups, 2..=8, mean, |k| {
                reference_clustering(ch, k).ok_or(CoreError::InvalidClusters { reason: "missing" })
            })
            .unwrap();
            assert_eq!(t.rows().len(), 7);
            for r in t.rows() {
                assert!(r.score_a > 0.0 && r.score_b > 0.0);
            }
        }
    }

    #[test]
    fn ham_dominates_hgm_dominates_hhm() {
        let speedups = SpeedupTable::paper_exact();
        let ch = Characterization::SarCounters(Machine::A);
        let get = |mean| {
            ScoreTable::compute(&speedups, [6], mean, |k| {
                reference_clustering(ch, k).ok_or(CoreError::InvalidClusters { reason: "missing" })
            })
            .unwrap()
            .row(6)
            .unwrap()
            .score_a
        };
        let ham = get(Mean::Arithmetic);
        let hgm = get(Mean::Geometric);
        let hhm = get(Mean::Harmonic);
        assert!(hhm < hgm && hgm < ham);
    }

    #[test]
    fn parallel_sweep_matches_serial_bitwise() {
        let speedups = SpeedupTable::paper_exact();
        let ch = Characterization::SarCounters(Machine::A);
        let clusters_for =
            |k| reference_clustering(ch, k).ok_or(CoreError::InvalidClusters { reason: "missing" });
        let serial = ScoreTable::compute(&speedups, 2..=8, Mean::Geometric, clusters_for).unwrap();
        let parallel =
            ScoreTable::compute_parallel(&speedups, 2..=8, Mean::Geometric, clusters_for).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_sweep_returns_earliest_error() {
        let speedups = SpeedupTable::paper_exact();
        let err = ScoreTable::compute_parallel(&speedups, 2..=8, Mean::Geometric, |k| {
            if k >= 4 {
                Err(CoreError::InvalidClusters { reason: "boom" })
            } else {
                reference_clustering(Characterization::SarCounters(Machine::A), k)
                    .ok_or(CoreError::InvalidClusters { reason: "missing" })
            }
        })
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidClusters { reason: "boom" }));
    }

    #[test]
    fn missing_row_is_none() {
        let table = paper_table(Characterization::MethodUtilization);
        assert!(table.row(9).is_none());
        assert!(table.row(2).is_some());
    }
}
