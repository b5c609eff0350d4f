//! The cluster-detection pipeline (paper Section III).
//!
//! Characteristic vectors → SOM (dimension reduction to a 2-D map) →
//! complete-linkage hierarchical clustering on the map positions →
//! dendrogram. The paper's exact configuration is the default: Gaussian
//! neighborhood, Euclidean distances, complete linkage.

use hiermeans_cluster::agglomerative;
use hiermeans_cluster::{ClusterAssignment, Dendrogram, Linkage};
use hiermeans_linalg::parallel::{self, Chunking};
use hiermeans_linalg::Matrix;
use hiermeans_obs::{stages, Collector, Counter, CounterBuf, LaneBuf};
use hiermeans_som::{Som, SomBuilder};

use crate::CoreError;

/// Chunking for [`PipelineResult::clusters_sweep`]: one cut per chunk (each
/// `k` is independent work), serial below 4 cuts.
const SWEEP_CHUNKING: Chunking = Chunking::new(1, 4);

/// Configuration of the SOM + clustering pipeline.
///
/// Both stages use the paper's Euclidean distance, which is not a
/// setting: the SOM's BMU searches compute it with the exact codebook
/// sweep (`kernels::exact_dists_wt_into`) and the clustering stage with
/// the scalar pairwise loop (`distance::pairwise_lanes`), both with
/// [`hiermeans_linalg::distance::euclidean`]'s bits.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// SOM grid width (default 10).
    pub som_width: usize,
    /// SOM grid height (default 10).
    pub som_height: usize,
    /// SOM training epochs (default 200). Shorter runs leave the online
    /// SOM under-converged on the paper's 13-workload suite: the map then
    /// fails to preserve raw-space neighbor relations (e.g. SciMark2's
    /// LU lands nearer a DaCapo workload than its own kernels on machine
    /// B's SAR counters).
    pub epochs: usize,
    /// RNG seed for SOM training.
    pub seed: u64,
    /// Final neighborhood radius σ. Larger values keep adjacent units
    /// correlated, so near-identical workloads share a map cell (the
    /// paper's "darker cells"); small values let every workload capture its
    /// own unit. Default 1.5.
    pub sigma_end: f64,
    /// Online (the paper's sequential algorithm, the default) or batch SOM
    /// training.
    pub training: hiermeans_som::TrainingMode,
    /// Linkage rule (the paper uses complete linkage).
    pub linkage: Linkage,
    /// Observability collector. The default is the disabled no-op handle,
    /// which costs one branch per instrumentation point; pass
    /// [`Collector::enabled`] to capture spans, counters, per-epoch SOM
    /// quality, and the merge-distance trajectory for this run.
    pub collector: Collector,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            som_width: 10,
            som_height: 10,
            epochs: 200,
            seed: 0xC10C_2007,
            sigma_end: 1.5,
            training: hiermeans_som::TrainingMode::Online,
            linkage: Linkage::Complete,
            collector: Collector::disabled(),
        }
    }
}

impl PipelineConfig {
    /// A configuration sized for a corpus of `n` workloads instead of the
    /// paper's fixed 13: the SOM grid grows as `≈5·√n` units
    /// ([`hiermeans_som::heuristic_map_size`]), training switches to batch
    /// mode with a short epoch budget (each batch epoch sees every row, so
    /// dozens of passes converge where online needed hundreds). Clustering
    /// links the occupied map cells — about 5·√n at most, one per unit —
    /// rather than the n rows, with NN-chain for the reducible linkages
    /// ([`agglomerative::cluster`]).
    pub fn scaled(n: usize) -> Self {
        let (som_width, som_height) = hiermeans_som::heuristic_map_size(n);
        PipelineConfig {
            som_width,
            som_height,
            epochs: 30,
            training: hiermeans_som::TrainingMode::Batch,
            ..Default::default()
        }
    }
}

/// The outputs of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    som: Som,
    positions: Matrix,
    dendrogram: Dendrogram,
    collector: Collector,
}

impl PipelineResult {
    /// The trained self-organizing map.
    pub fn som(&self) -> &Som {
        &self.som
    }

    /// The 2-D map position of each workload (`n x 2`) — the reduced
    /// dimension handed to the clustering stage.
    pub fn positions(&self) -> &Matrix {
        &self.positions
    }

    /// The full merge history over the map positions.
    pub fn dendrogram(&self) -> &Dendrogram {
        &self.dendrogram
    }

    /// Cuts the dendrogram into exactly `k` clusters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cluster`] for an out-of-range `k`.
    pub fn clusters(&self, k: usize) -> Result<ClusterAssignment, CoreError> {
        Ok(self.dendrogram.cut_into(k)?)
    }

    /// Cuts the dendrogram at a merging distance.
    pub fn clusters_at_distance(&self, distance: f64) -> ClusterAssignment {
        self.dendrogram.cut_at(distance)
    }

    /// Cuts the dendrogram at every `k` in `ks`, sweeping the cuts in
    /// parallel. Results come back in sweep order and are identical to
    /// calling [`PipelineResult::clusters`] per `k` — each cut depends only
    /// on its own `k`, so scheduling cannot change any assignment.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cluster`] for an out-of-range `k`; with several
    /// out-of-range `k`s, the earliest in the sweep wins.
    pub fn clusters_sweep(
        &self,
        ks: impl IntoIterator<Item = usize>,
    ) -> Result<Vec<(usize, ClusterAssignment)>, CoreError> {
        let _span = self.collector.span(stages::PIPELINE_SWEEP);
        let ks: Vec<usize> = ks.into_iter().collect();
        let mut lane_buf = self
            .collector
            .lane_clock()
            .map(|clock| (clock, LaneBuf::with_capacity(ks.len())));
        let cuts = parallel::try_map_items(
            ks.len(),
            SWEEP_CHUNKING,
            lane_buf.as_mut().map(|(clock, buf)| (*clock, buf)),
            |i| {
                let k = ks[i];
                Ok::<_, CoreError>((k, self.dendrogram.cut_into(k)?))
            },
        )
        .map_err(CoreError::from)?;
        if let Some((_, buf)) = lane_buf.as_ref() {
            self.collector
                .attach_lanes(stages::PIPELINE_SWEEP, ks.len(), buf);
        }
        if self.collector.is_enabled() {
            // One sweep cell per (workload, k) pair produced by the cuts.
            let cells: u64 = cuts.iter().map(|(_, a)| a.labels().len() as u64).sum();
            let mut buf = CounterBuf::new();
            buf.add(Counter::ScoreSweepCells, cells);
            self.collector.flush(&buf);
        }
        Ok(cuts)
    }
}

/// Runs the pipeline on pre-assembled characteristic vectors (rows are
/// workloads).
///
/// # Errors
///
/// * [`CoreError::Som`] if SOM training fails (empty/non-finite data, bad
///   grid).
/// * [`CoreError::Cluster`] if clustering fails.
///
/// # Example
///
/// ```
/// use hiermeans_core::pipeline::{run_pipeline, PipelineConfig};
/// use hiermeans_linalg::Matrix;
///
/// # fn main() -> Result<(), hiermeans_core::CoreError> {
/// let vectors = Matrix::from_rows(&[
///     vec![0.0, 0.0, 0.0], vec![0.1, 0.0, 0.1],
///     vec![5.0, 5.0, 5.0], vec![5.1, 5.0, 5.1],
/// ])?;
/// let result = run_pipeline(&vectors, &PipelineConfig::default())?;
/// let two = result.clusters(2)?;
/// assert!(two.same_cluster(0, 1));
/// assert!(!two.same_cluster(0, 2));
/// # Ok(())
/// # }
/// ```
pub fn run_pipeline(
    vectors: &Matrix,
    config: &PipelineConfig,
) -> Result<PipelineResult, CoreError> {
    let collector = &config.collector;
    let span = collector.span(stages::PIPELINE);
    let builder = som_builder(config);
    let som = {
        let _som_span = collector.span(stages::PIPELINE_SOM);
        builder.train_traced(vectors, collector)?
    };
    let positions = {
        let _project_span = collector.span(stages::PIPELINE_PROJECT);
        som.project(vectors)?
    };
    let dendrogram = {
        let _cluster_span = collector.span(stages::PIPELINE_CLUSTER);
        agglomerative::cluster(&positions, config.linkage, collector)?
    };
    drop(span);
    Ok(PipelineResult {
        som,
        positions,
        dendrogram,
        collector: collector.clone(),
    })
}

/// Trains the pipeline's SOM stage out-of-core: rows stream through a
/// [`hiermeans_linalg::rows::RowSource`] in fixed strips instead of a
/// resident `n × dim` matrix, so training memory is bounded by the codebook
/// and one strip regardless of `n`. The builder wiring (grid, schedule) is
/// exactly [`run_pipeline`]'s, and a random-initialized
/// streamed run is bitwise identical to the resident trainer on the same
/// rows (PCA-plane initialization needs the resident matrix, so streaming
/// falls back to random). Requires
/// [`hiermeans_som::TrainingMode::Batch`] (the [`PipelineConfig::scaled`]
/// default). Each strip's BMU search runs on every worker, and the rows
/// are summed per BMU in row order, so the result is the same for any
/// worker count.
///
/// The downstream stages (projection, clustering) still need per-row
/// outputs; callers at streaming scale project strip-wise themselves or
/// cluster a sample. This entry point exists for the n = 10⁶ bounded-memory
/// training mode.
///
/// # Errors
///
/// * [`CoreError::Som`] for training failures, including
///   [`hiermeans_som::SomError::RowSource`] when the backend fails and an
///   `InvalidConfig` when `config.training` is not batch.
pub fn train_som_streaming(
    source: &mut dyn hiermeans_linalg::rows::RowSource,
    config: &PipelineConfig,
) -> Result<Som, CoreError> {
    let collector = &config.collector;
    let _span = collector.span(stages::PIPELINE_SOM);
    Ok(som_builder(config).train_stream_traced(source, collector)?)
}

/// The SOM stage's builder, shared by [`run_pipeline`] and
/// [`train_som_streaming`] so that the two train the same map: σ decays
/// linearly from half the map diameter to `config.sigma_end`.
fn som_builder(config: &PipelineConfig) -> SomBuilder {
    let diameter = hiermeans_som::Grid::new(
        config.som_width.max(1),
        config.som_height.max(1),
        hiermeans_som::GridTopology::Rectangular,
    )
    .diameter();
    SomBuilder::new(config.som_width, config.som_height)
        .seed(config.seed)
        .epochs(config.epochs)
        .sigma(hiermeans_som::DecaySchedule::Linear {
            start: diameter / 2.0,
            end: config.sigma_end,
        })
        .mode(config.training)
}

/// Skips the SOM and clusters directly on the raw characteristic vectors —
/// the ablation baseline for "is the SOM stage useful?". Runs untraced.
///
/// # Errors
///
/// Returns [`CoreError::Cluster`] if clustering fails.
pub fn run_without_som(vectors: &Matrix, config: &PipelineConfig) -> Result<Dendrogram, CoreError> {
    Ok(agglomerative::cluster(
        vectors,
        config.linkage,
        &Collector::disabled(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_vectors() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0, 0.1, 0.0],
            vec![0.1, 0.1, 0.0, 0.0],
            vec![0.0, 0.1, 0.1, 0.1],
            vec![6.0, 6.0, 6.1, 6.0],
            vec![6.1, 6.0, 6.0, 6.1],
            vec![12.0, 0.0, 12.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn pipeline_recovers_planted_structure() {
        // Shorter training for this tiny synthetic input: very long training
        // lets each near-duplicate capture its own distant unit (SOM
        // magnification), which is not what this test probes.
        let cfg = PipelineConfig {
            epochs: 150,
            ..Default::default()
        };
        let res = run_pipeline(&blob_vectors(), &cfg).unwrap();
        let three = res.clusters(3).unwrap();
        assert!(three.same_cluster(0, 1) && three.same_cluster(1, 2));
        assert!(three.same_cluster(3, 4));
        assert!(!three.same_cluster(0, 3));
        assert!(!three.same_cluster(0, 5) && !three.same_cluster(3, 5));
    }

    #[test]
    fn positions_shape() {
        let res = run_pipeline(&blob_vectors(), &PipelineConfig::default()).unwrap();
        assert_eq!(res.positions().shape(), (6, 2));
    }

    #[test]
    fn deterministic_given_config() {
        let a = run_pipeline(&blob_vectors(), &PipelineConfig::default()).unwrap();
        let b = run_pipeline(&blob_vectors(), &PipelineConfig::default()).unwrap();
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.dendrogram(), b.dendrogram());
    }

    #[test]
    fn cut_at_distance_zero_gives_cellmates() {
        let res = run_pipeline(&blob_vectors(), &PipelineConfig::default()).unwrap();
        let a = res.clusters_at_distance(0.0);
        // Rows 0-2 land on the same or nearby cells; at distance 0 only
        // exact cellmates merge, so cluster count is between 1 and 6.
        assert!(a.n_clusters() >= 1 && a.n_clusters() <= 6);
    }

    #[test]
    fn naive_and_nn_chain_agree_end_to_end() {
        use hiermeans_cluster::nnchain::cluster_nn_chain_owned;
        use hiermeans_linalg::distance::pairwise;

        let chain = |points: &Matrix| {
            let dist = pairwise(points).unwrap();
            cluster_nn_chain_owned(dist, Linkage::Complete, &Collector::disabled()).unwrap()
        };
        // Six rows take the naive loop; NN-chain on the same input must
        // give the same dendrogram.
        let res = run_pipeline(&blob_vectors(), &PipelineConfig::default()).unwrap();
        assert_eq!(res.dendrogram(), &chain(res.positions()));
        let raw = run_without_som(&blob_vectors(), &PipelineConfig::default()).unwrap();
        assert_eq!(raw, chain(&blob_vectors()));
    }

    #[test]
    fn scaled_config_sizes_with_n() {
        let small = PipelineConfig::scaled(13);
        let big = PipelineConfig::scaled(10_000);
        assert!(big.som_width > small.som_width);
        assert_eq!(small.training, hiermeans_som::TrainingMode::Batch);
        // The defaults the scaling rule does not touch stay the paper's.
        assert_eq!(small.linkage, Linkage::Complete);
        let res = run_pipeline(&blob_vectors(), &PipelineConfig::scaled(6)).unwrap();
        assert_eq!(res.positions().shape(), (6, 2));
    }

    #[test]
    fn without_som_baseline_works() {
        let d = run_without_som(&blob_vectors(), &PipelineConfig::default()).unwrap();
        let three = d.cut_into(3).unwrap();
        assert!(three.same_cluster(0, 1));
        assert!(!three.same_cluster(0, 3));
    }

    #[test]
    fn bad_inputs_surface_as_core_errors() {
        let cfg = PipelineConfig::default();
        let empty = Matrix::zeros(0, 3);
        assert!(matches!(
            run_pipeline(&empty, &cfg).unwrap_err(),
            CoreError::Som(_)
        ));
        let mut nan = blob_vectors();
        nan[(0, 0)] = f64::NAN;
        assert!(run_pipeline(&nan, &cfg).is_err());
    }

    #[test]
    fn clusters_sweep_matches_individual_cuts() {
        let res = run_pipeline(&blob_vectors(), &PipelineConfig::default()).unwrap();
        let sweep = res.clusters_sweep(2..=5).unwrap();
        assert_eq!(sweep.len(), 4);
        for (k, assignment) in &sweep {
            assert_eq!(assignment, &res.clusters(*k).unwrap());
        }
    }

    #[test]
    fn clusters_sweep_reports_earliest_bad_k() {
        let res = run_pipeline(&blob_vectors(), &PipelineConfig::default()).unwrap();
        // k = 0 and k = 7 are both out of range for 6 rows; the sweep must
        // surface an error rather than panic, for any scheduling.
        assert!(res.clusters_sweep([2, 0, 7]).is_err());
    }

    #[test]
    fn out_of_range_k_rejected() {
        let res = run_pipeline(&blob_vectors(), &PipelineConfig::default()).unwrap();
        assert!(res.clusters(0).is_err());
        assert!(res.clusters(7).is_err());
    }
}
