//! The single source of stage names: every span and lane stage recorded by
//! the workspace uses these constants.
//!
//! Run-history records key their per-stage timings by span name (`repro
//! trace` appends them to `OBS_history.jsonl`, `repro history --gate`
//! judges them), so a span rename at an instrumentation site would
//! silently drop that stage from the gate. Centralizing the names makes
//! drift a compile error, and [`ALL`] lets tests assert that each name
//! still appears in a real paper-study trace.

/// The whole-study analysis facade.
pub const ANALYSIS: &str = "analysis";
/// Execution-substrate simulation (speedup table).
pub const ANALYSIS_SIMULATE: &str = "analysis.simulate";
/// Characteristic-vector assembly for the chosen characterization.
pub const ANALYSIS_CHARACTERIZE: &str = "analysis.characterize";
/// Silhouette-based cluster-count recommendation.
pub const ANALYSIS_RECOMMEND_K: &str = "analysis.recommend_k";
/// Workload counter/method-profile characterization.
pub const WORKLOAD_CHARACTERIZE: &str = "workload.characterize";
/// The SOM → clustering pipeline.
pub const PIPELINE: &str = "pipeline";
/// SOM training within the pipeline.
pub const PIPELINE_SOM: &str = "pipeline.som";
/// Projection of the workloads onto the trained map.
pub const PIPELINE_PROJECT: &str = "pipeline.project";
/// Agglomerative clustering of the map positions.
pub const PIPELINE_CLUSTER: &str = "pipeline.cluster";
/// Dendrogram cut sweep over candidate cluster counts.
pub const PIPELINE_SWEEP: &str = "pipeline.sweep";
/// The convergence-gated, self-healing pipeline wrapper.
pub const PIPELINE_RESILIENT: &str = "pipeline.resilient";
/// Raw-space fallback clustering after retry exhaustion.
pub const PIPELINE_DEGRADED_RAW_SPACE: &str = "pipeline.degraded_raw_space";
/// One SOM training run.
pub const SOM_TRAIN: &str = "som.train";
/// SOM codebook initialization.
pub const SOM_INIT: &str = "som.init";
/// Complete-linkage agglomeration (pairwise + merge loop).
pub const CLUSTER_AGGLOMERATE: &str = "cluster.agglomerate";
/// Pairwise distance matrix over the clustered points.
pub const CLUSTER_PAIRWISE: &str = "cluster.pairwise";
/// The merge loop consuming the distance matrix.
pub const CLUSTER_MERGE_LOOP: &str = "cluster.merge_loop";
/// Hierarchical-mean score sweep over `k`.
pub const SCORE_SWEEP: &str = "score.sweep";

/// Lane stage: per-epoch online SOM training (one interval per epoch).
pub const LANE_SOM_ONLINE_EPOCHS: &str = "som.online_epochs";
/// Lane stage: batch-mode best-matching-unit search chunks.
pub const LANE_SOM_BMU_BATCH: &str = "som.bmu_batch";
/// Lane stage: batch-mode numerator/denominator accumulation chunks.
pub const LANE_SOM_BATCH_ACCUMULATE: &str = "som.batch_accumulate";

/// Every span name guaranteed to appear in a full paper-study trace
/// (`SuiteAnalysis::paper_with` under an enabled collector). Names recorded
/// only on special paths — the resilient wrapper, degraded fallback, the
/// cut sweep helper — are deliberately absent.
pub const ALL: [&str; 15] = [
    ANALYSIS,
    ANALYSIS_SIMULATE,
    ANALYSIS_CHARACTERIZE,
    ANALYSIS_RECOMMEND_K,
    WORKLOAD_CHARACTERIZE,
    PIPELINE,
    PIPELINE_SOM,
    PIPELINE_PROJECT,
    PIPELINE_CLUSTER,
    SOM_TRAIN,
    SOM_INIT,
    CLUSTER_AGGLOMERATE,
    CLUSTER_PAIRWISE,
    CLUSTER_MERGE_LOOP,
    SCORE_SWEEP,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names = ALL.to_vec();
        names.extend([
            PIPELINE_SWEEP,
            PIPELINE_RESILIENT,
            PIPELINE_DEGRADED_RAW_SPACE,
            LANE_SOM_ONLINE_EPOCHS,
            LANE_SOM_BMU_BATCH,
            LANE_SOM_BATCH_ACCUMULATE,
        ]);
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
