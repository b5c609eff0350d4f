//! The end-to-end suite analysis facade.
//!
//! [`SuiteAnalysis`] runs the paper's whole study for one characterization:
//! simulate the runs, assemble characteristic vectors, train the SOM,
//! cluster the map positions, score every cluster count, and recommend a
//! cluster count. The paper picks its recommended count where "it aligns
//! well with the SOM analysis results" and "the fluctuation of ratio values
//! tends to dampen" — we operationalize that with the silhouette index on
//! the map positions.

use hiermeans_cluster::selection;
use hiermeans_linalg::Matrix;
use hiermeans_obs::{stages, Collector};
use hiermeans_workload::charvec::CharacteristicVectors;
use hiermeans_workload::execution::{ExecutionSimulator, SpeedupTable};
use hiermeans_workload::hprof::HprofCollector;
use hiermeans_workload::measurement::Characterization;
use hiermeans_workload::sar::SarCollector;
use hiermeans_workload::BenchmarkSuite;

use crate::means::Mean;
use crate::pipeline::{run_pipeline, PipelineConfig, PipelineResult};
use crate::score::ScoreTable;
use crate::CoreError;

/// The cluster-count range the paper reports (Tables IV-VI).
pub const K_RANGE: std::ops::RangeInclusive<usize> = 2..=8;

/// A complete suite analysis for one characterization.
#[derive(Debug)]
pub struct SuiteAnalysis {
    suite: BenchmarkSuite,
    characterization: Characterization,
    speedups: SpeedupTable,
    vectors: CharacteristicVectors,
    pipeline: PipelineResult,
    scores: ScoreTable,
    recommended_k: usize,
}

impl SuiteAnalysis {
    /// Runs the full paper study for `characterization` using the simulated
    /// substrate and the paper's pipeline configuration.
    ///
    /// # Errors
    ///
    /// Propagates simulation, characterization, SOM, clustering, and
    /// scoring errors.
    pub fn paper(characterization: Characterization) -> Result<Self, CoreError> {
        Self::paper_with(characterization, &Collector::disabled())
    }

    /// [`SuiteAnalysis::paper`] with observability: the whole study runs
    /// under an `analysis` span with `analysis.simulate` and
    /// `analysis.characterize` stages, the pipeline config carries the
    /// collector, and characterization counters are recorded.
    ///
    /// # Errors
    ///
    /// Same as [`SuiteAnalysis::paper`].
    pub fn paper_with(
        characterization: Characterization,
        collector: &Collector,
    ) -> Result<Self, CoreError> {
        let config = PipelineConfig {
            collector: collector.clone(),
            ..PipelineConfig::default()
        };
        Self::paper_with_config(characterization, &config)
    }

    /// [`SuiteAnalysis::paper_with`] with the full pipeline configuration
    /// exposed — used to run the paper study under a non-default training
    /// mode or SOM configuration.
    /// Observability flows through `config.collector`.
    ///
    /// # Errors
    ///
    /// Same as [`SuiteAnalysis::paper`].
    pub fn paper_with_config(
        characterization: Characterization,
        config: &PipelineConfig,
    ) -> Result<Self, CoreError> {
        let collector = &config.collector;
        let span = collector.span(stages::ANALYSIS);
        let speedups = {
            let _sim = collector.span(stages::ANALYSIS_SIMULATE);
            ExecutionSimulator::paper().speedup_table()?
        };
        let vectors = paper_vectors(characterization, collector)?;
        let result = Self::run(
            BenchmarkSuite::paper(),
            characterization,
            speedups,
            vectors,
            config,
        );
        drop(span);
        result
    }

    /// Runs the analysis on explicit inputs. Observability flows through
    /// `config.collector`: the pipeline stages, score sweep, and
    /// cluster-count recommendation all record into it.
    ///
    /// # Errors
    ///
    /// Propagates pipeline and scoring errors.
    pub fn run(
        suite: BenchmarkSuite,
        characterization: Characterization,
        speedups: SpeedupTable,
        vectors: CharacteristicVectors,
        config: &PipelineConfig,
    ) -> Result<Self, CoreError> {
        let collector = &config.collector;
        let pipeline = run_pipeline(vectors.matrix(), config)?;
        let max_k = (*K_RANGE.end()).min(suite.len());
        let scores = ScoreTable::from_dendrogram_traced(
            &speedups,
            pipeline.dendrogram(),
            max_k,
            Mean::Geometric,
            collector,
        )?;
        let recommended_k = {
            let _rec = collector.span(stages::ANALYSIS_RECOMMEND_K);
            recommend_k(pipeline.positions(), pipeline.dendrogram(), max_k)?
        };
        collector.event("analysis.recommended_k", format!("k = {recommended_k}"));
        Ok(SuiteAnalysis {
            suite,
            characterization,
            speedups,
            vectors,
            pipeline,
            scores,
            recommended_k,
        })
    }

    /// The analyzed suite.
    pub fn suite(&self) -> &BenchmarkSuite {
        &self.suite
    }

    /// The characterization driving the clustering.
    pub fn characterization(&self) -> Characterization {
        self.characterization
    }

    /// The measured speedup table.
    pub fn speedups(&self) -> &SpeedupTable {
        &self.speedups
    }

    /// The assembled characteristic vectors.
    pub fn vectors(&self) -> &CharacteristicVectors {
        &self.vectors
    }

    /// The SOM + clustering pipeline outputs.
    pub fn pipeline(&self) -> &PipelineResult {
        &self.pipeline
    }

    /// The hierarchical-geometric-mean score table over `k = 2..=8`.
    pub fn scores(&self) -> &ScoreTable {
        &self.scores
    }

    /// The recommended cluster count.
    pub fn recommended_k(&self) -> usize {
        self.recommended_k
    }

    /// The recommended clustering's score row.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidClusters`] if the recommended `k` is
    /// outside the scored range (a bug in table construction, not input).
    pub fn recommended_row(&self) -> Result<&crate::score::ScoreRow, CoreError> {
        self.scores
            .row(self.recommended_k)
            .ok_or(CoreError::InvalidClusters {
                reason: "recommended k outside the scored range",
            })
    }

    /// Indices of the workloads sharing a cluster with SciMark2's FFT at the
    /// recommended cluster count — the paper's headline redundancy check.
    ///
    /// # Errors
    ///
    /// Propagates cut errors (cannot occur for the stored dendrogram).
    pub fn scimark_cluster(&self) -> Result<Vec<usize>, CoreError> {
        let assignment = self.pipeline.clusters(self.recommended_k)?;
        let fft = 5; // SciMark2.FFT's index in the paper suite
        Ok(assignment.clusters()[assignment.labels()[fft]].clone())
    }
}

/// Assembles the paper's characteristic vectors for `characterization` —
/// the same construction [`SuiteAnalysis::paper_with`] performs, exposed so
/// harnesses (e.g. fault injection) can obtain the raw study inputs
/// without running the full analysis.
///
/// # Errors
///
/// Propagates characterization failures; rejects non-paper
/// characterizations.
pub fn paper_vectors(
    characterization: Characterization,
    collector: &Collector,
) -> Result<CharacteristicVectors, CoreError> {
    let _char = collector.span(stages::ANALYSIS_CHARACTERIZE);
    match characterization {
        Characterization::SarCounters(machine) => {
            let dataset = SarCollector::paper().collect(machine)?;
            Ok(CharacteristicVectors::from_sar_traced(&dataset, collector)?)
        }
        Characterization::MethodUtilization => {
            let dataset = HprofCollector::paper().collect();
            Ok(CharacteristicVectors::from_methods_traced(
                &dataset, collector,
            )?)
        }
        _ => Err(CoreError::InvalidClusters {
            reason: "unsupported characterization",
        }),
    }
}

/// Recommends a cluster count by maximizing the silhouette index of the
/// dendrogram cut over the SOM positions (ties broken toward fewer
/// clusters), via [`selection::silhouette_k`].
///
/// For `n` positions the candidates are `2..=max(2, min(max_k, n − 1))`:
/// the all-singleton cut `k = n` is left out unless `n = 2`, and a
/// `max_k < 2` still scores `k = 2`.
///
/// # Errors
///
/// Propagates cut and validity-index errors; fewer than two positions, or
/// a dendrogram over a different number of leaves, is an error.
pub fn recommend_k(
    positions: &Matrix,
    dendrogram: &hiermeans_cluster::Dendrogram,
    max_k: usize,
) -> Result<usize, CoreError> {
    let hi = max_k.min(positions.nrows().saturating_sub(1)).max(2);
    Ok(selection::silhouette_k(dendrogram, positions, 2..=hi)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiermeans_workload::measurement::SCIMARK2;
    use hiermeans_workload::Machine;

    fn analysis(ch: Characterization) -> SuiteAnalysis {
        SuiteAnalysis::paper(ch).expect("paper analysis must run")
    }

    #[test]
    fn machine_a_analysis_runs_and_scores() {
        let a = analysis(Characterization::SarCounters(Machine::A));
        assert_eq!(a.scores().rows().len(), 7);
        assert!((a.scores().plain_ratio() - 1.08).abs() < 0.03);
        assert!(K_RANGE.contains(&a.recommended_k()));
    }

    #[test]
    fn scimark_coagulates_under_every_characterization() {
        // The paper's headline finding, now through the full simulated
        // pipeline: counters -> SOM -> clustering.
        for ch in Characterization::paper_set() {
            let a = analysis(ch);
            // Find the smallest k at which some cluster is exactly SciMark2.
            let mut exclusive_at = None;
            for k in 2..=8 {
                let cut = a.pipeline().clusters(k).unwrap();
                let mut sm: Vec<usize> = SCIMARK2.to_vec();
                sm.sort_unstable();
                if cut.clusters().iter().any(|c| {
                    let mut s = c.clone();
                    s.sort_unstable();
                    s == sm
                }) {
                    exclusive_at = Some(k);
                    break;
                }
            }
            assert!(
                exclusive_at.is_some(),
                "{ch}: SciMark2 never forms an exclusive cluster"
            );
        }
    }

    #[test]
    fn collapsing_scimark_raises_the_ratio_on_machine_a() {
        // The paper's Table IV pattern: once the SciMark2 cluster is
        // collapsed to one representative, machine A's advantage grows
        // (ratio moves above the plain 1.08), because SciMark2 — which
        // favors machine B — stops counting five times.
        let a = analysis(Characterization::SarCounters(Machine::A));
        let mut sm: Vec<usize> = SCIMARK2.to_vec();
        sm.sort_unstable();
        let exclusive_ks: Vec<usize> = (2..=8)
            .filter(|&k| {
                a.pipeline()
                    .clusters(k)
                    .unwrap()
                    .clusters()
                    .iter()
                    .any(|c| {
                        let mut s = c.clone();
                        s.sort_unstable();
                        s == sm
                    })
            })
            .collect();
        assert!(
            !exclusive_ks.is_empty(),
            "SciMark2 forms an exclusive cluster on machine A"
        );
        // At k=2..3 the non-SciMark2 clusters are giant blobs and dilute the
        // effect; the paper's recommended range is mid-k. Require the effect
        // at the best SciMark2-exclusive cut.
        let best = exclusive_ks
            .iter()
            .map(|&k| a.scores().row(k).unwrap().ratio())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best > a.scores().plain_ratio() + 0.02,
            "best exclusive-cut ratio {} vs plain {}",
            best,
            a.scores().plain_ratio()
        );
    }

    #[test]
    fn method_utilization_keeps_scimark_identical() {
        let a = analysis(Characterization::MethodUtilization);
        // All SciMark2 workloads project to the same SOM cell.
        let pos = a.pipeline().positions();
        for w in 6..=9 {
            assert_eq!(pos.row(w), pos.row(5));
        }
        // Hence they are one cluster at every k.
        for k in 2..=8 {
            let cut = a.pipeline().clusters(k).unwrap();
            for w in 6..=9 {
                assert!(cut.same_cluster(5, w), "k={k}");
            }
        }
    }

    #[test]
    fn analysis_deterministic() {
        let ch = Characterization::SarCounters(Machine::B);
        let a = analysis(ch);
        let b = analysis(ch);
        assert_eq!(a.scores().rows(), b.scores().rows());
        assert_eq!(a.recommended_k(), b.recommended_k());
    }

    #[test]
    fn scimark_cluster_accessor() {
        let a = analysis(Characterization::MethodUtilization);
        let cluster = a.scimark_cluster().unwrap();
        for w in SCIMARK2 {
            assert!(cluster.contains(&w));
        }
    }
}
