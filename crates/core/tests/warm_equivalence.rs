//! End-to-end epoch-warm equivalence on the paper's three studies.
//!
//! The epoch-warm BMU search is a pure performance change: resident batch
//! training ([`SomBuilder::train_traced`]) reuses a row's cached BMU only
//! when the drift bound proves the exact scan would return it, and
//! streamed training ([`SomBuilder::train_stream_traced`]) never builds the
//! cache. Trained on each study's characteristic vectors with the
//! pipeline's SOM wiring, the two must give the same weights and the same
//! observability trace fingerprint, bit for bit. The warm hit/rescan
//! counters are advisory (excluded from the fingerprint), so nothing
//! downstream can tell the paths apart.
//!
//! Streaming supports only random initialization, so both sides use it;
//! everything else (grid, σ schedule, epochs, seed, metric) is the default
//! [`PipelineConfig`]'s, in batch mode (warm reuse is a batch-trainer
//! feature).

use hiermeans_core::analysis::paper_vectors;
use hiermeans_core::pipeline::PipelineConfig;
use hiermeans_linalg::Matrix;
use hiermeans_obs::Collector;
use hiermeans_som::{
    DecaySchedule, Grid, GridTopology, Initializer, Som, SomBuilder, TrainingMode,
};
use hiermeans_workload::measurement::Characterization;
use hiermeans_workload::Machine;

fn paper_studies() -> Vec<(&'static str, Characterization)> {
    vec![
        ("sar_machine_a", Characterization::SarCounters(Machine::A)),
        ("sar_machine_b", Characterization::SarCounters(Machine::B)),
        ("method_utilization", Characterization::MethodUtilization),
    ]
}

/// The SOM builder `run_pipeline` and `train_som_streaming` wire from a
/// pipeline config, in batch mode with random initialization.
fn pipeline_builder(config: &PipelineConfig) -> SomBuilder {
    let diameter = Grid::new(
        config.som_width,
        config.som_height,
        GridTopology::Rectangular,
    )
    .diameter();
    SomBuilder::new(config.som_width, config.som_height)
        .seed(config.seed)
        .epochs(config.epochs)
        .metric(config.metric)
        .sigma(DecaySchedule::Linear {
            start: diameter / 2.0,
            end: config.sigma_end,
        })
        .mode(TrainingMode::Batch)
        .initializer(Initializer::Random)
}

fn weight_bits(som: &Som) -> Vec<u64> {
    som.weights()
        .as_slice()
        .iter()
        .map(|w| w.to_bits())
        .collect()
}

/// Trains through `train` with an enabled collector: the map's weight bits,
/// the trace fingerprint and the warm-hit count.
fn traced(train: impl FnOnce(&Collector) -> Som) -> (Vec<u64>, String, u64) {
    let collector = Collector::enabled();
    let som = train(&collector);
    let report = collector
        .report()
        .expect("enabled collector yields a report");
    let hits = report.counter("bmu_warm_hits").unwrap_or(0);
    (weight_bits(&som), report.fingerprint(), hits)
}

#[test]
fn resident_warm_training_matches_streamed_cold_on_all_paper_studies() {
    let builder = pipeline_builder(&PipelineConfig::default());
    let mut warm_hits = 0;
    for (label, characterization) in paper_studies() {
        let vectors = paper_vectors(characterization, &Collector::disabled())
            .expect("paper vectors characterize");
        let data: &Matrix = vectors.matrix();
        let (warm, warm_fp, hits) = traced(|c| builder.train_traced(data, c).expect("trains"));
        let (cold, cold_fp, cold_hits) =
            traced(|c| builder.train_stream_traced(&mut &*data, c).expect("trains"));
        warm_hits += hits;
        assert_eq!(cold_hits, 0, "{label}: streamed training went warm");
        // Same codebook bit for bit, so projection and clustering see
        // identical input.
        assert_eq!(warm, cold, "{label}: weights diverged warm vs cold");
        // The whole trace — spans, non-advisory counters, per-epoch QE/TE
        // bits — is identical; only the advisory warm hit/rescan counters
        // (excluded from the fingerprint) differ.
        assert_eq!(
            warm_fp, cold_fp,
            "{label}: trace fingerprints diverged warm vs cold"
        );
    }
    // The resident side must actually reuse cached BMUs, or the
    // equivalence would hold vacuously.
    assert!(warm_hits > 0, "no warm hits on any paper study");
}
