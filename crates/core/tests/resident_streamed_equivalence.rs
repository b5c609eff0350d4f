//! End-to-end resident ≡ streamed equivalence on the paper's three studies.
//!
//! Resident batch training ([`SomBuilder::train_traced`]) and streamed
//! training ([`SomBuilder::train_stream_traced`]) run one trainer. Trained
//! on each study's characteristic vectors with the pipeline's SOM wiring,
//! the two must give the same weights and the same observability trace
//! fingerprint, bit for bit, so nothing downstream can tell the paths
//! apart.
//!
//! Streaming supports only random initialization, so both sides use it;
//! everything else (grid, σ schedule, epochs, seed) is the default
//! [`PipelineConfig`]'s, in batch mode (streaming is a batch-trainer
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

/// Trains through `train` with an enabled collector: the map's weight bits
/// and the trace fingerprint.
fn traced(train: impl FnOnce(&Collector) -> Som) -> (Vec<u64>, String) {
    let collector = Collector::enabled();
    let som = train(&collector);
    let report = collector
        .report()
        .expect("enabled collector yields a report");
    (weight_bits(&som), report.fingerprint())
}

#[test]
fn resident_training_matches_streamed_on_all_paper_studies() {
    let builder = pipeline_builder(&PipelineConfig::default());
    for (label, characterization) in paper_studies() {
        let vectors = paper_vectors(characterization, &Collector::disabled())
            .expect("paper vectors characterize");
        let data: &Matrix = vectors.matrix();
        let (resident, resident_fp) = traced(|c| builder.train_traced(data, c).expect("trains"));
        let (streamed, streamed_fp) =
            traced(|c| builder.train_stream_traced(&mut &*data, c).expect("trains"));
        // Same codebook bit for bit, so projection and clustering see
        // identical input.
        assert_eq!(resident, streamed, "{label}: weights diverged");
        // The whole trace — spans, counters, per-epoch QE/TE bits — is
        // identical.
        assert_eq!(
            resident_fp, streamed_fp,
            "{label}: trace fingerprints diverged"
        );
    }
}
