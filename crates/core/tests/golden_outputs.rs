//! Golden pins: exact outputs of the paper pipeline and its large-n and
//! raw-space variants, as literal values.
//!
//! Every value below is pinned bit for bit: the recommended k, the cut
//! labels at every k in [`K_RANGE`], each dendrogram merge (with the merge
//! distance as its `f64` bit pattern), and an FNV-1a digest of the
//! enabled-collector trace fingerprint. A refactor of the distance kernels
//! or the agglomeration stage that moves any output, cut or fingerprint
//! fails here.
//!
//! Two digests cover what the paper studies do not reach:
//!
//! * the `PipelineConfig::scaled(1024)` dendrogram on a planted mixture,
//!   which takes the NN-chain path (n ≥ 128);
//! * `run_without_som` on raw characteristic vectors. Those are
//!   non-integer inputs where the norm-trick and scalar pairwise kernels
//!   differ in final ULPs, so the digest also pins which kernel runs.

use hiermeans_cluster::agglomerative::cluster_from_distances;
use hiermeans_cluster::{Dendrogram, Linkage};
use hiermeans_core::analysis::{paper_vectors, SuiteAnalysis, K_RANGE};
use hiermeans_core::pipeline::{run_pipeline, run_without_som, PipelineConfig};
use hiermeans_linalg::distance::{pairwise, Metric};
use hiermeans_obs::hash::{fnv1a64_hex, Fnv1a64};
use hiermeans_obs::Collector;
use hiermeans_workload::measurement::Characterization;
use hiermeans_workload::synthetic::{gaussian_mixture, MixtureSpec};
use hiermeans_workload::Machine;

/// One merge as `(left, right, distance.to_bits(), size)`.
type MergePin = (usize, usize, u64, usize);

struct StudyPin {
    label: &'static str,
    characterization: Characterization,
    recommended_k: usize,
    /// Cut labels for k = 2, 3, …, 8.
    cuts: [[usize; 13]; 7],
    merges: [MergePin; 12],
    /// `fnv1a64_hex` of the trace fingerprint.
    fingerprint: &'static str,
}

fn study_pins() -> [StudyPin; 3] {
    [
        StudyPin {
            label: "sar_machine_a",
            characterization: Characterization::SarCounters(Machine::A),
            recommended_k: 5,
            cuts: [
                [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 1],
                [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 2, 2],
                [0, 1, 1, 0, 1, 2, 2, 2, 2, 2, 0, 3, 3],
                [0, 1, 1, 0, 1, 2, 2, 3, 3, 3, 0, 4, 4],
                [0, 1, 2, 0, 1, 3, 3, 4, 4, 4, 0, 5, 5],
                [0, 1, 2, 0, 1, 3, 3, 4, 4, 4, 0, 5, 6],
                [0, 1, 2, 0, 1, 3, 3, 4, 4, 4, 5, 6, 7],
            ],
            merges: [
                (0, 3, 0x0000000000000000, 2),
                (7, 8, 0x0000000000000000, 2),
                (1, 4, 0x3ff0000000000000, 2),
                (5, 6, 0x3ff0000000000000, 2),
                (9, 14, 0x4001e3779b97f4a8, 3),
                (10, 13, 0x4006a09e667f3bcd, 3),
                (11, 12, 0x4008000000000000, 2),
                (2, 15, 0x4010000000000000, 3),
                (16, 17, 0x4010f876ccdf6cd9, 5),
                (18, 20, 0x4022000000000000, 6),
                (19, 21, 0x4022f9422c23c47e, 7),
                (22, 23, 0x402974b2334f2346, 13),
            ],
            fingerprint: "15866e01999423d7",
        },
        StudyPin {
            label: "sar_machine_b",
            characterization: Characterization::SarCounters(Machine::B),
            recommended_k: 3,
            cuts: [
                [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0],
                [0, 1, 0, 0, 0, 2, 2, 2, 2, 2, 2, 1, 1],
                [0, 1, 0, 0, 0, 2, 2, 2, 2, 2, 3, 1, 1],
                [0, 1, 0, 0, 0, 2, 2, 2, 3, 3, 4, 1, 1],
                [0, 1, 0, 0, 0, 2, 2, 2, 3, 3, 4, 5, 5],
                [0, 1, 0, 0, 0, 2, 2, 2, 3, 4, 5, 6, 6],
                [0, 1, 0, 2, 0, 3, 3, 3, 4, 5, 6, 7, 7],
            ],
            merges: [
                (0, 2, 0x0000000000000000, 2),
                (5, 7, 0x0000000000000000, 2),
                (4, 13, 0x3ff0000000000000, 3),
                (11, 12, 0x3ff0000000000000, 2),
                (6, 14, 0x4001e3779b97f4a8, 3),
                (3, 15, 0x400cd82b446159f3, 4),
                (8, 9, 0x400cd82b446159f3, 2),
                (1, 16, 0x4014000000000000, 3),
                (17, 19, 0x4014000000000000, 5),
                (10, 21, 0x4022000000000000, 6),
                (18, 20, 0x4023b29d7d635662, 7),
                (22, 23, 0x402974b2334f2346, 13),
            ],
            fingerprint: "3d545fcf4f076781",
        },
        StudyPin {
            label: "method_utilization",
            characterization: Characterization::MethodUtilization,
            recommended_k: 3,
            cuts: [
                [0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0],
                [0, 1, 1, 2, 1, 0, 0, 0, 0, 0, 1, 2, 2],
                [0, 1, 2, 3, 2, 0, 0, 0, 0, 0, 1, 3, 3],
                [0, 1, 2, 3, 2, 0, 0, 0, 0, 0, 1, 4, 3],
                [0, 1, 2, 3, 2, 0, 0, 0, 0, 0, 1, 4, 5],
                [0, 1, 2, 3, 2, 4, 4, 4, 4, 4, 1, 5, 6],
                [0, 1, 2, 3, 4, 5, 5, 5, 5, 5, 1, 6, 7],
            ],
            merges: [
                (5, 6, 0x0000000000000000, 2),
                (7, 13, 0x0000000000000000, 3),
                (8, 14, 0x0000000000000000, 4),
                (9, 15, 0x0000000000000000, 5),
                (1, 10, 0x4008000000000000, 2),
                (2, 4, 0x40094c583ada5b53, 2),
                (0, 16, 0x4010000000000000, 6),
                (3, 12, 0x4010000000000000, 2),
                (11, 20, 0x4016a09e667f3bcd, 3),
                (17, 18, 0x40221c5b70d9f824, 4),
                (19, 21, 0x4023b29d7d635662, 9),
                (22, 23, 0x402974b2334f2346, 13),
            ],
            fingerprint: "9ce00f6f245bf6ce",
        },
    ]
}

/// FNV-1a digest of a dendrogram: the leaf count, then each merge's
/// `(left, right, distance bits, size)` in order.
fn dendrogram_digest(d: &Dendrogram) -> String {
    let mut h = Fnv1a64::new();
    h.update_u64(d.n_leaves() as u64);
    for m in d.merges() {
        h.update_u64(m.left as u64);
        h.update_u64(m.right as u64);
        h.update_f64(m.distance);
        h.update_u64(m.size as u64);
    }
    h.finish_hex()
}

#[test]
fn paper_studies_match_golden_outputs() {
    for pin in study_pins() {
        let label = pin.label;
        let collector = Collector::enabled();
        let analysis = SuiteAnalysis::paper_with(pin.characterization, &collector).unwrap();
        assert_eq!(
            analysis.recommended_k(),
            pin.recommended_k,
            "{label}: recommended k"
        );
        assert_eq!(K_RANGE.count(), pin.cuts.len());
        for (k, want) in K_RANGE.zip(&pin.cuts) {
            let cut = analysis.pipeline().clusters(k).unwrap();
            assert_eq!(cut.labels(), want, "{label}: cut labels at k = {k}");
        }
        let merges: Vec<MergePin> = analysis
            .pipeline()
            .dendrogram()
            .merges()
            .iter()
            .map(|m| (m.left, m.right, m.distance.to_bits(), m.size))
            .collect();
        assert_eq!(merges, pin.merges, "{label}: dendrogram merges");
        let fingerprint = collector.report().unwrap().fingerprint();
        assert_eq!(
            fnv1a64_hex(fingerprint.as_bytes()),
            pin.fingerprint,
            "{label}: trace fingerprint"
        );
    }
}

#[test]
fn scaled_pipeline_dendrogram_matches_golden_digest() {
    let planted = gaussian_mixture(&MixtureSpec::separated(1024, 16, 8, 7)).unwrap();
    let result = run_pipeline(&planted.points, &PipelineConfig::scaled(1024)).unwrap();
    assert_eq!(dendrogram_digest(result.dendrogram()), "bc7cdeb3fd71aa5b");
}

#[test]
fn raw_space_dendrograms_match_golden_digests() {
    let pins = [
        (
            Characterization::SarCounters(Machine::A),
            "7e32e5802201f00b",
            "128ccd0d16382700",
        ),
        (
            Characterization::SarCounters(Machine::B),
            "1e95c683aa113d0b",
            "a55da5451e88fd31",
        ),
        (
            Characterization::MethodUtilization,
            "8d9bbf609ae16cb6",
            "6bdced9dafa577c3",
        ),
    ];
    for (characterization, norm_trick, scalar) in pins {
        let vectors = paper_vectors(characterization, &Collector::disabled()).unwrap();
        let raw = run_without_som(vectors.matrix(), &PipelineConfig::default()).unwrap();
        assert_eq!(dendrogram_digest(&raw), norm_trick, "{characterization:?}");
        // The exact scalar kernel gives a different dendrogram on these
        // inputs, so the digest above also pins which kernel ran.
        let exact = pairwise(vectors.matrix(), Metric::Euclidean).unwrap();
        let oracle =
            cluster_from_distances(&exact, Linkage::Complete, &Collector::disabled()).unwrap();
        assert_eq!(dendrogram_digest(&oracle), scalar, "{characterization:?}");
    }
}
