//! Ablation studies as tests: quantify the design choices DESIGN.md calls
//! out, using agreement with the recovered reference clusterings as the
//! quality metric.

use hiermeans::cluster::{agglomerative, ClusterAssignment, Linkage};
use hiermeans::core::pipeline::{run_pipeline, run_without_som, PipelineConfig};
use hiermeans::linalg::distance::Metric;
use hiermeans::linalg::pca::Pca;
use hiermeans::obs::Collector;
use hiermeans::workload::charvec::CharacteristicVectors;
use hiermeans::workload::hprof::HprofCollector;
use hiermeans::workload::measurement::{reference_clustering, Characterization};
use hiermeans::workload::sar::SarCollector;
use hiermeans::workload::Machine;

fn reference_assignment(ch: Characterization, k: usize) -> ClusterAssignment {
    let clusters = reference_clustering(ch, k).unwrap();
    let mut labels = vec![0usize; 13];
    for (c, members) in clusters.iter().enumerate() {
        for &i in members {
            labels[i] = c;
        }
    }
    ClusterAssignment::from_labels(&labels).unwrap()
}

fn vectors(ch: Characterization) -> hiermeans::linalg::Matrix {
    match ch {
        Characterization::SarCounters(m) => {
            let ds = SarCollector::paper().collect(m).unwrap();
            CharacteristicVectors::from_sar(&ds)
                .unwrap()
                .matrix()
                .clone()
        }
        _ => {
            let ds = HprofCollector::paper().collect();
            CharacteristicVectors::from_methods(&ds)
                .unwrap()
                .matrix()
                .clone()
        }
    }
}

/// Mean Rand index against the reference chain over k = 4..=7.
fn chain_agreement(ch: Characterization, cut: impl Fn(usize) -> ClusterAssignment) -> f64 {
    let mut total = 0.0;
    for k in 4..=7 {
        let reference = reference_assignment(ch, k);
        total += cut(k).rand_index(&reference).unwrap();
    }
    total / 4.0
}

#[test]
fn raw_vector_clustering_reproduces_the_reference_chain() {
    // The characteristic vectors carry the structure: complete-linkage
    // clustering directly on them agrees near-perfectly with the recovered
    // chains on the SAR characterizations (the per-counter standardization
    // slightly reweights the latent axes, so close merge orders can swap).
    for ch in [
        Characterization::SarCounters(Machine::A),
        Characterization::SarCounters(Machine::B),
    ] {
        let v = vectors(ch);
        let dend = run_without_som(&v, &PipelineConfig::default()).unwrap();
        let agreement = chain_agreement(ch, |k| dend.cut_into(k).unwrap());
        assert!(agreement > 0.9, "{ch}: raw-vector agreement {agreement}");
    }
}

#[test]
fn som_pipeline_agreement_is_high() {
    // The SOM quantizes to grid cells, so some agreement is lost relative to
    // raw-vector clustering; it must stay high.
    for ch in Characterization::paper_set() {
        let v = vectors(ch);
        let res = run_pipeline(&v, &PipelineConfig::default()).unwrap();
        let agreement = chain_agreement(ch, |k| res.clusters(k).unwrap());
        assert!(agreement > 0.75, "{ch}: SOM-pipeline agreement {agreement}");
    }
}

#[test]
fn pca_baseline_works_but_som_handles_bit_vectors() {
    // The paper's argument for SOM over PCA (Section III-A): the bit-vector
    // method-utilization data is highly non-linear. Verify PCA reduction
    // still clusters SciMark2 together (they are identical vectors) but
    // measure both reductions' chain agreement for the record.
    let ch = Characterization::MethodUtilization;
    let v = vectors(ch);
    let pca = Pca::fit(&v, 2).unwrap();
    let reduced = pca.transform(&v).unwrap();
    let dend = agglomerative::cluster(
        &reduced,
        Metric::Euclidean,
        Linkage::Complete,
        &Collector::disabled(),
    )
    .unwrap();
    let pca_agreement = chain_agreement(ch, |k| dend.cut_into(k).unwrap());

    let res = run_pipeline(&v, &PipelineConfig::default()).unwrap();
    let som_agreement = chain_agreement(ch, |k| res.clusters(k).unwrap());

    // Both reductions must keep the (identical) SciMark2 rows together.
    let pca_cut = dend.cut_into(5).unwrap();
    let som_cut = res.clusters(5).unwrap();
    for w in 6..=9 {
        assert!(pca_cut.same_cluster(5, w));
        assert!(som_cut.same_cluster(5, w));
    }
    // Record-keeping assertion: both carry most of the chain.
    assert!(pca_agreement > 0.6, "pca agreement {pca_agreement}");
    assert!(som_agreement > 0.6, "som agreement {som_agreement}");
}

#[test]
fn linkage_ablation_all_monotone_rules_recover_the_structure() {
    // The paper chose complete linkage; on this well-separated suite every
    // monotone linkage rule recovers most of the reference chain, which is
    // itself worth recording (the choice matters more on chaining-prone
    // data — see the single-linkage chaining test below).
    let ch = Characterization::SarCounters(Machine::A);
    let v = vectors(ch);
    for linkage in [
        Linkage::Complete,
        Linkage::Single,
        Linkage::Average,
        Linkage::Ward,
    ] {
        let d =
            agglomerative::cluster(&v, Metric::Euclidean, linkage, &Collector::disabled()).unwrap();
        let agreement = chain_agreement(ch, |k| d.cut_into(k).unwrap());
        assert!(agreement > 0.85, "{linkage}: agreement {agreement}");
    }
}

#[test]
fn single_linkage_chains_where_complete_does_not() {
    // The classic failure mode motivating the paper's complete-linkage
    // choice: a bridge of intermediate points chains two groups under
    // single linkage, while complete linkage keeps them apart.
    let rows: Vec<Vec<f64>> = vec![
        vec![0.0, 0.0],
        vec![0.5, 0.0],
        vec![8.0, 0.0],
        vec![8.5, 0.0],
        // A bridge at spacing 1.1 between the groups.
        vec![1.6, 0.0],
        vec![2.7, 0.0],
        vec![3.8, 0.0],
        vec![4.9, 0.0],
        vec![6.0, 0.0],
        vec![7.1, 0.0],
    ];
    let pts = hiermeans::linalg::Matrix::from_rows(&rows).unwrap();
    let single = agglomerative::cluster(
        &pts,
        Metric::Euclidean,
        Linkage::Single,
        &Collector::disabled(),
    )
    .unwrap();
    let complete = agglomerative::cluster(
        &pts,
        Metric::Euclidean,
        Linkage::Complete,
        &Collector::disabled(),
    )
    .unwrap();
    // Under single linkage the root merge happens at the largest gap (1.1);
    // under complete linkage the two halves only merge at diameter scale.
    let root = |d: &hiermeans::cluster::Dendrogram| d.merges().last().unwrap().distance;
    assert!(root(&single) < 1.2);
    assert!(root(&complete) > 4.0);
}

#[test]
fn sample_noise_sensitivity() {
    // Doubling the SAR sampling noise must not destroy the cluster
    // structure (the latent geometry dominates).
    let ds = SarCollector::paper()
        .with_sample_noise(0.16)
        .unwrap()
        .collect(Machine::A)
        .unwrap();
    let v = CharacteristicVectors::from_sar(&ds).unwrap();
    let dend = run_without_som(v.matrix(), &PipelineConfig::default()).unwrap();
    let agreement = chain_agreement(Characterization::SarCounters(Machine::A), |k| {
        dend.cut_into(k).unwrap()
    });
    assert!(agreement > 0.9, "noisy agreement {agreement}");
}
