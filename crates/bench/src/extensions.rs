//! Experiments beyond the paper's figures: the motivation scenarios made
//! quantitative, and the mean-family sweep the paper describes but does not
//! evaluate.

use hiermeans_cluster::{agglomerative, selection, Linkage};
use hiermeans_core::hierarchical::{hierarchical_mean, hierarchical_mean_of};
use hiermeans_core::means::Mean;
use hiermeans_core::robustness;
use hiermeans_core::score::ScoreTable;
use hiermeans_core::CoreError;
use hiermeans_linalg::Matrix;
use hiermeans_viz::table::TextTable;
use hiermeans_workload::execution::SpeedupTable;
use hiermeans_workload::measurement::{reference_clustering, Characterization};
use hiermeans_workload::merger::MergeScenario;
use hiermeans_workload::Machine;

use crate::experiments::SHORT_NAMES;
use hiermeans_obs::Collector;

/// Suite-merger sweep: inject 0..=8 jittered clones of a SciMark2-like
/// donor into the 8-workload base suite, cluster the merged suite, and
/// compare plain vs hierarchical scores. Quantifies the paper's "artificial
/// redundancy" motivation.
///
/// # Errors
///
/// Propagates simulation, clustering and scoring errors.
pub fn merger_sweep() -> Result<String, CoreError> {
    let mut t = TextTable::new(vec![
        "clones".into(),
        "plain r".into(),
        "HGM* r".into(),
        "HGM r".into(),
        "elbow k".into(),
    ]);
    for clones in 0..=8usize {
        let merged = MergeScenario {
            clones,
            ..Default::default()
        }
        .build()?;
        let a = merged.speedups(Machine::A);
        let b = merged.speedups(Machine::B);
        let plain_a = Mean::Geometric.compute(a)?;
        let plain_b = Mean::Geometric.compute(b)?;
        let n = merged.suite().len();

        // HGM*: base workloads stay singletons, the injected donors form
        // one detected cluster — isolating the pure anti-redundancy effect.
        let mut donor_only: Vec<Vec<usize>> = (0..merged.base_len()).map(|i| vec![i]).collect();
        if clones > 0 {
            donor_only.push(merged.donor_indices());
        }
        let star_a = hierarchical_mean(a, &donor_only, Mean::Geometric)?;
        let star_b = hierarchical_mean(b, &donor_only, Mean::Geometric)?;

        // HGM: the full clustering pipeline over the merged geometry with
        // the elbow heuristic choosing k — base workloads may cluster too.
        let pts = Matrix::from_rows(
            &merged
                .positions()
                .iter()
                .map(|p| vec![p[0], p[1]])
                .collect::<Vec<_>>(),
        )?;
        let dendrogram = agglomerative::cluster(&pts, Linkage::Complete, &Collector::disabled())?;
        let (hgm_a, hgm_b, k) = if n >= 3 && clones > 0 {
            let k = selection::elbow_k(&dendrogram, 2..=(n - 1).min(9))?;
            let cut = dendrogram.cut_into(k)?;
            (
                hierarchical_mean_of(a, &cut, Mean::Geometric)?,
                hierarchical_mean_of(b, &cut, Mean::Geometric)?,
                k,
            )
        } else {
            (plain_a, plain_b, n)
        };
        t.add_row(vec![
            format!("{clones}"),
            format!("{:.3}", plain_a / plain_b),
            format!("{:.3}", star_a / star_b),
            format!("{:.3}", hgm_a / hgm_b),
            format!("{k}"),
        ]);
    }
    Ok(format!(
        "Extension: suite-merger redundancy sweep\n\
         Injecting jittered clones of one donor archetype into the 8-workload\n\
         base suite. The plain ratio drifts with every clone. HGM* clusters\n\
         only the detected donor group (pure anti-redundancy effect: near-\n\
         constant); HGM uses the full pipeline clustering at the elbow k\n\
         (base-suite clusters shift the level, but the clone count stops\n\
         mattering).\n\n{}",
        t.render()
    ))
}

/// Jackknife robustness table on the paper suite at machine A's recovered
/// k=6 clustering: score swing from dropping each workload, plain vs HGM.
///
/// # Errors
///
/// Propagates scoring errors.
pub fn jackknife_table() -> Result<String, CoreError> {
    let speedups = SpeedupTable::paper_exact();
    let clusters =
        reference_clustering(Characterization::SarCounters(Machine::A), 6).expect("k=6 exists");
    let mut t = TextTable::new(vec![
        "removed".into(),
        "plain dA%".into(),
        "HGM dA%".into(),
        "plain dB%".into(),
        "HGM dB%".into(),
    ]);
    let rows_a = robustness::jackknife(speedups.speedups(Machine::A), &clusters, Mean::Geometric)?;
    let rows_b = robustness::jackknife(speedups.speedups(Machine::B), &clusters, Mean::Geometric)?;
    for (ra, rb) in rows_a.iter().zip(&rows_b) {
        t.add_row(vec![
            SHORT_NAMES[ra.removed].into(),
            format!("{:+.2}", ra.plain_delta * 100.0),
            format!("{:+.2}", ra.hierarchical_delta * 100.0),
            format!("{:+.2}", rb.plain_delta * 100.0),
            format!("{:+.2}", rb.hierarchical_delta * 100.0),
        ]);
    }
    let (wp, wh) =
        robustness::worst_case_swing(speedups.speedups(Machine::A), &clusters, Mean::Geometric)?;
    Ok(format!(
        "Extension: jackknife robustness (machine A clustering, k=6)\n\
         Relative score change when one workload is removed. Redundant\n\
         (clustered) workloads barely move the HGM.\n\n{}\n\
         worst-case |swing| on A: plain {:.2}%, HGM {:.2}%\n",
        t.render(),
        wp * 100.0,
        wh * 100.0
    ))
}

/// The mean-family sweep: HGM vs HAM vs HHM over the recovered machine-A
/// clusterings — the paper defines all three but evaluates only HGM.
///
/// # Errors
///
/// Propagates scoring errors.
pub fn mean_family_table() -> Result<String, CoreError> {
    let speedups = SpeedupTable::paper_exact();
    let ch = Characterization::SarCounters(Machine::A);
    let mut t = TextTable::new(vec![
        "k".into(),
        "HHM A".into(),
        "HGM A".into(),
        "HAM A".into(),
        "HHM r".into(),
        "HGM r".into(),
        "HAM r".into(),
    ]);
    let mut tables = Vec::new();
    for mean in [Mean::Harmonic, Mean::Geometric, Mean::Arithmetic] {
        tables.push(ScoreTable::compute(&speedups, 2..=8, mean, |k| {
            reference_clustering(ch, k).ok_or(CoreError::InvalidClusters { reason: "missing" })
        })?);
    }
    for k in 2..=8usize {
        let rows: Vec<&hiermeans_core::score::ScoreRow> =
            tables.iter().map(|t| t.row(k).expect("scored")).collect();
        t.add_row(vec![
            format!("{k}"),
            format!("{:.2}", rows[0].score_a),
            format!("{:.2}", rows[1].score_a),
            format!("{:.2}", rows[2].score_a),
            format!("{:.2}", rows[0].ratio()),
            format!("{:.2}", rows[1].ratio()),
            format!("{:.2}", rows[2].ratio()),
        ]);
    }
    t.add_separator();
    t.add_row(vec![
        "plain".into(),
        format!("{:.2}", tables[0].plain_a()),
        format!("{:.2}", tables[1].plain_a()),
        format!("{:.2}", tables[2].plain_a()),
        format!("{:.2}", tables[0].plain_ratio()),
        format!("{:.2}", tables[1].plain_ratio()),
        format!("{:.2}", tables[2].plain_ratio()),
    ]);
    Ok(format!(
        "Extension: the full mean family over machine A's clusterings\n\
         (HHM <= HGM <= HAM at every k, each degenerating to its plain mean)\n\n{}",
        t.render()
    ))
}

/// Duplication-attack curve: plain vs HGM ratio drift as copies of mtrt are
/// added (the library version of `examples/redundancy_attack.rs`).
///
/// # Errors
///
/// Propagates scoring errors.
pub fn duplication_curve() -> Result<String, CoreError> {
    let speedups = SpeedupTable::paper_exact();
    let a = speedups.speedups(Machine::A);
    let b = speedups.speedups(Machine::B);
    let mtrt = 4usize;
    let mut t = TextTable::new(vec![
        "copies".into(),
        "plain ratio".into(),
        "HGM ratio".into(),
    ]);
    for copies in [0usize, 1, 2, 4, 8, 16, 32] {
        let mut pa = a.to_vec();
        let mut pb = b.to_vec();
        pa.extend(std::iter::repeat_n(a[mtrt], copies));
        pb.extend(std::iter::repeat_n(b[mtrt], copies));
        let n = pa.len();
        let mut clusters: Vec<Vec<usize>> =
            (0..13).filter(|&i| i != mtrt).map(|i| vec![i]).collect();
        let mut cluster = vec![mtrt];
        cluster.extend(13..n);
        clusters.push(cluster);
        let plain = Mean::Geometric.compute(&pa)? / Mean::Geometric.compute(&pb)?;
        let hier = hierarchical_mean(&pa, &clusters, Mean::Geometric)?
            / hierarchical_mean(&pb, &clusters, Mean::Geometric)?;
        t.add_row(vec![
            format!("{copies}"),
            format!("{plain:.3}"),
            format!("{hier:.3}"),
        ]);
    }
    Ok(format!(
        "Extension: duplication attack on the plain geometric mean\n\
         (padding with copies of mtrt, the workload with the best A/B ratio)\n\n{}",
        t.render()
    ))
}

/// Suite-evaluation report: the paper's "quantitative, objective" suite
/// check (Section VII) run on the paper suite under each characterization's
/// pipeline clustering at the recommended k.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn suite_evaluation() -> Result<String, CoreError> {
    use hiermeans_core::analysis::SuiteAnalysis;
    use hiermeans_core::evaluation::SuiteEvaluation;

    let sources: Vec<&str> = {
        let suite = hiermeans_workload::BenchmarkSuite::paper();
        (0..suite.len())
            .map(|i| match suite.workload(i).suite() {
                hiermeans_workload::SourceSuite::SpecJvm98 => "SPECjvm98",
                hiermeans_workload::SourceSuite::SciMark2 => "SciMark2",
                hiermeans_workload::SourceSuite::DaCapo => "DaCapo",
                _ => "custom",
            })
            .collect()
    };
    let mut out = String::from(
        "Extension: suite evaluation (per-source redundancy at the recommended k)\n\n",
    );
    for ch in Characterization::paper_set() {
        let analysis = SuiteAnalysis::paper(ch)?;
        let cut = analysis.pipeline().clusters(analysis.recommended_k())?;
        let eval = SuiteEvaluation::evaluate(&sources, &cut)?;
        out.push_str(&format!("{ch} (k = {}):\n", analysis.recommended_k()));
        out.push_str(&eval.render());
        out.push('\n');
    }
    Ok(out)
}

/// Microarchitecture-independent characterization: the paper's suggested
/// extension for non-Java workloads ("instruction mix, memory strides,
/// etc."). Generates synthetic instruction traces for the 13 workloads,
/// extracts MICA-style features, runs the full SOM + clustering pipeline,
/// and scores the cuts — a fourth characterization next to SAR-A, SAR-B and
/// method utilization.
///
/// # Errors
///
/// Propagates trace, pipeline and scoring errors.
pub fn mica_characterization() -> Result<String, CoreError> {
    use hiermeans_core::pipeline::{run_pipeline, PipelineConfig};
    use hiermeans_viz::{dendrogram as viz_dend, som_map};
    use hiermeans_workload::charvec::CharacteristicVectors;

    let (names, features) = hiermeans_workload::mica::characterize_paper_suite(0x41CA)?;
    let vectors = CharacteristicVectors::from_features(&names, &features)?;
    let result = run_pipeline(vectors.matrix(), &PipelineConfig::default())?;

    let positions = result.positions();
    let cells: Vec<(usize, usize)> = (0..positions.nrows())
        .map(|i| (positions[(i, 0)] as usize, positions[(i, 1)] as usize))
        .collect();
    let map = som_map::render(result.som().grid(), &cells, &SHORT_NAMES);
    let tree = viz_dend::render_tree(result.dendrogram(), &SHORT_NAMES);

    let speedups = SpeedupTable::paper_exact();
    let table = ScoreTable::from_dendrogram(&speedups, result.dendrogram(), 8, Mean::Geometric)?;
    let mut t = TextTable::new(vec![
        "k".into(),
        "HGM A".into(),
        "HGM B".into(),
        "ratio".into(),
    ]);
    for row in table.rows() {
        t.add_row(vec![
            format!("{}", row.k),
            format!("{:.2}", row.score_a),
            format!("{:.2}", row.score_b),
            format!("{:.2}", row.ratio()),
        ]);
    }
    Ok(format!(
        "Extension: microarchitecture-independent characterization\n\
         (synthetic instruction traces -> MICA features -> SOM -> clustering;\n\
         {} features survive the invariance filter)\n\n{map}\n{tree}\n{}",
        vectors.matrix().ncols(),
        t.render()
    ))
}

/// Counter-correlation analysis: quantifies the redundancy *within* the
/// characteristic vectors that motivates the paper's dimension-reduction
/// stage ("due to the high dimensionality of the characteristic vectors and
/// the correlation among characteristic vector elements, dimension
/// reduction and transformation will be necessary", Section III).
///
/// # Errors
///
/// Propagates characterization and statistics errors.
pub fn counter_correlation() -> Result<String, CoreError> {
    use hiermeans_linalg::stats;
    use hiermeans_workload::charvec::CharacteristicVectors;
    use hiermeans_workload::sar::SarCollector;

    let mut t = TextTable::new(vec![
        "machine".into(),
        "counters".into(),
        "|r| > 0.9 pairs".into(),
        "share".into(),
        "PCA dims for 95% var".into(),
    ]);
    for machine in Machine::COMPARISON {
        let ds = SarCollector::paper().collect(machine)?;
        let cv = CharacteristicVectors::from_sar(&ds)?;
        let m = cv.matrix();
        let r = stats::correlation_matrix(m)?;
        let p = m.ncols();
        let mut high = 0usize;
        let mut total = 0usize;
        for i in 0..p {
            for j in (i + 1)..p {
                total += 1;
                if r[(i, j)].abs() > 0.9 {
                    high += 1;
                }
            }
        }
        // Dual PCA on the 13 x ~200 standardized matrix: how many components
        // carry 95% of the variance?
        let pca = hiermeans_linalg::pca::Pca::fit(m, 12)?;
        let ratios = pca.explained_variance_ratio();
        let mut cumulative = 0.0;
        let mut dims = ratios.len();
        for (i, v) in ratios.iter().enumerate() {
            cumulative += v;
            if cumulative >= 0.95 {
                dims = i + 1;
                break;
            }
        }
        t.add_row(vec![
            machine.to_string(),
            format!("{p}"),
            format!("{high}"),
            format!("{:.1}%", high as f64 / total as f64 * 100.0),
            format!("{dims}"),
        ]);
    }
    Ok(format!(
        "Extension: counter-correlation analysis\n\
         The ~200 SAR counters are massively redundant — a large share of\n\
         counter pairs correlate almost perfectly, and a handful of principal\n\
         components carry 95% of the variance — which is why the paper\n\
         reduces dimensionality before clustering.\n\n{}",
        t.render()
    ))
}

/// Machine-readable study reports for all three characterizations, as one
/// JSON array (archivable, diffable experiment output).
///
/// # Errors
///
/// Propagates analysis and serialization errors.
pub fn json_reports() -> Result<String, CoreError> {
    let mut reports = Vec::new();
    for ch in Characterization::paper_set() {
        let analysis = hiermeans_core::analysis::SuiteAnalysis::paper(ch)?;
        reports.push(hiermeans_core::report::StudyReport::from_analysis(
            &analysis,
        )?);
    }
    serde_json::to_string_pretty(&reports).map_err(|_| CoreError::InvalidClusters {
        reason: "report serialization failed",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merger_sweep_shows_plain_drift_and_hgm_stability() {
        let s = merger_sweep().unwrap();
        let rows: Vec<&str> = s
            .lines()
            .filter(|l| l.contains('|') && !l.contains("plain r"))
            .collect();
        assert_eq!(rows.len(), 9);
        let parse = |line: &str, col: usize| -> f64 {
            line.split('|').nth(col).unwrap().trim().parse().unwrap()
        };
        // Adding the donor behaviour changes both scores once (a genuinely
        // new behaviour entered the suite); the redundancy question is what
        // happens from the FIRST clone onward.
        let plain_1 = parse(rows[1], 1);
        let plain_8 = parse(rows[8], 1);
        let star_1 = parse(rows[1], 2);
        let star_8 = parse(rows[8], 2);
        // The donor favors B slightly, so the plain ratio keeps falling as
        // clones accumulate; the donor-cluster HGM* stays put (its residue
        // is clone-jitter averaging inside one 1/k-weighted cluster).
        assert!(
            (plain_8 - plain_1).abs() > 0.03,
            "plain {plain_1} -> {plain_8}"
        );
        assert!(
            (star_8 - star_1).abs() < 0.015,
            "HGM* {star_1} -> {star_8} should be nearly constant"
        );
    }

    #[test]
    fn jackknife_table_renders() {
        let s = jackknife_table().unwrap();
        assert!(s.contains("compress"));
        assert!(s.contains("worst-case"));
    }

    #[test]
    fn mean_family_ordering_in_table() {
        let s = mean_family_table().unwrap();
        // Extract the k=6 row and verify HHM <= HGM <= HAM on machine A.
        let row = s
            .lines()
            .find(|l| l.split('|').next().is_some_and(|c| c.trim() == "6"))
            .unwrap();
        let cells: Vec<f64> = row
            .split('|')
            .skip(1)
            .take(3)
            .map(|c| c.trim().parse().unwrap())
            .collect();
        assert!(cells[0] <= cells[1] && cells[1] <= cells[2], "{cells:?}");
    }

    #[test]
    fn duplication_curve_monotone_for_plain() {
        let s = duplication_curve().unwrap();
        let ratios: Vec<f64> = s
            .lines()
            .filter(|l| l.contains('|') && !l.contains("copies"))
            .map(|l| l.split('|').nth(1).unwrap().trim().parse().unwrap())
            .collect();
        assert!(ratios.windows(2).all(|w| w[1] >= w[0]));
        // HGM column constant.
        let hgm: Vec<f64> = s
            .lines()
            .filter(|l| l.contains('|') && !l.contains("copies"))
            .map(|l| l.split('|').nth(2).unwrap().trim().parse().unwrap())
            .collect();
        assert!(hgm.iter().all(|&h| (h - hgm[0]).abs() < 1e-9));
    }
}
