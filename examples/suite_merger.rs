//! Suite-merger study: what happens to a benchmark score when a consortium
//! merges a donor suite of near-identical kernels into an existing suite —
//! the paper's "artificial redundancy" scenario (SciMark2 into SPECjvm2007)
//! with a tunable number of injected workloads.
//!
//! ```text
//! cargo run --example suite_merger
//! ```

use hiermeans::cluster::{agglomerative, selection, Linkage};
use hiermeans::core::hierarchical::hierarchical_mean_of;
use hiermeans::core::means::{geometric_mean, Mean};
use hiermeans::linalg::distance::Metric;
use hiermeans::linalg::Matrix;
use hiermeans::obs::Collector;
use hiermeans::viz::table::TextTable;
use hiermeans::workload::merger::MergeScenario;
use hiermeans::workload::Machine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = TextTable::new(vec![
        "clones".into(),
        "plain GM ratio".into(),
        "HGM ratio".into(),
        "detected clusters".into(),
    ]);
    for clones in 0..=8 {
        let merged = MergeScenario {
            clones,
            ..Default::default()
        }
        .build()?;
        let a = merged.speedups(Machine::A);
        let b = merged.speedups(Machine::B);
        let plain = geometric_mean(a)? / geometric_mean(b)?;

        let (hgm, k) = if clones > 0 {
            let pts = Matrix::from_rows(
                &merged
                    .positions()
                    .iter()
                    .map(|p| vec![p[0], p[1]])
                    .collect::<Vec<_>>(),
            )?;
            let dendrogram = agglomerative::cluster(
                &pts,
                Metric::Euclidean,
                Linkage::Complete,
                &Collector::disabled(),
            )?;
            let n = merged.suite().len();
            let k = selection::elbow_k(&dendrogram, 2..=(n - 1))?;
            let cut = dendrogram.cut_into(k)?;
            let h = hierarchical_mean_of(a, &cut, Mean::Geometric)?
                / hierarchical_mean_of(b, &cut, Mean::Geometric)?;
            (h, k)
        } else {
            (plain, merged.suite().len())
        };
        table.add_row(vec![
            format!("{clones}"),
            format!("{plain:.3}"),
            format!("{hgm:.3}"),
            format!("{k}"),
        ]);
    }
    println!(
        "Merging a donor suite of jittered kernel clones into an 8-workload\n\
         base suite. Every clone drags the plain score ratio further; once the\n\
         clustering pipeline detects the donor cluster, the HGM stops caring\n\
         how many clones were injected:\n"
    );
    println!("{}", table.render());
    Ok(())
}
