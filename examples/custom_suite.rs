//! Scoring a *custom* suite: what a downstream user does with their own
//! benchmarks. Uses the mechanistic timing model (no paper data), builds
//! characteristic vectors from demand profiles, detects clusters, and
//! compares plain vs hierarchical scores on two hypothetical machines.
//!
//! ```text
//! cargo run --example custom_suite
//! ```

use hiermeans::cluster::{agglomerative, Linkage};
use hiermeans::core::hierarchical::hierarchical_mean_of;
use hiermeans::core::means::{geometric_mean, Mean};
use hiermeans::linalg::scale::Standardizer;
use hiermeans::linalg::Matrix;
use hiermeans::obs::Collector;
use hiermeans::workload::machine::Machine;
use hiermeans::workload::timing::{DemandProfile, TimingModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A custom 8-workload suite, described by resource demands. The four
    // "kernel" workloads are near-clones — a merged-benchmark smell.
    let workloads: Vec<(&str, DemandProfile)> = vec![
        ("webserver", demand(40.0, 12.0, 900.0, 0.8)),
        ("database", demand(25.0, 20.0, 1800.0, 0.5)),
        ("compiler", demand(90.0, 6.0, 600.0, 0.1)),
        ("video", demand(120.0, 10.0, 300.0, 0.9)),
        ("kernel-fft", demand(60.0, 2.0, 96.0, 0.0)),
        ("kernel-lu", demand(62.0, 2.2, 100.0, 0.0)),
        ("kernel-sor", demand(58.0, 1.9, 90.0, 0.0)),
        ("kernel-mm", demand(61.0, 2.1, 110.0, 0.0)),
    ];

    // Score on the paper's machines A and B via the analytical model.
    let model = TimingModel::default();
    let reference = Machine::Reference.spec();
    let mut speed_a = Vec::new();
    let mut speed_b = Vec::new();
    for (_, d) in &workloads {
        speed_a.push(model.speedup(d, &Machine::A.spec(), &reference)?);
        speed_b.push(model.speedup(d, &Machine::B.spec(), &reference)?);
    }

    // Characterize by the demand vectors themselves (microarchitecture-
    // independent features), standardized.
    let raw = Matrix::from_rows(
        &workloads
            .iter()
            .map(|(_, d)| {
                vec![
                    d.compute_gops,
                    d.memory_gb,
                    d.working_set_kb,
                    d.parallel_fraction,
                ]
            })
            .collect::<Vec<_>>(),
    )?;
    let vectors = Standardizer::fit_transform(&raw)?;
    let dendrogram = agglomerative::cluster(&vectors, Linkage::Complete, &Collector::disabled())?;

    println!("workload speedups over the reference machine:");
    for (i, (name, _)) in workloads.iter().enumerate() {
        println!(
            "  {name:<10} A: {:>5.2}  B: {:>5.2}",
            speed_a[i], speed_b[i]
        );
    }
    println!();

    let plain_a = geometric_mean(&speed_a)?;
    let plain_b = geometric_mean(&speed_b)?;
    println!(
        "plain GM          A: {plain_a:.3}  B: {plain_b:.3}  ratio {:.3}",
        plain_a / plain_b
    );

    for k in 2..=6 {
        let cut = dendrogram.cut_into(k)?;
        let ha = hierarchical_mean_of(&speed_a, &cut, Mean::Geometric)?;
        let hb = hierarchical_mean_of(&speed_b, &cut, Mean::Geometric)?;
        let groups: Vec<String> = cut
            .clusters()
            .iter()
            .map(|c| {
                let names: Vec<&str> = c.iter().map(|&i| workloads[i].0).collect();
                format!("{{{}}}", names.join(","))
            })
            .collect();
        println!(
            "HGM at k={k}        A: {ha:.3}  B: {hb:.3}  ratio {:.3}   {}",
            ha / hb,
            groups.join(" ")
        );
    }
    println!();
    println!(
        "The four kernel clones merge into one cluster, so the cache-friendly\n\
         kernels stop quadruple-counting in the score."
    );
    Ok(())
}

fn demand(gops: f64, mem: f64, ws: f64, par: f64) -> DemandProfile {
    DemandProfile {
        compute_gops: gops,
        memory_gb: mem,
        working_set_kb: ws,
        parallel_fraction: par,
    }
}
