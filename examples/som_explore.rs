//! Exploring the SOM substrate: kernels, topologies, training modes, and
//! map-quality metrics on synthetic cluster data, with U-matrix heatmaps.
//!
//! ```text
//! cargo run --example som_explore
//! ```

use hiermeans::linalg::Matrix;
use hiermeans::obs::Collector;
use hiermeans::som::{
    quality, umatrix, GridTopology, NeighborhoodKernel, SomBuilder, TrainingMode,
};
use hiermeans::viz::heatmap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three Gaussian-ish blobs in 5-D.
    let mut rows = Vec::new();
    let centers = [
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [6.0, 6.0, 0.0, 0.0, 3.0],
        [0.0, 6.0, 6.0, 3.0, 0.0],
    ];
    for (b, center) in centers.iter().enumerate() {
        for i in 0..8 {
            // Small deterministic perturbations around each center.
            let row: Vec<f64> = center
                .iter()
                .enumerate()
                .map(|(d, &c)| c + ((b * 31 + i * 7 + d * 3) % 10) as f64 * 0.05)
                .collect();
            rows.push(row);
        }
    }
    let data = Matrix::from_rows(&rows)?;

    for topology in [GridTopology::Rectangular, GridTopology::Hexagonal] {
        for kernel in [
            NeighborhoodKernel::Gaussian,
            NeighborhoodKernel::Bubble,
            NeighborhoodKernel::CutGaussian,
        ] {
            for mode in [TrainingMode::Online, TrainingMode::Batch] {
                let som = SomBuilder::new(8, 8)
                    .topology(topology)
                    .kernel(kernel)
                    .mode(mode)
                    .epochs(80)
                    .seed(42)
                    .train(&data)?;
                let qe = quality::quantization_error(&som, &data)?;
                let te = quality::topographic_error(&som, &data)?;
                println!(
                    "{topology:?} + {kernel:?} + {mode:?}: quantization error {qe:.3}, topographic error {te:.3}"
                );
            }
        }
    }

    // U-matrix of the default configuration: ridges mark cluster borders.
    let som = SomBuilder::new(8, 8).epochs(120).seed(42).train(&data)?;
    let u = umatrix::u_matrix(&som)?;
    println!("\nU-matrix (dark ridges separate the three blobs):\n");
    println!("{}", heatmap::render(&u));

    // Convergence: quantization error per epoch ("continue until converge"),
    // read from the traced run's per-epoch quality records.
    let collector = Collector::enabled();
    SomBuilder::new(8, 8)
        .epochs(60)
        .seed(42)
        .train_traced(&data, &collector)?;
    let records = collector
        .report()
        .ok_or("an enabled collector yields a report")?
        .som_epochs;
    let sampled: Vec<f64> = records
        .iter()
        .step_by(10)
        .map(|r| r.quantization_error)
        .collect();
    let labels: Vec<String> = records
        .iter()
        .step_by(10)
        .map(|r| format!("epoch {:>2}", r.epoch))
        .collect();
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    println!("quantization error during training:\n");
    println!(
        "{}",
        hiermeans::viz::barchart::render(&label_refs, &sampled, 40)
    );
    Ok(())
}
