//! Microarchitecture-independent characterization (MICA-style features).
//!
//! Extracts the feature families of Eeckhout et al. \[5\] and Hoste &
//! Eeckhout \[6\] — the characterizations the paper recommends for non-Java
//! workloads — from an instruction trace:
//!
//! * instruction mix (5 fractions),
//! * branch behaviour (taken rate, transition rate),
//! * memory-stride distribution over logarithmic buckets, separately for
//!   loads and stores,
//! * working-set sizes at 64-byte (cache line) and 4-KB (page) granularity,
//! * producer-consumer dependency-distance distribution.
//!
//! All features are ratios or logarithms of counts — independent of any
//! machine's cache sizes or clocks, so clusters built from them transfer
//! across machines (the property the paper wants from Section V-C).

use hiermeans_linalg::Matrix;

use crate::suite::BenchmarkSuite;
use crate::trace::{generate, paper_profile, Instruction, DEFAULT_TRACE_LEN};
use crate::WorkloadError;

/// Stride histogram bucket boundaries in bytes (absolute strides):
/// `0, 1..=8, 9..=64, 65..=512, >512`.
const STRIDE_BUCKETS: usize = 5;

/// Dependency-distance buckets: `1, 2..=4, 5..=16, >16`.
const DEP_BUCKETS: usize = 4;

/// The fixed feature names, in column order.
pub fn feature_names() -> Vec<String> {
    let mut names = vec![
        "mix.int".to_owned(),
        "mix.fp".to_owned(),
        "mix.load".to_owned(),
        "mix.store".to_owned(),
        "mix.branch".to_owned(),
        "branch.taken_rate".to_owned(),
        "branch.transition_rate".to_owned(),
    ];
    for op in ["load", "store"] {
        for bucket in ["0", "1-8", "9-64", "65-512", ">512"] {
            names.push(format!("stride.{op}.{bucket}"));
        }
    }
    names.push("ws.log2_lines".to_owned());
    names.push("ws.log2_pages".to_owned());
    for bucket in ["1", "2-4", "5-16", ">16"] {
        names.push(format!("dep.{bucket}"));
    }
    names
}

/// Extracts the feature vector of one trace.
///
/// # Errors
///
/// Returns [`WorkloadError::InvalidParameter`] for an empty trace.
pub fn extract(trace: &[Instruction]) -> Result<Vec<f64>, WorkloadError> {
    if trace.is_empty() {
        return Err(WorkloadError::InvalidParameter {
            name: "trace",
            reason: "cannot characterize an empty trace",
        });
    }
    let n = trace.len() as f64;
    let mut mix = [0usize; 5]; // int, fp, load, store, branch
    let mut taken = 0usize;
    let mut transitions = 0usize;
    let mut branches = 0usize;
    let mut previous_outcome: Option<bool> = None;
    let mut load_strides = [0usize; STRIDE_BUCKETS];
    let mut store_strides = [0usize; STRIDE_BUCKETS];
    let mut loads = 0usize;
    let mut stores = 0usize;
    let mut last_load: Option<u64> = None;
    let mut last_store: Option<u64> = None;
    let mut lines = std::collections::HashSet::new();
    let mut pages = std::collections::HashSet::new();
    let mut deps = [0usize; DEP_BUCKETS];
    let mut dep_total = 0usize;

    let stride_bucket = |previous: Option<u64>, address: u64| -> Option<usize> {
        let prev = previous?;
        let stride = address.abs_diff(prev);
        Some(match stride {
            0 => 0,
            1..=8 => 1,
            9..=64 => 2,
            65..=512 => 3,
            _ => 4,
        })
    };
    let dep_bucket = |d: u32| -> usize {
        match d {
            0..=1 => 0,
            2..=4 => 1,
            5..=16 => 2,
            _ => 3,
        }
    };

    for instruction in trace {
        match instruction {
            Instruction::IntOp { dep_distance } => {
                mix[0] += 1;
                deps[dep_bucket(*dep_distance)] += 1;
                dep_total += 1;
            }
            Instruction::FpOp { dep_distance } => {
                mix[1] += 1;
                deps[dep_bucket(*dep_distance)] += 1;
                dep_total += 1;
            }
            Instruction::Load { address } => {
                mix[2] += 1;
                if let Some(bucket) = stride_bucket(last_load, *address) {
                    load_strides[bucket] += 1;
                }
                last_load = Some(*address);
                loads += 1;
                lines.insert(address >> 6);
                pages.insert(address >> 12);
            }
            Instruction::Store { address } => {
                mix[3] += 1;
                if let Some(bucket) = stride_bucket(last_store, *address) {
                    store_strides[bucket] += 1;
                }
                last_store = Some(*address);
                stores += 1;
                lines.insert(address >> 6);
                pages.insert(address >> 12);
            }
            Instruction::Branch { taken: t } => {
                mix[4] += 1;
                branches += 1;
                if *t {
                    taken += 1;
                }
                if let Some(prev) = previous_outcome {
                    if prev != *t {
                        transitions += 1;
                    }
                }
                previous_outcome = Some(*t);
            }
        }
    }

    let mut features = Vec::with_capacity(feature_names().len());
    for count in mix {
        features.push(count as f64 / n);
    }
    features.push(if branches > 0 {
        taken as f64 / branches as f64
    } else {
        0.0
    });
    features.push(if branches > 1 {
        transitions as f64 / (branches - 1) as f64
    } else {
        0.0
    });
    for (histogram, total) in [(load_strides, loads), (store_strides, stores)] {
        for count in histogram {
            features.push(if total > 1 {
                count as f64 / (total - 1) as f64
            } else {
                0.0
            });
        }
    }
    features.push((lines.len().max(1) as f64).log2());
    features.push((pages.len().max(1) as f64).log2());
    for count in deps {
        features.push(if dep_total > 0 {
            count as f64 / dep_total as f64
        } else {
            0.0
        });
    }
    Ok(features)
}

/// Generates traces for the whole paper suite and extracts the feature
/// matrix (`13 x n_features`).
///
/// # Errors
///
/// Propagates generation and extraction errors.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), hiermeans_workload::WorkloadError> {
/// let (names, features) = hiermeans_workload::mica::characterize_paper_suite(42)?;
/// assert_eq!(features.nrows(), 13);
/// assert_eq!(features.ncols(), names.len());
/// # Ok(())
/// # }
/// ```
pub fn characterize_paper_suite(seed: u64) -> Result<(Vec<String>, Matrix), WorkloadError> {
    let suite = BenchmarkSuite::paper();
    let names = feature_names();
    let mut rows = Vec::with_capacity(suite.len());
    for w in 0..suite.len() {
        let trace = generate(&paper_profile(w), DEFAULT_TRACE_LEN, seed ^ (w as u64) << 8)?;
        rows.push(extract(&trace)?);
    }
    Ok((names, Matrix::from_rows(&rows)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiermeans_linalg::distance::euclidean;

    #[test]
    fn feature_count_consistent() {
        let (names, m) = characterize_paper_suite(1).unwrap();
        assert_eq!(names.len(), 5 + 2 + 10 + 2 + 4);
        assert_eq!(m.shape(), (13, names.len()));
        assert!(m.is_finite());
    }

    #[test]
    fn mix_fractions_sum_to_one() {
        let (_, m) = characterize_paper_suite(1).unwrap();
        for w in 0..13 {
            let total: f64 = m.row(w)[..5].iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "workload {w}: {total}");
        }
    }

    #[test]
    fn fractions_in_unit_interval() {
        let (names, m) = characterize_paper_suite(1).unwrap();
        for (c, name) in names.iter().enumerate() {
            if name.starts_with("ws.") {
                continue; // log2 counts, not fractions
            }
            for v in m.col(c) {
                assert!((0.0..=1.0).contains(&v), "{name}: {v}");
            }
        }
    }

    #[test]
    fn scimark_features_mutually_close() {
        // The paper's expectation: microarchitecture-independent features
        // keep the SciMark2 kernels together across machines.
        let (_, m) = characterize_paper_suite(1).unwrap();
        let d = |a: usize, b: usize| euclidean(m.row(a), m.row(b)).unwrap();
        let mut max_within = 0.0f64;
        for i in 5..=9 {
            for j in (i + 1)..=9 {
                max_within = max_within.max(d(i, j));
            }
        }
        // Distance from any SciMark2 kernel to jess (the behavioural
        // opposite) dwarfs the within-SciMark2 spread.
        assert!(
            max_within * 2.0 < d(5, 1),
            "within {max_within} vs to-jess {}",
            d(5, 1)
        );
    }

    #[test]
    fn streaming_vs_chasing_visible_in_strides() {
        let (names, m) = characterize_paper_suite(1).unwrap();
        let col = names.iter().position(|n| n == "stride.load.1-8").unwrap();
        // compress streams sequentially; jess chases pointers.
        assert!(m[(0, col)] > m[(1, col)] + 0.3);
    }

    #[test]
    fn working_set_ordering_respected() {
        let (names, m) = characterize_paper_suite(1).unwrap();
        let col = names.iter().position(|n| n == "ws.log2_pages").unwrap();
        // hsqldb's heap dwarfs MonteCarlo's 32 KB kernel arrays.
        assert!(m[(10, col)] > m[(7, col)] + 1.0);
    }

    #[test]
    fn empty_trace_rejected() {
        assert!(extract(&[]).is_err());
    }

    #[test]
    fn deterministic() {
        let (_, a) = characterize_paper_suite(9).unwrap();
        let (_, b) = characterize_paper_suite(9).unwrap();
        assert_eq!(a, b);
    }
}
