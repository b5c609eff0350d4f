//! Synthetic instruction traces.
//!
//! The paper points beyond its two characterizations: "For non-Java
//! workloads, other microarchitecture independent workload features such as
//! instruction mix, memory strides, etc. \[5\], \[6\] can be used instead"
//! (Section IV-C). Those features are extracted from instruction traces, so
//! this module provides the trace substrate: a deterministic generator that
//! turns a per-workload *behaviour profile* (instruction mix, stride
//! distribution, branch behaviour, working set, dependency distances) into
//! an instruction stream, plus hand-authored profiles for the 13 paper
//! workloads. [`crate::mica`] extracts the feature vectors.

use serde::{Deserialize, Serialize};

use crate::rng::SimRng;
use crate::WorkloadError;

/// Default trace length used by the paper-suite generator.
pub const DEFAULT_TRACE_LEN: usize = 20_000;

/// One dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instruction {
    /// Integer ALU operation with the distance (in instructions) to its
    /// nearest producer.
    IntOp {
        /// Distance to the producing instruction.
        dep_distance: u32,
    },
    /// Floating-point operation with its producer distance.
    FpOp {
        /// Distance to the producing instruction.
        dep_distance: u32,
    },
    /// Memory load at a byte address.
    Load {
        /// The effective byte address.
        address: u64,
    },
    /// Memory store at a byte address.
    Store {
        /// The effective byte address.
        address: u64,
    },
    /// Conditional branch with its outcome.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
    },
}

/// The behavioural knobs from which a trace is synthesized. Fractions must
/// sum to at most 1; the remainder becomes integer operations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceProfile {
    /// Fraction of floating-point operations.
    pub fp_fraction: f64,
    /// Fraction of loads.
    pub load_fraction: f64,
    /// Fraction of stores.
    pub store_fraction: f64,
    /// Fraction of conditional branches.
    pub branch_fraction: f64,
    /// Probability a memory access continues the current sequential stride
    /// run (high = array streaming; low = pointer chasing).
    pub sequentiality: f64,
    /// The dominant stride in bytes for sequential runs (8 = doubles).
    pub stride_bytes: u64,
    /// Working-set size in bytes; random accesses fall inside it.
    pub working_set_bytes: u64,
    /// Probability a branch is taken.
    pub branch_taken_rate: f64,
    /// Probability a branch repeats its previous outcome (high =
    /// predictable loop branches; 0.5 = data-dependent chaos).
    pub branch_repeat_rate: f64,
    /// Mean producer-consumer distance in instructions (low = long serial
    /// dependency chains; high = abundant ILP).
    pub mean_dep_distance: f64,
}

impl TraceProfile {
    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if any fraction or
    /// probability leaves `[0, 1]`, the fractions exceed 1 in total, or the
    /// structural parameters are non-positive.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let probabilities = [
            self.fp_fraction,
            self.load_fraction,
            self.store_fraction,
            self.branch_fraction,
            self.sequentiality,
            self.branch_taken_rate,
            self.branch_repeat_rate,
        ];
        if probabilities.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err(WorkloadError::InvalidParameter {
                name: "profile",
                reason: "fractions and probabilities must lie in [0, 1]",
            });
        }
        if self.fp_fraction + self.load_fraction + self.store_fraction + self.branch_fraction
            > 1.0 + 1e-12
        {
            return Err(WorkloadError::InvalidParameter {
                name: "profile",
                reason: "instruction-class fractions must sum to at most 1",
            });
        }
        if self.stride_bytes == 0 || self.working_set_bytes == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "profile",
                reason: "stride and working set must be positive",
            });
        }
        if !(self.mean_dep_distance >= 1.0 && self.mean_dep_distance.is_finite()) {
            return Err(WorkloadError::InvalidParameter {
                name: "mean_dep_distance",
                reason: "must be finite and at least 1",
            });
        }
        Ok(())
    }
}

/// Generates a deterministic instruction trace from a profile.
///
/// # Errors
///
/// Propagates profile validation errors; rejects zero-length traces.
///
/// # Example
///
/// ```
/// use hiermeans_workload::trace::{generate, paper_profile};
///
/// # fn main() -> Result<(), hiermeans_workload::WorkloadError> {
/// let profile = paper_profile(5); // SciMark2.FFT
/// let trace = generate(&profile, 1000, 42)?;
/// assert_eq!(trace.len(), 1000);
/// # Ok(())
/// # }
/// ```
pub fn generate(
    profile: &TraceProfile,
    length: usize,
    seed: u64,
) -> Result<Vec<Instruction>, WorkloadError> {
    profile.validate()?;
    if length == 0 {
        return Err(WorkloadError::InvalidParameter {
            name: "length",
            reason: "trace length must be positive",
        });
    }
    let mut rng = SimRng::new(seed).derive("trace");
    let mut out = Vec::with_capacity(length);
    let mut cursor: u64 = 0x1000_0000; // current sequential position
    let mut last_branch_taken = true;
    let dep = |rng: &mut SimRng| -> u32 {
        // Geometric-ish dependency distances with the requested mean.
        let u: f64 = rng.uniform().max(1e-12);
        let d = 1.0 - u.ln() * (profile.mean_dep_distance - 1.0).max(0.0);
        d.round().clamp(1.0, 10_000.0) as u32
    };
    for _ in 0..length {
        let roll = rng.uniform();
        let fp_end = profile.fp_fraction;
        let load_end = fp_end + profile.load_fraction;
        let store_end = load_end + profile.store_fraction;
        let branch_end = store_end + profile.branch_fraction;
        let instruction = if roll < fp_end {
            Instruction::FpOp {
                dep_distance: dep(&mut rng),
            }
        } else if roll < load_end || roll < store_end {
            let address = if rng.uniform() < profile.sequentiality {
                cursor = cursor.wrapping_add(profile.stride_bytes);
                cursor
            } else {
                // Random access within the working set, 8-byte aligned.
                let offset = (rng.uniform() * profile.working_set_bytes as f64) as u64 & !7;
                cursor = 0x1000_0000 + offset;
                cursor
            };
            if roll < load_end {
                Instruction::Load { address }
            } else {
                Instruction::Store { address }
            }
        } else if roll < branch_end {
            let taken = if rng.uniform() < profile.branch_repeat_rate {
                last_branch_taken
            } else {
                rng.uniform() < profile.branch_taken_rate
            };
            last_branch_taken = taken;
            Instruction::Branch { taken }
        } else {
            Instruction::IntOp {
                dep_distance: dep(&mut rng),
            }
        };
        out.push(instruction);
    }
    Ok(out)
}

/// The hand-authored behaviour profile of paper-suite workload `index`
/// (suite order; see [`crate::suite::BenchmarkSuite::paper`]).
///
/// The five SciMark2 kernels are dense floating-point loops over small
/// arrays with highly regular strides and predictable branches — their
/// profiles are nearly identical, which is exactly why they coagulate under
/// microarchitecture-independent characterization too.
///
/// # Panics
///
/// Panics if `index >= 13`.
pub fn paper_profile(index: usize) -> TraceProfile {
    let p = |fp: f64,
             ld: f64,
             st: f64,
             br: f64,
             seq: f64,
             stride: u64,
             ws: u64,
             taken: f64,
             rep: f64,
             dep: f64| {
        TraceProfile {
            fp_fraction: fp,
            load_fraction: ld,
            store_fraction: st,
            branch_fraction: br,
            sequentiality: seq,
            stride_bytes: stride,
            working_set_bytes: ws,
            branch_taken_rate: taken,
            branch_repeat_rate: rep,
            mean_dep_distance: dep,
        }
    };
    match index {
        // compress: integer LZW over sequential byte streams, big tables.
        0 => p(0.01, 0.28, 0.12, 0.16, 0.80, 1, 1 << 20, 0.55, 0.70, 4.0),
        // jess: rule engine — pointer chasing, branchy, unpredictable.
        1 => p(0.02, 0.32, 0.08, 0.22, 0.15, 8, 24 << 20, 0.50, 0.55, 3.0),
        // javac: compiler — tree walking, branchy, moderate working set.
        2 => p(0.01, 0.30, 0.10, 0.20, 0.25, 8, 16 << 20, 0.52, 0.60, 3.5),
        // mpegaudio: fixed/float DSP over sequential frames.
        3 => p(0.30, 0.24, 0.08, 0.10, 0.85, 4, 1 << 19, 0.70, 0.85, 5.0),
        // mtrt: raytracer — FP heavy, irregular scene-graph accesses.
        4 => p(0.28, 0.28, 0.06, 0.14, 0.35, 8, 12 << 20, 0.55, 0.60, 4.5),
        // SciMark2 FFT / LU / MonteCarlo / SOR / Sparse: dense FP kernels,
        // small arrays, regular strides, loop branches.
        5 => p(0.42, 0.26, 0.10, 0.08, 0.88, 8, 1 << 16, 0.88, 0.92, 6.0),
        6 => p(0.44, 0.25, 0.11, 0.08, 0.90, 8, 1 << 16, 0.88, 0.92, 6.0),
        7 => p(0.40, 0.24, 0.09, 0.09, 0.86, 8, 1 << 15, 0.87, 0.91, 6.0),
        8 => p(0.43, 0.26, 0.11, 0.08, 0.90, 8, 1 << 16, 0.89, 0.92, 6.0),
        9 => p(0.41, 0.27, 0.09, 0.08, 0.72, 8, 1 << 17, 0.87, 0.90, 5.5),
        // hsqldb: in-memory transactions — loads/stores over a large heap.
        10 => p(0.02, 0.34, 0.16, 0.16, 0.20, 8, 200 << 20, 0.52, 0.58, 3.0),
        // chart: 2-D rendering — FP geometry plus object churn.
        11 => p(0.22, 0.28, 0.14, 0.12, 0.55, 8, 48 << 20, 0.60, 0.70, 4.0),
        // xalan: XSLT — string/DOM traversal, branchy.
        12 => p(0.02, 0.33, 0.12, 0.20, 0.30, 2, 32 << 20, 0.52, 0.58, 3.0),
        _ => panic!("paper suite has 13 workloads"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let p = paper_profile(0);
        assert_eq!(generate(&p, 500, 7).unwrap(), generate(&p, 500, 7).unwrap());
        assert_ne!(generate(&p, 500, 7).unwrap(), generate(&p, 500, 8).unwrap());
    }

    #[test]
    fn mix_matches_profile() {
        let p = paper_profile(5); // FFT: 42% FP, 26% load, 10% store, 8% branch
        let trace = generate(&p, 50_000, 3).unwrap();
        let n = trace.len() as f64;
        let count = |f: fn(&Instruction) -> bool| trace.iter().filter(|i| f(i)).count() as f64 / n;
        let fp = count(|i| matches!(i, Instruction::FpOp { .. }));
        let ld = count(|i| matches!(i, Instruction::Load { .. }));
        let st = count(|i| matches!(i, Instruction::Store { .. }));
        let br = count(|i| matches!(i, Instruction::Branch { .. }));
        assert!((fp - 0.42).abs() < 0.02, "fp={fp}");
        assert!((ld - 0.26).abs() < 0.02, "ld={ld}");
        assert!((st - 0.10).abs() < 0.02, "st={st}");
        assert!((br - 0.08).abs() < 0.02, "br={br}");
    }

    #[test]
    fn sequential_profile_strides_regular() {
        let p = paper_profile(5);
        let trace = generate(&p, 20_000, 1).unwrap();
        let mut addresses = Vec::new();
        for i in &trace {
            if let Instruction::Load { address } | Instruction::Store { address } = i {
                addresses.push(*address);
            }
        }
        let strides: Vec<i64> = addresses
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        let regular = strides.iter().filter(|&&s| s == 8).count() as f64 / strides.len() as f64;
        assert!(regular > 0.75, "regular fraction {regular}");
    }

    #[test]
    fn pointer_chaser_has_irregular_strides() {
        let p = paper_profile(1); // jess
        let trace = generate(&p, 20_000, 1).unwrap();
        let mut addresses = Vec::new();
        for i in &trace {
            if let Instruction::Load { address } | Instruction::Store { address } = i {
                addresses.push(*address);
            }
        }
        let strides: Vec<i64> = addresses
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        let regular = strides.iter().filter(|&&s| s.unsigned_abs() <= 64).count() as f64
            / strides.len() as f64;
        assert!(regular < 0.5, "regular fraction {regular}");
    }

    #[test]
    fn branch_predictability_differs() {
        let taken_runs = |idx: usize| {
            let trace = generate(&paper_profile(idx), 30_000, 2).unwrap();
            let outcomes: Vec<bool> = trace
                .iter()
                .filter_map(|i| match i {
                    Instruction::Branch { taken } => Some(*taken),
                    _ => None,
                })
                .collect();
            let repeats = outcomes.windows(2).filter(|w| w[0] == w[1]).count() as f64;
            repeats / (outcomes.len() - 1) as f64
        };
        // SciMark2 loop branches repeat far more than jess's data-dependent ones.
        assert!(taken_runs(5) > taken_runs(1) + 0.15);
    }

    #[test]
    fn working_set_bounded_by_profile() {
        let p = paper_profile(7); // MonteCarlo: 32 KB working set
        let trace = generate(&p, 30_000, 4).unwrap();
        let mut min = u64::MAX;
        let mut max = 0u64;
        for i in &trace {
            if let Instruction::Load { address } | Instruction::Store { address } = i {
                min = min.min(*address);
                max = max.max(*address);
            }
        }
        // Random accesses stay inside the working set; sequential runs can
        // drift a little past it between resets.
        assert!(max - min < 4 * p.working_set_bytes, "span {}", max - min);
    }

    #[test]
    fn scimark_profiles_nearly_identical() {
        let fft = paper_profile(5);
        for i in 6..=9 {
            let other = paper_profile(i);
            assert!((fft.fp_fraction - other.fp_fraction).abs() < 0.05);
            assert!((fft.branch_repeat_rate - other.branch_repeat_rate).abs() < 0.05);
        }
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        let mut p = paper_profile(0);
        p.fp_fraction = 1.5;
        assert!(p.validate().is_err());
        let mut p = paper_profile(0);
        p.load_fraction = 0.9; // total > 1
        assert!(p.validate().is_err());
        let mut p = paper_profile(0);
        p.working_set_bytes = 0;
        assert!(p.validate().is_err());
        let mut p = paper_profile(0);
        p.mean_dep_distance = 0.0;
        assert!(p.validate().is_err());
        assert!(generate(&paper_profile(0), 0, 1).is_err());
    }
}
