//! End-to-end and per-layer benchmark of the hiermeans pipeline.
//!
//! The benchmark drives the library only through its public functions,
//! over four workloads that each load a different layer (see `README.md`).
//! A run sets its workload up several times, measures it for a fixed time
//! with tracing off, and prints every metric by name with its unit; a
//! `--trace 1` run interleaves traced iterations and reports per-layer
//! metrics instead.

pub mod compare;
mod host;
pub mod run;
mod stats;
pub mod trace;
pub mod workloads;

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_valid() {
        for k in workloads::Kind::ALL {
            assert!(valid_name(k.name()), "{}", k.name());
        }
        for (name, _) in run::END_TO_END.iter().chain(&run::PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
    }
}
