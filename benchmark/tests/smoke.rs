//! Runs every workload at tiny sizes, untraced and traced, and checks that
//! each run passes its output checks and emits exactly the metrics
//! `BENCHMARK.json` names, with their units.

use std::path::Path;

use hiermeans_benchmark::compare::Spec;
use hiermeans_benchmark::run::{self, RunArgs, END_TO_END, PER_LAYER};
use hiermeans_benchmark::valid_name;
use hiermeans_benchmark::workloads::{Kind, Sizes};

#[global_allocator]
static ALLOC: hiermeans_obs::memhook::TrackingAlloc = hiermeans_obs::memhook::TrackingAlloc;

fn spec() -> Spec {
    Spec::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("..")).expect("BENCHMARK.json")
}

#[test]
fn benchmark_json_names_match_the_benchmark() {
    let spec = spec();
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(spec.workloads, names);
    let declared: Vec<(String, String)> = spec
        .end_to_end
        .iter()
        .map(|g| (g.name.clone(), g.unit.clone()))
        .collect();
    let emitted = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared, emitted(&END_TO_END));
    assert_eq!(spec.per_layer, emitted(&PER_LAYER));
    for name in names
        .iter()
        .copied()
        .chain(spec.per_layer.iter().map(|(n, _)| n.as_str()))
    {
        assert!(valid_name(name), "{name}");
    }
    let setup = spec
        .end_to_end
        .iter()
        .find(|g| g.name == "setup_s")
        .expect("setup_s");
    for g in &spec.end_to_end {
        assert!(valid_name(&g.name), "{}", g.name);
        assert!(g.bound > 0.0 && g.bound <= setup.bound, "{}", g.name);
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let spec = spec();
    let work_root = std::env::temp_dir().join(format!("hm_bench_smoke_{}", std::process::id()));
    // One test drives every run: the peak-heap window is process-wide, so
    // runs must not overlap.
    for kind in Kind::ALL {
        for trace in [false, true] {
            let args = RunArgs {
                kind,
                seed: 7,
                seconds: 0.0,
                trace,
                sizes: Sizes::SMOKE,
                work_root: work_root.clone(),
            };
            let result = run::run(&args).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            let label = format!("{} trace {trace}", kind.name());
            assert!(result.correct, "{label}: {:?}", result.failures);
            assert_eq!(result.failed, 0, "{label}");
            assert!(result.attempted >= run::MIN_OPS, "{label}");
            let expected: Vec<(String, String)> = if trace {
                spec.per_layer.clone()
            } else {
                spec.end_to_end
                    .iter()
                    .map(|g| (g.name.clone(), g.unit.clone()))
                    .collect()
            };
            let got: Vec<(String, String)> = result
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(got, expected, "{label}");
            for (name, value, _) in &result.metrics {
                assert!(value.is_finite(), "{label}: {name} = {value}");
                if !trace {
                    assert!(*value > 0.0, "{label}: {name} = {value}");
                }
            }
            if trace {
                let coverage = result.metrics.iter().find(|m| m.0 == "obs.layer_coverage");
                assert!(
                    coverage.is_some_and(|m| m.1 >= run::MIN_COVERAGE),
                    "{label}"
                );
                assert!(!result.spans.is_empty(), "{label}");
            }
        }
    }
    assert!(!work_root.exists(), "runs remove their work directory");
}
