//! Command line of the hiermeans benchmark.
//!
//! ```text
//! hiermeans-benchmark [--workload NAME|all] [--seed N] [--seconds S]
//!                     [--trace 0|1] [--out DIR] [--smoke]
//! hiermeans-benchmark --compare DIR_A DIR_B
//! ```
//!
//! Run from the repository root. Each run prints its metrics by name with
//! their units and, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; it also writes a result file under
//! `--out` (default `.bench_results`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hiermeans_benchmark::compare::{compare, Spec};
use hiermeans_benchmark::run::{self, RunArgs};
use hiermeans_benchmark::workloads::{Kind, Sizes};

#[global_allocator]
static ALLOC: hiermeans_obs::memhook::TrackingAlloc = hiermeans_obs::memhook::TrackingAlloc;

const USAGE: &str = "usage: hiermeans-benchmark [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR] [--smoke]\n       \
                     hiermeans-benchmark --compare DIR_A DIR_B";

struct Cli {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        kinds: Kind::ALL.to_vec(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        out: PathBuf::from(".bench_results"),
        smoke: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.kinds = if name == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?]
                };
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => cli.out = PathBuf::from(value()?),
            "--smoke" => cli.smoke = true,
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(value()?);
                cli.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn run_one(cli: &Cli, kind: Kind) -> Result<bool, String> {
    let args = RunArgs {
        kind,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        sizes: if cli.smoke { Sizes::SMOKE } else { Sizes::FULL },
        work_root: PathBuf::from(".bench_work"),
    };
    let result = run::run(&args)?;
    if let Some((name, value, _)) = result.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{}: metric {name} is {value}", kind.name()));
    }
    for failure in &result.failures {
        eprintln!("{}: check failed: {failure}", kind.name());
    }
    let path = run::write_outputs(&args, &result, &cli.out)?;
    println!(
        "workload {} (seed {}, {} s, trace {}): {} ops attempted, {} failed; {}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        result.attempted,
        result.failed,
        path.display()
    );
    for (name, value, unit) in &result.metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    let line = serde_json::to_string(&result.summary()).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(result.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        let report = Spec::load(Path::new(".")).and_then(|spec| compare(&spec, a, b));
        return match report {
            Ok((text, worse)) => {
                print!("{text}");
                ExitCode::from(u8::from(worse))
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let mut all_correct = true;
    for &kind in &cli.kinds {
        match run_one(&cli, kind) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("{}: {e}", kind.name());
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
