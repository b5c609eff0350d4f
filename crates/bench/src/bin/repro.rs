//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro <artifact>...
//!   paper artifacts: table1 table2 table3 fig3 fig4 fig5 fig6 fig7 fig8
//!                    table4 table5 table6 all
//!   extensions:      merger jackknife means-family duplication correlation
//!                    mica evaluation json-reports extensions
//!   performance:     bench-scale [--baseline <file>]
//!                    (writes BENCH_scale.json with the large-n scaling
//!                    curves of the naive and NN-chain merge loops; with
//!                    --baseline, exits nonzero when any row regresses
//!                    > 50% and > 250 ms over the stored report)
//!                    bench-som [--baseline <file>] [--progress <file>]
//!                    (writes BENCH_som.json with the batch SOM
//!                    epoch-throughput curve at n = 1k/10k/100k and the
//!                    out-of-core streaming row at n = 10⁶ with its
//!                    measured peak heap; with --baseline, gates each
//!                    timed row against the stored report at > 50% and
//!                    > 250 ms)
//!   observability:   trace [--prom <file>] [--progress <file>] (writes
//!                    OBS_trace.json; exits nonzero if any study's SOM did
//!                    not converge; with --prom, also writes the document
//!                    in Prometheus text exposition format)
//!                    profile [--progress <file>] (writes OBS_profile.json
//!                    with per-worker lane timelines, occupancy, and
//!                    parallel efficiency, plus OBS_profile.trace.json in
//!                    Chrome trace-event format, loadable in Perfetto)
//!                    check-trace <file> (validates a Chrome trace-event
//!                    file's shape — every event has ph/ts/dur/tid — or,
//!                    for an OBS_trace/OBS_profile document, the full
//!                    schema: finite quality records, memory blocks and
//!                    the meta stamp)
//!   progress:        --progress <file> appends one JSON line per finished
//!                    epoch, streamed strip or ingest batch as the run
//!                    goes (follow it with tail -f); the run's closing
//!                    line counts the events written; the file changes
//!                    no artifact bytes
//!   run history:     trace/profile/bench-scale/bench-som each append one
//!                    compact record (kind trace, profile, bench_scale or
//!                    bench_som) to OBS_history.jsonl
//!                    history [--gate] (renders the trend table over the
//!                    store; with --gate, judges the latest run of each
//!                    kind against the rolling median + k·MAD window of
//!                    prior comparable runs and exits nonzero on any
//!                    statistical regression)
//!                    report (writes OBS_report.html, a self-contained
//!                    dashboard over the history store)
//!                    check-report <file> (validates a dashboard's
//!                    embedded history payload round-trips)
//!   robustness:      faults (writes OBS_faults.json; exits nonzero if any
//!                    injected fault is not absorbed — including the four
//!                    storage fault scenarios against the result store)
//!                    check <file> (validates a CSV/whitespace matrix and
//!                    prints typed diagnostics with exact coordinates)
//!   fleet store:     submit [--store <file>] [--progress <file>]
//!                    (<subs.jsonl> | --paper | --synthetic <n>
//!                    [--seed <s>]) (guarded ingest into
//!                    the crash-safe result store, default
//!                    STORE_fleet.jsonl; rejects go to the quarantine
//!                    sidecar, accepts fold into the score cache)
//!                    merge [--store <dst>] [--progress <file>] <src.jsonl>
//!                    (re-ingests every
//!                    source line with full verification and dedup)
//!                    query [--store <file>] (per-machine and fleet
//!                    HGM/HAM/HHM via the incremental score cache)
//!                    fsck [--store <file>] [--repair] (verifies every
//!                    record; exits nonzero on unrepaired damage)
//! ```
//!
//! The whole command line is parsed before any artifact runs: an unknown
//! artifact or flag, or a flag without its value, exits nonzero at once
//! with a message naming it.
//!
//! Malformed or degenerate input never produces a raw panic backtrace:
//! every artifact runs under a panic guard that converts any residual
//! panic into a one-line structured diagnostic and a nonzero exit.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

use hiermeans_bench::{
    check, experiments, extensions, faults, history, profile, scale, som, store_cli, trace,
};
use hiermeans_core::CoreError;
use hiermeans_obs::ProgressLog;
use hiermeans_workload::measurement::Characterization;
use hiermeans_workload::Machine;

/// The tracking allocator backing per-span memory telemetry. A
/// `#[global_allocator]` is per-binary, so `repro` installs it here; the
/// library side detects the hook and degrades to RSS-only telemetry in
/// binaries that don't.
#[global_allocator]
static ALLOC: hiermeans_obs::memhook::TrackingAlloc = hiermeans_obs::memhook::TrackingAlloc;

/// A paper artifact or extension: runs the study and renders its output.
type Artifact = fn() -> Result<String, CoreError>;

/// The paper artifact or extension called `name`, or `None` if there is
/// none.
fn artifact(name: &str) -> Option<Artifact> {
    const SAR_A: Characterization = Characterization::SarCounters(Machine::A);
    const SAR_B: Characterization = Characterization::SarCounters(Machine::B);
    const METHODS: Characterization = Characterization::MethodUtilization;
    let run: Artifact = match name {
        "table1" => || Ok(experiments::table1()),
        "table2" => || Ok(experiments::table2()),
        "table3" => experiments::table3,
        "fig3" => || experiments::figure_som(SAR_A),
        "fig4" => || experiments::figure_dendrogram(SAR_A),
        "fig5" => || experiments::figure_som(SAR_B),
        "fig6" => || experiments::figure_dendrogram(SAR_B),
        "fig7" => || experiments::figure_som(METHODS),
        "fig8" => || experiments::figure_dendrogram(METHODS),
        "table4" => || experiments::table_hgm(SAR_A),
        "table5" => || experiments::table_hgm(SAR_B),
        "table6" => || experiments::table_hgm(METHODS),
        // `report` names the run-history dashboard; the archivable
        // per-study JSON dump keeps an explicit name.
        "json-reports" => extensions::json_reports,
        "correlation" => extensions::counter_correlation,
        "mica" => extensions::mica_characterization,
        "evaluation" => extensions::suite_evaluation,
        "merger" => extensions::merger_sweep,
        "jackknife" => extensions::jackknife_table,
        "means-family" => extensions::mean_family_table,
        "duplication" => extensions::duplication_curve,
        "all" => experiments::all,
        "extensions" => || {
            let parts = [
                extensions::merger_sweep()?,
                extensions::jackknife_table()?,
                extensions::mean_family_table()?,
                extensions::duplication_curve()?,
                extensions::counter_correlation()?,
                extensions::mica_characterization()?,
                extensions::suite_evaluation()?,
            ];
            Ok(parts.join("\n"))
        },
        _ => return None,
    };
    Some(run)
}

/// Runs the fault-injection matrix and writes `OBS_faults.json`.
fn run_faults() -> Result<String, String> {
    let (_document, json, rendered) =
        faults::faults_artifact().map_err(|e| format!("faults failed: {e}"))?;
    std::fs::write("OBS_faults.json", &json)
        .map_err(|e| format!("writing OBS_faults.json: {e}"))?;
    Ok(format!("wrote OBS_faults.json\n{rendered}"))
}

/// Runs the scaling curves (naive vs NN-chain merge loops), writes
/// `BENCH_scale.json`, and — when a baseline file is given — applies the
/// scale regression gate: any curve row more than 50% (and 250 ms) over the
/// baseline's fails the run.
fn run_bench_scale(baseline: Option<&str>) -> Result<String, String> {
    // Parse the baseline before benching: the committed baseline
    // conventionally lives at BENCH_scale.json itself, which the write
    // below replaces.
    let base: Option<scale::ScaleBenchReport> = baseline
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("bench-scale: cannot read baseline {path}: {e}"))?;
            serde_json::from_str(&text)
                .map_err(|e| format!("bench-scale: parsing baseline {path}: {e}"))
        })
        .transpose()?;
    let report = scale::bench_scale();
    let json =
        serde_json::to_string_pretty(&report).map_err(|e| format!("bench-scale failed: {e}"))?;
    std::fs::write("BENCH_scale.json", &json)
        .map_err(|e| format!("writing BENCH_scale.json: {e}"))?;
    let appended = history::append(&history::record_from_scale(&report))?;
    let mut out = format!("wrote BENCH_scale.json\n{appended}\n{json}");
    if let (Some(path), Some(base)) = (baseline, base) {
        let table = scale::compare_with_scale_baseline(&report, &base)?;
        out.push_str(&format!("\nscale regression gate vs {path}: ok\n{table}"));
    }
    Ok(out)
}

/// Runs the SOM epoch-throughput curve and the out-of-core streaming row,
/// writes `BENCH_som.json`, and — when a baseline file is given — gates
/// each timed row against it at > 50% and > 250 ms.
fn run_bench_som(baseline: Option<&str>, progress: Option<&str>) -> Result<String, String> {
    // Parse the baseline before benching: the committed baseline
    // conventionally lives at BENCH_som.json itself, which the write below
    // replaces.
    let base: Option<som::SomBenchReport> = baseline
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("bench-som: cannot read baseline {path}: {e}"))?;
            serde_json::from_str(&text)
                .map_err(|e| format!("bench-som: parsing baseline {path}: {e}"))
        })
        .transpose()?;
    let progress = progress.map(ProgressLog::create).transpose()?;
    let report = som::bench_som(progress.as_ref());
    let json =
        serde_json::to_string_pretty(&report).map_err(|e| format!("bench-som failed: {e}"))?;
    std::fs::write("BENCH_som.json", &json).map_err(|e| format!("writing BENCH_som.json: {e}"))?;
    // The record and the artifact land before the gate: a degraded run
    // must appear in the history and on disk, not vanish from the trend.
    let appended = history::append(&history::record_from_som(&report))?;
    let rendered = som::render_som_report(&report);
    let mut out = format!("wrote BENCH_som.json\n{appended}\n{rendered}");
    if let (Some(path), Some(base)) = (baseline, base) {
        let table = som::compare_with_som_baseline(&report, &base)?;
        out.push_str(&format!("\nsom regression gate vs {path}: ok\n{table}"));
    }
    if let Some(log) = &progress {
        out.push_str(&format!("\n{}", log.summary()));
    }
    Ok(out)
}

/// Runs the traced paper studies, writes `OBS_trace.json` (and, when
/// `--prom` was given, the Prometheus text exposition), and applies the SOM
/// convergence gate.
fn run_trace(prom: Option<&str>, progress: Option<&str>) -> Result<String, String> {
    let progress = progress.map(ProgressLog::create).transpose()?;
    let (document, json, rendered) =
        trace::trace_artifact(progress.as_ref()).map_err(|e| format!("trace failed: {e}"))?;
    std::fs::write("OBS_trace.json", &json).map_err(|e| format!("writing OBS_trace.json: {e}"))?;
    let mut wrote = "wrote OBS_trace.json".to_owned();
    if let Some(path) = prom {
        let text = hiermeans_obs::prom::to_prometheus(&document);
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        wrote.push_str(&format!(" and {path}"));
    }
    if let Some(log) = &progress {
        wrote.push_str(&format!("\n{}", log.summary()));
    }
    // The record lands before the convergence gate: a non-converged run
    // must appear in the history (the statistical gate fails it there too),
    // not vanish from the trend.
    let appended = history::append(&history::record_from_trace(&document))?;
    if !document.all_converged() {
        return Err(format!("trace: SOM convergence gate failed\n{rendered}"));
    }
    Ok(format!("{wrote}\n{appended}\n{rendered}"))
}

/// Runs the profiled paper studies (`repro profile`), writing
/// `OBS_profile.json` and the Chrome trace-event companion.
fn run_profile(progress: Option<&str>) -> Result<String, String> {
    let progress = progress.map(ProgressLog::create).transpose()?;
    let (document, json, chrome_json, rendered) =
        profile::profile_artifact(progress.as_ref()).map_err(|e| format!("profile failed: {e}"))?;
    std::fs::write("OBS_profile.json", &json)
        .map_err(|e| format!("writing OBS_profile.json: {e}"))?;
    std::fs::write("OBS_profile.trace.json", &chrome_json)
        .map_err(|e| format!("writing OBS_profile.trace.json: {e}"))?;
    let mut wrote = "wrote OBS_profile.json and OBS_profile.trace.json".to_owned();
    if let Some(log) = &progress {
        wrote.push_str(&format!("\n{}", log.summary()));
    }
    let appended = history::append(&history::record_from_profile(&document))?;
    Ok(format!("{wrote}\n{appended}\n{rendered}"))
}

/// Renders the run-history trend table (`repro history`); with `gate`,
/// also judges the latest run of each kind against the rolling window of
/// prior comparable runs and fails on any statistical regression.
fn run_history(gate: bool) -> Result<String, String> {
    let loaded = hiermeans_obs::history::load_history(Path::new(history::HISTORY_PATH))
        .map_err(|e| format!("history: {e}"))?;
    let records = loaded.records;
    let mut out = String::new();
    if let Some(warning) = loaded.warning {
        out.push_str(&format!("history: warning: {warning}\n"));
    }
    out.push_str(&hiermeans_obs::history::trend_table(&records));
    if gate {
        let outcome =
            hiermeans_obs::history::gate(&records, &hiermeans_obs::history::GateConfig::default());
        out.push('\n');
        out.push_str(&outcome.render());
        if !outcome.passed {
            return Err(format!(
                "history: statistical regression gate failed\n{out}"
            ));
        }
    }
    Ok(out)
}

/// Writes `OBS_report.html`, the self-contained dashboard over the history
/// store (`repro report`).
fn run_report() -> Result<String, String> {
    let loaded = hiermeans_obs::history::load_history(Path::new(history::HISTORY_PATH))
        .map_err(|e| format!("report: {e}"))?;
    let records = loaded.records;
    let html =
        hiermeans_obs::dashboard::render_dashboard(&records).map_err(|e| format!("report: {e}"))?;
    std::fs::write("OBS_report.html", &html)
        .map_err(|e| format!("writing OBS_report.html: {e}"))?;
    Ok(format!(
        "wrote OBS_report.html ({} records, {} bytes)",
        records.len(),
        html.len()
    ))
}

/// Validates a dashboard file's embedded history payload (`repro
/// check-report <file>`): the JSON island must extract and round-trip
/// through [`hiermeans_obs::history::RunRecord`].
fn run_check_report(path: &str) -> Result<String, String> {
    let html = std::fs::read_to_string(path)
        .map_err(|e| format!("check-report: cannot read {path}: {e}"))?;
    let records = hiermeans_obs::dashboard::extract_payload(&html)
        .map_err(|e| format!("check-report {path}: {e}"))?;
    Ok(format!("{path}: ok ({} history records)", records.len()))
}

/// Validates a trace file (`repro check-trace <file>`). Chrome trace-event
/// files (a top-level `traceEvents` array) are checked for the shape
/// Perfetto's importer requires — every event a complete `ph: "X"`
/// duration event with numeric `ts`/`dur`/`pid`/`tid`. Anything else is
/// validated as an `OBS_trace.json`/`OBS_profile.json` document: schema
/// version, finite per-epoch quality records, and the optional memory and
/// meta blocks.
fn run_check_trace(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("check-trace: cannot read {path}: {e}"))?;
    let sniffed = serde_json::from_str::<serde::Value>(&text)
        .map_err(|e| format!("check-trace {path}: not JSON: {e}"))?;
    if sniffed.get("traceEvents").is_some() {
        let events = hiermeans_obs::chrome::validate(&text)
            .map_err(|e| format!("check-trace {path}: {e}"))?;
        return Ok(format!("{path}: ok ({events} trace events)"));
    }
    let (studies, epochs) = hiermeans_obs::report::validate_document(&text)
        .map_err(|e| format!("check-trace {path}: {e}"))?;
    Ok(format!(
        "{path}: ok ({studies} studies, {epochs} epoch records)"
    ))
}

/// Validates a matrix file, printing typed diagnostics instead of
/// panicking on malformed content.
fn run_check(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("check: cannot read {path}: {e}"))?;
    check::check_matrix_text(&text).map_err(|diag| format!("check {path}:\n{diag}"))
}

/// Runs one artifact under a panic guard: a panic anywhere below becomes a
/// structured one-line diagnostic instead of a raw backtrace.
fn run_guarded(run: impl FnOnce() -> Result<String, String>, what: &str) -> Result<String, String> {
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let outcome = panic::catch_unwind(AssertUnwindSafe(run));
    panic::set_hook(prev_hook);
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Err(format!("{what}: internal error (panic): {message}"))
        }
    }
}

/// A parsed command: its name, for the panic guard, and its run.
type Command = (String, Box<dyn FnOnce() -> Result<String, String>>);

/// Parses the whole command line before any command runs, so an unknown
/// artifact or flag, or a flag missing its value, fails at once.
fn parse(args: Vec<String>) -> Result<Vec<Command>, String> {
    let mut args = args.into_iter().peekable();
    let mut commands: Vec<Command> = Vec::new();
    while let Some(name) = args.next() {
        let mut path = || {
            args.next()
                .ok_or_else(|| format!("{name}: missing <file> argument"))
        };
        let run: Box<dyn FnOnce() -> Result<String, String>> = match name.as_str() {
            "check" => {
                let path = path()?;
                Box::new(move || run_check(&path))
            }
            "check-trace" => {
                let path = path()?;
                Box::new(move || run_check_trace(&path))
            }
            "check-report" => {
                let path = path()?;
                Box::new(move || run_check_report(&path))
            }
            "history" => {
                let gate = args.next_if_eq("--gate").is_some();
                Box::new(move || run_history(gate))
            }
            "report" => Box::new(run_report),
            "faults" => Box::new(run_faults),
            "submit" | "merge" | "query" | "fsck" => {
                store_cli::parse_store_command(&name, &mut args)?
            }
            "trace" | "profile" | "bench-scale" | "bench-som" => {
                // Flags in any order: --baseline <file> (benches), --prom
                // <file> (trace), --progress <file> (all but bench-scale,
                // whose curves run untraced).
                let mut baseline: Option<String> = None;
                let mut prom: Option<String> = None;
                let mut progress: Option<String> = None;
                while let Some(flag) = args.next_if(|arg| arg.starts_with("--")) {
                    let slot = match flag.as_str() {
                        "--baseline" if name.starts_with("bench-") => &mut baseline,
                        "--prom" if name == "trace" => &mut prom,
                        "--progress" if name != "bench-scale" => &mut progress,
                        _ => return Err(format!("{name}: unknown flag {flag}")),
                    };
                    *slot = Some(
                        args.next()
                            .ok_or_else(|| format!("{name}: {flag} requires a <file> argument"))?,
                    );
                }
                match name.as_str() {
                    "trace" => Box::new(move || run_trace(prom.as_deref(), progress.as_deref())),
                    "profile" => Box::new(move || run_profile(progress.as_deref())),
                    "bench-scale" => Box::new(move || run_bench_scale(baseline.as_deref())),
                    _ => Box::new(move || run_bench_som(baseline.as_deref(), progress.as_deref())),
                }
            }
            _ => {
                let run = artifact(&name).ok_or_else(|| format!("unknown artifact: {name}"))?;
                let label = name.clone();
                Box::new(move || run().map_err(|e| format!("{label} failed: {e}")))
            }
        };
        commands.push((name, run));
    }
    Ok(commands)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: repro <artifact>...\n  paper artifacts: table1 table2 table3 fig3 fig4 \
             fig5 fig6 fig7 fig8 table4 table5 table6 all\n  extensions: merger jackknife \
             means-family duplication correlation mica evaluation json-reports extensions\n  \
             performance: bench-scale [--baseline <file>] (writes BENCH_scale.json), \
             bench-som [--baseline <file>] [--progress <file>] (writes BENCH_som.json with \
             the batch epoch-throughput curve and the n = 10^6 streaming row)\n  \
             observability: trace [--prom <file>] [--progress <file>] (writes OBS_trace.json), \
             profile [--progress <file>] (writes OBS_profile.json + OBS_profile.trace.json), \
             check-trace <file> (Chrome trace or OBS document)\n  \
             progress: --progress <file> appends one JSON line per finished epoch, \
             streamed strip or ingest batch (follow with tail -f)\n  \
             run history: trace, profile, bench-scale and bench-som each append a \
             record (kind trace, profile, bench_scale or bench_som) to OBS_history.jsonl; \
             history [--gate] (trend table over the store; \
             --gate fails on statistical regressions), \
             report (writes OBS_report.html), check-report <file>\n  \
             robustness: faults (writes OBS_faults.json), check <file>\n  \
             fleet store: submit [--store <file>] [--progress <file>] (<subs.jsonl> | --paper | \
             --synthetic <n> [--seed <s>]), \
             merge [--store <dst>] [--progress <file>] <src.jsonl>, \
             query [--store <file>], \
             fsck [--store <file>] [--repair]"
        );
        return ExitCode::FAILURE;
    }
    let commands = match parse(args) {
        Ok(commands) => commands,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    for (name, run) in commands {
        match run_guarded(run, &name) {
            Ok(text) => println!("{text}"),
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
