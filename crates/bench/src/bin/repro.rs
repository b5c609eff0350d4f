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
//!                    bench-som [--baseline <file>]
//!                    (writes BENCH_som.json with the warm-vs-cold batch
//!                    SOM epoch-throughput curve at n = 1k/10k/100k and
//!                    the out-of-core streaming row at n = 10⁶ with its
//!                    measured peak heap; always fails if the warm
//!                    speedup collapses below 1.3x at n ≥ 10k, and with
//!                    --baseline also gates each timed cell against the
//!                    stored report at > 50% and > 250 ms)
//!   observability:   trace [--prom <file>] [--live [addr]] (writes
//!                    OBS_trace.json; exits nonzero if any study's SOM did
//!                    not converge; with --prom, also writes the document
//!                    in Prometheus text exposition format)
//!                    profile [--live [addr]] (writes OBS_profile.json
//!                    with per-worker lane timelines, occupancy, and
//!                    parallel efficiency, plus OBS_profile.trace.json in
//!                    Chrome trace-event format, loadable in Perfetto)
//!                    check-trace <file> (validates a Chrome trace-event
//!                    file's shape — every event has ph/ts/dur/tid — or,
//!                    for an OBS_trace/OBS_profile document, the full
//!                    schema: finite quality records, warm-hit-rate and
//!                    memory blocks, meta and live stamps)
//!   live telemetry:  long-running runs (trace, profile, bench-scale,
//!                    bench-som, submit, merge) accept --live [addr]
//!                    (default 127.0.0.1:9184) to host in-process
//!                    GET /metrics, /healthz, /readyz, /trace, and
//!                    /events (SSE progress) endpoints for the run's
//!                    duration; hosting changes no artifact bytes
//!                    watch [addr] (attaches to a --live run's /events
//!                    stream and renders progress rows until the run ends)
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
//!   fleet store:     submit [--store <file>] (<subs.jsonl> | --paper |
//!                    --synthetic <n> [--seed <s>]) (guarded ingest into
//!                    the crash-safe result store, default
//!                    STORE_fleet.jsonl; rejects go to the quarantine
//!                    sidecar, accepts fold into the score cache)
//!                    merge [--store <dst>] <src.jsonl> (re-ingests every
//!                    source line with full verification and dedup)
//!                    query [--store <file>] (per-machine and fleet
//!                    HGM/HAM/HHM via the incremental score cache)
//!                    fsck [--store <file>] [--repair] (verifies every
//!                    record; exits nonzero on unrepaired damage)
//! ```
//!
//! Malformed or degenerate input never produces a raw panic backtrace:
//! every artifact runs under a panic guard that converts any residual
//! panic into a one-line structured diagnostic and a nonzero exit.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

use hiermeans_bench::{
    check, experiments, extensions, faults, history, live_client, profile, scale, som, store_cli,
    trace,
};
use hiermeans_obs::LiveServer;
use hiermeans_workload::measurement::Characterization;
use hiermeans_workload::Machine;

/// The tracking allocator backing per-span memory telemetry. A
/// `#[global_allocator]` is per-binary, so `repro` installs it here; the
/// library side detects the hook and degrades to RSS-only telemetry in
/// binaries that don't.
#[global_allocator]
static ALLOC: hiermeans_obs::memhook::TrackingAlloc = hiermeans_obs::memhook::TrackingAlloc;

fn run(artifact: &str) -> Result<String, String> {
    if artifact == "bench-scale" {
        return run_bench_scale(None, None);
    }
    if artifact == "bench-som" {
        return run_bench_som(None, None);
    }
    if artifact == "trace" {
        return run_trace(None, None);
    }
    if artifact == "profile" {
        return run_profile(None);
    }
    if artifact == "history" {
        return run_history(false);
    }
    if artifact == "report" {
        return run_report();
    }
    if artifact == "faults" {
        let (_document, json, rendered) =
            faults::faults_artifact().map_err(|e| format!("faults failed: {e}"))?;
        std::fs::write("OBS_faults.json", &json)
            .map_err(|e| format!("writing OBS_faults.json: {e}"))?;
        return Ok(format!("wrote OBS_faults.json\n{rendered}"));
    }
    let sar_a = Characterization::SarCounters(Machine::A);
    let sar_b = Characterization::SarCounters(Machine::B);
    let methods = Characterization::MethodUtilization;
    let result = match artifact {
        "table1" => Ok(experiments::table1()),
        "table2" => Ok(experiments::table2()),
        "table3" => experiments::table3(),
        "fig3" => experiments::figure_som(sar_a),
        "fig4" => experiments::figure_dendrogram(sar_a),
        "fig5" => experiments::figure_som(sar_b),
        "fig6" => experiments::figure_dendrogram(sar_b),
        "fig7" => experiments::figure_som(methods),
        "fig8" => experiments::figure_dendrogram(methods),
        "table4" => experiments::table_hgm(sar_a),
        "table5" => experiments::table_hgm(sar_b),
        "table6" => experiments::table_hgm(methods),
        // `report` itself now names the run-history dashboard above; the
        // archivable per-study JSON dump keeps an explicit name.
        "json-reports" => extensions::json_reports(),
        "correlation" => extensions::counter_correlation(),
        "mica" => extensions::mica_characterization(),
        "evaluation" => extensions::suite_evaluation(),
        "merger" => extensions::merger_sweep(),
        "jackknife" => extensions::jackknife_table(),
        "means-family" => extensions::mean_family_table(),
        "duplication" => extensions::duplication_curve(),
        "all" => experiments::all(),
        "extensions" => extensions::merger_sweep().and_then(|mut out| {
            out.push('\n');
            out.push_str(&extensions::jackknife_table()?);
            out.push('\n');
            out.push_str(&extensions::mean_family_table()?);
            out.push('\n');
            out.push_str(&extensions::duplication_curve()?);
            out.push('\n');
            out.push_str(&extensions::counter_correlation()?);
            out.push('\n');
            out.push_str(&extensions::mica_characterization()?);
            out.push('\n');
            out.push_str(&extensions::suite_evaluation()?);
            Ok(out)
        }),
        other => return Err(format!("unknown artifact: {other}")),
    };
    result.map_err(|e| format!("{artifact} failed: {e}"))
}

/// Runs the scaling curves (naive vs NN-chain merge loops), writes
/// `BENCH_scale.json`, and — when a baseline file is given — applies the
/// scale regression gate: any curve row more than 50% (and 250 ms) over the
/// baseline's fails the run.
fn run_bench_scale(baseline: Option<&str>, live_addr: Option<&str>) -> Result<String, String> {
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
    // The scale curves deliberately run without collectors (telemetry in
    // the timed region would distort them), so the plane serves process
    // liveness — /metrics with the process RSS gauge and /healthz — while
    // the minutes-long run grinds, rather than per-epoch progress.
    let server = host_live(live_addr)?;
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
    if let Some(server) = &server {
        out.push_str(&live_note(server));
    }
    Ok(out)
}

/// Runs the warm-vs-cold SOM epoch-throughput curve and the out-of-core
/// streaming row, writes `BENCH_som.json`, applies the warm speedup gate
/// (the warm path must stay ≥ 1.3× at n ≥ 10 000), and — when a baseline
/// file is given — gates each timed cell against it at > 50% and > 250 ms.
fn run_bench_som(baseline: Option<&str>, live_addr: Option<&str>) -> Result<String, String> {
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
    let server = host_live(live_addr)?;
    let report = som::bench_som(server.as_ref());
    let json =
        serde_json::to_string_pretty(&report).map_err(|e| format!("bench-som failed: {e}"))?;
    std::fs::write("BENCH_som.json", &json).map_err(|e| format!("writing BENCH_som.json: {e}"))?;
    // The record and the artifact land before the gates: a degraded run
    // must appear in the history and on disk, not vanish from the trend.
    let appended = history::append(&history::record_from_som(&report))?;
    let rendered = som::render_som_report(&report);
    let mut out = format!("wrote BENCH_som.json\n{appended}\n{rendered}");
    som::warm_speedup_gate(&report).map_err(|e| format!("bench-som: {e}\n{rendered}"))?;
    if let (Some(path), Some(base)) = (baseline, base) {
        let table = som::compare_with_som_baseline(&report, &base)?;
        out.push_str(&format!("\nsom regression gate vs {path}: ok\n{table}"));
    }
    if let Some(server) = &server {
        out.push_str(&live_note(server));
    }
    Ok(out)
}

/// Hosts the live telemetry plane when `--live` was given: the server stays
/// up for the duration of the calling subcommand and shuts down (joining
/// every connection thread) when it drops.
fn host_live(addr: Option<&str>) -> Result<Option<LiveServer>, String> {
    addr.map(|a| LiveServer::bind(a, hiermeans_linalg::parallel::worker_count()))
        .transpose()
}

/// One summary line appended to a `--live` run's output.
fn live_note(server: &LiveServer) -> String {
    let summary = server.summary();
    let r = &summary.requests;
    format!(
        "\nlive telemetry on {}: {} events published; requests: {} /metrics, {} /healthz, {} /readyz, {} /trace, {} /events",
        summary.addr, summary.events_published, r.metrics, r.healthz, r.readyz, r.trace, r.events
    )
}

/// Runs the traced paper studies, writes `OBS_trace.json` (and, when
/// `--prom` was given, the Prometheus text exposition), and applies the SOM
/// convergence gate.
fn run_trace(prom: Option<&str>, live_addr: Option<&str>) -> Result<String, String> {
    let server = host_live(live_addr)?;
    let (document, json, rendered) =
        trace::trace_artifact(server.as_ref()).map_err(|e| format!("trace failed: {e}"))?;
    std::fs::write("OBS_trace.json", &json).map_err(|e| format!("writing OBS_trace.json: {e}"))?;
    let mut wrote = "wrote OBS_trace.json".to_owned();
    if let Some(path) = prom {
        let text = hiermeans_obs::prom::to_prometheus(&document);
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        wrote.push_str(&format!(" and {path}"));
    }
    if let Some(server) = &server {
        wrote.push_str(&live_note(server));
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
fn run_profile(live_addr: Option<&str>) -> Result<String, String> {
    let server = host_live(live_addr)?;
    let (document, json, chrome_json, rendered) =
        profile::profile_artifact(server.as_ref()).map_err(|e| format!("profile failed: {e}"))?;
    std::fs::write("OBS_profile.json", &json)
        .map_err(|e| format!("writing OBS_profile.json: {e}"))?;
    std::fs::write("OBS_profile.trace.json", &chrome_json)
        .map_err(|e| format!("writing OBS_profile.trace.json: {e}"))?;
    let mut wrote = "wrote OBS_profile.json and OBS_profile.trace.json".to_owned();
    if let Some(server) = &server {
        wrote.push_str(&live_note(server));
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
/// version, finite per-epoch quality records, warm-hit-rate bounds, and
/// the optional memory, meta, and live blocks.
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: repro <artifact>...\n  paper artifacts: table1 table2 table3 fig3 fig4 \
             fig5 fig6 fig7 fig8 table4 table5 table6 all\n  extensions: merger jackknife \
             means-family duplication correlation mica evaluation json-reports extensions\n  \
             performance: bench-scale [--baseline <file>] [--live [addr]] (writes BENCH_scale.json), \
             bench-som [--baseline <file>] [--live [addr]] (writes BENCH_som.json with \
             the warm-vs-cold epoch-throughput curve and the n = 10^6 streaming row)\n  \
             observability: trace [--prom <file>] [--live [addr]] (writes OBS_trace.json), \
             profile [--live [addr]] (writes OBS_profile.json + OBS_profile.trace.json), \
             check-trace <file> (Chrome trace or OBS document)\n  \
             live telemetry: --live [addr] (default 127.0.0.1:9184) hosts /metrics, \
             /healthz, /readyz, /trace, and /events (SSE) for the run's duration; \
             watch [addr] renders a --live run's progress stream\n  \
             run history: trace, profile, bench-scale and bench-som each append a \
             record (kind trace, profile, bench_scale or bench_som) to OBS_history.jsonl; \
             history [--gate] (trend table over the store; \
             --gate fails on statistical regressions), \
             report (writes OBS_report.html), check-report <file>\n  \
             robustness: faults (writes OBS_faults.json), check <file>\n  \
             fleet store: submit [--store <file>] [--live [addr]] (<subs.jsonl> | --paper | \
             --synthetic <n> [--seed <s>]), \
             merge [--store <dst>] [--live [addr]] <src.jsonl>, \
             query [--store <file>], \
             fsck [--store <file>] [--repair]"
        );
        return ExitCode::FAILURE;
    }
    let mut args = args.into_iter().peekable();
    while let Some(artifact) = args.next() {
        let outcome = if matches!(artifact.as_str(), "submit" | "merge" | "query" | "fsck") {
            run_guarded(
                || store_cli::run_store_command(&artifact, &mut args),
                &artifact,
            )
        } else if artifact == "check" {
            let Some(path) = args.next() else {
                eprintln!("check: missing <file> argument");
                return ExitCode::FAILURE;
            };
            run_guarded(|| run_check(&path), "check")
        } else if artifact == "check-trace" {
            let Some(path) = args.next() else {
                eprintln!("check-trace: missing <file> argument");
                return ExitCode::FAILURE;
            };
            run_guarded(|| run_check_trace(&path), "check-trace")
        } else if artifact == "check-report" {
            let Some(path) = args.next() else {
                eprintln!("check-report: missing <file> argument");
                return ExitCode::FAILURE;
            };
            run_guarded(|| run_check_report(&path), "check-report")
        } else if artifact == "history" && args.peek().map(String::as_str) == Some("--gate") {
            args.next();
            run_guarded(|| run_history(true), "history")
        } else if artifact == "watch" {
            let addr = live_client::take_live_addr(&mut args);
            run_guarded(
                || {
                    let mut out = std::io::stdout();
                    live_client::watch(&addr, &mut out)
                },
                "watch",
            )
        } else if matches!(
            artifact.as_str(),
            "trace" | "profile" | "bench-scale" | "bench-som"
        ) {
            // These subcommands take flags in any order: --baseline <file>
            // (benches), --prom <file> (trace), --live [addr] (all the
            // long-running ones).
            let mut baseline: Option<String> = None;
            let mut prom: Option<String> = None;
            let mut live: Option<String> = None;
            loop {
                match args.peek().map(String::as_str) {
                    Some("--baseline") if artifact.starts_with("bench-") => {
                        args.next();
                        let Some(path) = args.next() else {
                            eprintln!("{artifact}: --baseline requires a <file> argument");
                            return ExitCode::FAILURE;
                        };
                        baseline = Some(path);
                    }
                    Some("--prom") if artifact == "trace" => {
                        args.next();
                        let Some(path) = args.next() else {
                            eprintln!("trace: --prom requires a <file> argument");
                            return ExitCode::FAILURE;
                        };
                        prom = Some(path);
                    }
                    Some("--live") => {
                        args.next();
                        live = Some(live_client::take_live_addr(&mut args));
                    }
                    _ => break,
                }
            }
            match artifact.as_str() {
                "trace" => run_guarded(|| run_trace(prom.as_deref(), live.as_deref()), "trace"),
                "profile" => run_guarded(|| run_profile(live.as_deref()), "profile"),
                "bench-scale" => run_guarded(
                    || run_bench_scale(baseline.as_deref(), live.as_deref()),
                    "bench-scale",
                ),
                _ => run_guarded(
                    || run_bench_som(baseline.as_deref(), live.as_deref()),
                    "bench-som",
                ),
            }
        } else {
            run_guarded(|| run(&artifact), &artifact)
        };
        match outcome {
            Ok(text) => println!("{text}"),
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
