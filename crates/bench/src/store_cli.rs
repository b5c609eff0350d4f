//! The `repro submit` / `merge` / `query` / `fsck` subcommands: CLI glue
//! between the crash-safe result store (`hiermeans-store`) and the
//! incremental fleet scoreboard (`hiermeans_core::fleet`).
//!
//! The two crates deliberately do not know each other; this module is the
//! seam. `submit` and `merge` run the guarded ingest pipeline, `query`
//! rescores and renders the fleet table, `fsck` verifies and repairs. All
//! scoring goes through [`rescore`], which maintains the
//! `<store>.scores.json` sidecar cache: accepted submissions fold into the
//! cached scoreboard without re-running SOM + clustering, and a fingerprint
//! mismatch (different anchor, different workloads, protocol bump) or a
//! damaged cache triggers a loud full rebuild — narrated as a
//! `store`-class resilience event, never a silent divergence.

use std::fmt::Write as _;
use std::iter::Peekable;
use std::path::PathBuf;
use std::vec::IntoIter;

use hiermeans_core::analysis::paper_vectors;
use hiermeans_core::fleet::{ClusterModel, FleetScoreboard, DEFAULT_MAX_K};
use hiermeans_obs::{Collector, ObsConfig, ProgressLog, ResilienceEvent};
use hiermeans_store::{
    fsck, ingest_lines, ingest_submissions, synthetic_fleet, IngestConfig, ResultStore, Submission,
};
use hiermeans_workload::measurement::{paper_speedup, Characterization, N_WORKLOADS};
use hiermeans_workload::{BenchmarkSuite, Machine};

use crate::trace::progress_collector;

/// Default fleet store path, relative to the working directory.
pub const STORE_PATH: &str = "STORE_fleet.jsonl";

/// The suite name paper and synthetic submissions report.
pub const PAPER_SUITE: &str = "paper";

/// The score-cache sidecar for a store: `STORE_fleet.jsonl` →
/// `STORE_fleet.scores.json`.
#[must_use]
pub fn scores_path(store: &ResultStore) -> PathBuf {
    let path = store.path();
    let stem = path
        .file_name()
        .and_then(|n| n.to_str())
        .map(|n| n.strip_suffix(".jsonl").unwrap_or(n))
        .unwrap_or("store");
    path.with_file_name(format!("{stem}.scores.json"))
}

/// The paper's three machines as sealed store submissions: speedups from
/// Table III, characteristic vectors from the machine's own SAR study (the
/// machine-independent method-utilization vectors for the reference
/// machine, whose speedups are 1.0 by definition).
///
/// # Errors
///
/// Propagates characterization failures.
pub fn paper_submissions() -> Result<Vec<Submission>, String> {
    let collector = Collector::disabled();
    let names: Vec<String> = BenchmarkSuite::paper()
        .names()
        .iter()
        .map(|&s| s.to_owned())
        .collect();
    let mut submissions = Vec::new();
    for machine in [Machine::A, Machine::B, Machine::Reference] {
        let characterization = match machine {
            Machine::Reference => Characterization::MethodUtilization,
            m => Characterization::SarCounters(m),
        };
        let vectors = paper_vectors(characterization, &collector)
            .map_err(|e| format!("paper submissions: characterizing machine {machine}: {e}"))?;
        let rows: Vec<Vec<f64>> = (0..N_WORKLOADS)
            .map(|r| vectors.matrix().row(r).to_vec())
            .collect();
        let speedups: Vec<f64> = (0..N_WORKLOADS)
            .map(|w| paper_speedup(machine, w))
            .collect();
        submissions.push(
            Submission::new(
                format!("paper-{machine}"),
                PAPER_SUITE,
                names.clone(),
                speedups,
                rows,
            )
            .sealed()?,
        );
    }
    Ok(submissions)
}

/// One rescoring pass over a store.
#[derive(Debug)]
pub struct RescoreOutcome {
    /// The up-to-date scoreboard (also persisted to the sidecar).
    pub board: FleetScoreboard,
    /// Cache decisions and warnings, in order.
    pub notes: Vec<String>,
    /// Submissions not scorable under the anchor's suite/workload list.
    pub skipped: Vec<String>,
    /// How many submissions were newly folded this pass.
    pub folded: usize,
}

/// Brings the score cache up to date with the store: loads the sidecar,
/// validates its model fingerprint against the anchor (first) submission
/// and its machine list against the store's fold order, folds only the new
/// submissions, and writes the sidecar back. Any invalid cache is rebuilt
/// from scratch with a `cache_rebuild` resilience event.
///
/// # Errors
///
/// An unreadable store, an empty store (nothing to score), or a pipeline
/// failure deriving the cluster model.
pub fn rescore(store: &ResultStore, collector: &Collector) -> Result<RescoreOutcome, String> {
    let scan = store.load()?;
    let mut notes = Vec::new();
    if let Some(torn) = &scan.torn {
        notes.push(format!("warning: {}", torn.warning(store.path())));
    }
    let records = scan.records;
    let Some(anchor) = records.first() else {
        return Err(format!(
            "{}: store is empty — nothing to score (use `repro submit` first)",
            store.path().display()
        ));
    };
    let fingerprint =
        ClusterModel::fingerprint_of(&anchor.suite, &anchor.workloads, &anchor.vectors);
    let mut scorable = Vec::new();
    let mut skipped = Vec::new();
    for sub in &records {
        if sub.suite == anchor.suite && sub.workloads == anchor.workloads {
            scorable.push(sub);
        } else {
            skipped.push(format!(
                "{}: different suite/workload list than the anchor",
                sub.identity()
            ));
        }
    }

    let sidecar = scores_path(store);
    let cached: Option<FleetScoreboard> = match std::fs::read_to_string(&sidecar) {
        Ok(text) => match serde_json::from_str::<FleetScoreboard>(&text) {
            Ok(board) => Some(board),
            Err(e) => {
                rebuild_note(collector, &mut notes, format!("cache unreadable ({e})"));
                None
            }
        },
        Err(_) => None, // no cache yet — a fresh build, not a rebuild
    };
    let mut board = match cached {
        Some(board) if board.model.fingerprint != fingerprint => {
            rebuild_note(
                collector,
                &mut notes,
                format!(
                    "model fingerprint changed ({} → {fingerprint})",
                    board.model.fingerprint
                ),
            );
            None
        }
        Some(board)
            if board.machines.len() > scorable.len()
                || board
                    .machines
                    .iter()
                    .zip(&scorable)
                    .any(|(m, s)| m.machine != s.machine) =>
        {
            rebuild_note(
                collector,
                &mut notes,
                "cached machine list is not a prefix of the store's fold order".to_owned(),
            );
            None
        }
        other => other,
    }
    .unwrap_or_else(|| {
        FleetScoreboard {
            // Placeholder replaced below once the model is derived; kept
            // out of the happy path so a valid cache never re-runs the
            // pipeline.
            model: ClusterModel {
                suite: String::new(),
                workloads: Vec::new(),
                clusters: Vec::new(),
                anchor_machine: String::new(),
                fingerprint: String::new(),
            },
            machines: Vec::new(),
            log_hgm_sum: 0.0,
            ham_sum: 0.0,
            recip_hhm_sum: 0.0,
        }
    });
    if board.model.fingerprint != fingerprint {
        let model = ClusterModel::from_anchor(
            &anchor.suite,
            &anchor.workloads,
            &anchor.machine,
            &anchor.vectors,
            DEFAULT_MAX_K,
        )
        .map_err(|e| format!("deriving cluster model from {}: {e}", anchor.identity()))?;
        notes.push(format!(
            "derived cluster model from anchor {} ({} clusters)",
            anchor.identity(),
            model.clusters.len()
        ));
        board = FleetScoreboard::new(model);
    }

    let already = board.machines.len();
    for sub in &scorable[already..] {
        board
            .fold(&sub.machine, &sub.workloads, &sub.speedups)
            .map_err(|e| format!("scoring {}: {e}", sub.identity()))?;
    }
    let folded = scorable.len() - already;
    let json = serde_json::to_string_pretty(&board)
        .map_err(|e| format!("serializing score cache: {e}"))?;
    std::fs::write(&sidecar, json).map_err(|e| format!("writing {}: {e}", sidecar.display()))?;
    Ok(RescoreOutcome {
        board,
        notes,
        skipped,
        folded,
    })
}

fn rebuild_note(collector: &Collector, notes: &mut Vec<String>, why: String) {
    collector.record_resilience(ResilienceEvent::Store {
        action: "cache_rebuild".to_owned(),
        detail: why.clone(),
    });
    notes.push(format!("score cache rebuilt: {why}"));
}

/// Renders the fleet table for a rescoring pass.
#[must_use]
pub fn render_query(store: &ResultStore, outcome: &RescoreOutcome) -> String {
    let mut out = String::new();
    let board = &outcome.board;
    let _ = writeln!(
        out,
        "fleet store {}: {} machines scored, {} skipped ({} newly folded)",
        store.path().display(),
        board.machines.len(),
        outcome.skipped.len(),
        outcome.folded
    );
    let _ = writeln!(
        out,
        "model: suite \"{}\", {} workloads in {} clusters, anchor {}, fingerprint {}",
        board.model.suite,
        board.model.workloads.len(),
        board.model.clusters.len(),
        board.model.anchor_machine,
        board.model.fingerprint
    );
    for note in &outcome.notes {
        let _ = writeln!(out, "note: {note}");
    }
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>8} {:>8}",
        "machine", "HGM", "HAM", "HHM"
    );
    for m in &board.machines {
        let _ = writeln!(
            out,
            "{:<18} {:>8.4} {:>8.4} {:>8.4}",
            m.machine, m.hgm, m.ham, m.hhm
        );
    }
    if let Some(fleet) = board.fleet_scores() {
        let _ = writeln!(
            out,
            "{:<18} {:>8.4} {:>8.4} {:>8.4}",
            format!("fleet ({})", fleet.machines),
            fleet.hgm,
            fleet.ham,
            fleet.hhm
        );
    }
    for s in &outcome.skipped {
        let _ = writeln!(out, "skipped: {s}");
    }
    out
}

/// Appends the ingest report, any resilience events, and — when the store
/// has scorable records — the refreshed fleet summary.
fn render_submit(
    store: &ResultStore,
    report: &hiermeans_store::IngestReport,
    collector: &Collector,
) -> Result<String, String> {
    let mut out = report.render();
    for event in collector.resilience_events() {
        let _ = writeln!(out, "store event: {event}");
    }
    match rescore(store, collector) {
        Ok(outcome) => {
            out.push('\n');
            out.push_str(&render_query(store, &outcome));
            Ok(out)
        }
        // Everything quarantined into an empty store: report it, don't fail.
        Err(_) if report.accepted() == 0 => Ok(out),
        Err(e) => Err(e),
    }
}

/// What `repro submit` ingests.
enum SubmitSource {
    /// The paper's three machines (`--paper`).
    Paper,
    /// A seeded synthetic fleet (`--synthetic <n> [--seed <s>]`).
    Synthetic { n: usize, seed: u64 },
    /// A JSONL file of submissions.
    File(String),
}

/// Parses one fleet-store subcommand (`submit`, `merge`, `query`, `fsck`),
/// consuming its flags and operands from the argument stream, and returns
/// the run it stands for without starting it. Parsing stops at the first
/// argument the subcommand does not take.
///
/// The run fails on I/O errors and on unabsorbed store damage (`fsck`
/// without `--repair` on a dirty store).
///
/// # Errors
///
/// An unknown subcommand, a flag without its value, a malformed number, or
/// a missing operand.
pub fn parse_store_command(
    cmd: &str,
    args: &mut Peekable<IntoIter<String>>,
) -> Result<Box<dyn FnOnce() -> Result<String, String>>, String> {
    let mut store = STORE_PATH.to_owned();
    let mut progress: Option<String> = None;
    let mut repair = false;
    let mut paper = false;
    let mut synthetic: Option<usize> = None;
    let mut seed = 42u64;
    let mut file: Option<String> = None;
    loop {
        match args.peek().map(String::as_str) {
            Some("--store") => {
                args.next();
                store = take_value(args, cmd, "--store")?;
            }
            Some("--progress") if matches!(cmd, "submit" | "merge") => {
                args.next();
                progress = Some(take_value(args, cmd, "--progress")?);
            }
            Some("--repair") if cmd == "fsck" => {
                args.next();
                repair = true;
            }
            Some("--paper") if cmd == "submit" => {
                args.next();
                paper = true;
            }
            Some("--synthetic") if cmd == "submit" => {
                args.next();
                let n = take_value(args, cmd, "--synthetic")?;
                synthetic = Some(
                    n.parse()
                        .map_err(|_| format!("submit: --synthetic takes a count, got {n:?}"))?,
                );
            }
            Some("--seed") if cmd == "submit" => {
                args.next();
                let s = take_value(args, cmd, "--seed")?;
                seed = s
                    .parse()
                    .map_err(|_| format!("submit: --seed takes an integer, got {s:?}"))?;
            }
            Some(s)
                if cmd == "submit"
                    && !s.starts_with("--")
                    && !paper
                    && synthetic.is_none()
                    && file.is_none() =>
            {
                file = args.next();
            }
            _ => break,
        }
    }
    match cmd {
        "submit" => {
            let source = if paper {
                SubmitSource::Paper
            } else if let Some(n) = synthetic {
                SubmitSource::Synthetic { n, seed }
            } else if let Some(path) = file {
                SubmitSource::File(path)
            } else {
                return Err(
                    "submit: nothing to submit (give a JSONL file, --paper, or --synthetic N)"
                        .to_owned(),
                );
            };
            Ok(Box::new(move || {
                run_submit(&store, progress.as_deref(), &source)
            }))
        }
        "merge" => {
            let source = args
                .next()
                .ok_or_else(|| "merge: missing <source.jsonl> argument".to_owned())?;
            Ok(Box::new(move || {
                run_merge(&store, progress.as_deref(), &source)
            }))
        }
        "query" => Ok(Box::new(move || run_query(&store))),
        "fsck" => Ok(Box::new(move || run_fsck(&store, repair))),
        other => Err(format!("unknown store command: {other}")),
    }
}

/// `repro submit`: ingests submissions from a JSONL file, the paper's
/// machines (`--paper`), or a seeded synthetic fleet (`--synthetic N`),
/// then rescores.
fn run_submit(
    store_path: &str,
    progress: Option<&str>,
    source: &SubmitSource,
) -> Result<String, String> {
    let store = ResultStore::new(store_path);
    let progress = progress.map(ProgressLog::create).transpose()?;
    // `Ingest` lines carry the store path as their label.
    let collector = progress_collector(ObsConfig::default(), progress.as_ref(), store_path);
    let cfg = IngestConfig::default();
    let report = match source {
        SubmitSource::Paper => ingest_submissions(&store, &paper_submissions()?, &cfg, &collector)?,
        SubmitSource::Synthetic { n, seed } => {
            ingest_submissions(&store, &synthetic_fleet(*n, *seed)?, &cfg, &collector)?
        }
        SubmitSource::File(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("submit: cannot read {path}: {e}"))?;
            ingest_lines(&store, &text, &cfg, &collector)?
        }
    };
    let out = render_submit(&store, &report, &collector)?;
    Ok(with_progress_summary(out, progress.as_ref()))
}

/// `repro merge`: re-ingests every line of a source store into the
/// destination. The guards re-verify each record, dedup drops records the
/// destination already holds, and malformed source lines (including a torn
/// source tail) are quarantined at the destination — merging never imports
/// damage silently.
fn run_merge(store_path: &str, progress: Option<&str>, source: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(source).map_err(|e| format!("merge: cannot read {source}: {e}"))?;
    let store = ResultStore::new(store_path);
    let progress = progress.map(ProgressLog::create).transpose()?;
    // `Ingest` lines carry the store path as their label.
    let collector = progress_collector(ObsConfig::default(), progress.as_ref(), store_path);
    let report = ingest_lines(&store, &text, &IngestConfig::default(), &collector)?;
    let mut out = format!("merge {source} -> {store_path}\n");
    out.push_str(&render_submit(&store, &report, &collector)?);
    Ok(with_progress_summary(out, progress.as_ref()))
}

/// `repro query`: rescores the store (incrementally, via the sidecar
/// cache) and renders the fleet table.
fn run_query(store_path: &str) -> Result<String, String> {
    let store = ResultStore::new(store_path);
    let collector = Collector::enabled();
    let outcome = rescore(&store, &collector)?;
    let mut out = render_query(&store, &outcome);
    for event in collector.resilience_events() {
        let _ = writeln!(out, "store event: {event}");
    }
    Ok(out)
}

/// `repro fsck`: verifies every store line; with `--repair`, rewrites the
/// store to the valid lines and quarantines the rest. A dirty store that
/// was not repaired exits nonzero.
fn run_fsck(store_path: &str, repair: bool) -> Result<String, String> {
    let store = ResultStore::new(store_path);
    let collector = Collector::enabled();
    let report = fsck(&store, repair, &collector)?;
    let mut out = report.render(&store);
    for event in collector.resilience_events() {
        let _ = writeln!(out, "store event: {event}");
    }
    if !report.clean() && !report.repaired {
        return Err(format!("fsck: store has unrepaired problems\n{out}"));
    }
    Ok(out)
}

/// Appends the progress log's closing line to a run's output.
fn with_progress_summary(mut out: String, progress: Option<&ProgressLog>) -> String {
    if let Some(log) = progress {
        out.push('\n');
        out.push_str(&log.summary());
    }
    out
}

fn take_value(
    args: &mut Peekable<IntoIter<String>>,
    cmd: &str,
    flag: &str,
) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("{cmd}: {flag} requires an argument"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("hm_storecli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let store = ResultStore::new(&path);
        for p in [
            path.clone(),
            store.quarantine_path(),
            store.lock_path(),
            scores_path(&store),
        ] {
            let _ = std::fs::remove_file(p);
        }
        store
    }

    #[test]
    fn scores_path_is_a_sidecar() {
        let store = ResultStore::new("STORE_fleet.jsonl");
        assert_eq!(
            scores_path(&store),
            PathBuf::from("STORE_fleet.scores.json")
        );
    }

    #[test]
    fn paper_submissions_are_sealed_and_distinct() {
        let subs = paper_submissions().unwrap();
        assert_eq!(subs.len(), 3);
        assert!(subs.iter().all(Submission::checksum_ok));
        let machines: Vec<&str> = subs.iter().map(|s| s.machine.as_str()).collect();
        assert_eq!(machines, ["paper-A", "paper-B", "paper-Reference"]);
        assert!(subs[2].speedups.iter().all(|&v| v == 1.0));
        // Deterministic: the seed fixture must be reproducible.
        assert_eq!(subs, paper_submissions().unwrap());
    }

    #[test]
    fn rescore_is_incremental_and_cache_survives() {
        let store = scratch("rescore.jsonl");
        let collector = Collector::enabled();
        let fleet = synthetic_fleet(6, 11).unwrap();
        ingest_submissions(&store, &fleet[..4], &IngestConfig::default(), &collector).unwrap();
        let first = rescore(&store, &collector).unwrap();
        assert_eq!((first.board.machines.len(), first.folded), (4, 4));

        ingest_submissions(&store, &fleet[4..], &IngestConfig::default(), &collector).unwrap();
        let second = rescore(&store, &collector).unwrap();
        assert_eq!((second.board.machines.len(), second.folded), (6, 2));
        // No rebuild happened: the cache was a valid prefix both times.
        assert!(collector.resilience_events().iter().all(
            |e| !matches!(e, ResilienceEvent::Store { action, .. } if action == "cache_rebuild")
        ));

        // And the incremental board is bitwise identical to a from-scratch
        // rescore (cache removed).
        std::fs::remove_file(scores_path(&store)).unwrap();
        let fresh = rescore(&store, &collector).unwrap();
        assert_eq!(fresh.board, second.board);
    }

    #[test]
    fn corrupt_cache_triggers_a_narrated_rebuild() {
        let store = scratch("rebuild.jsonl");
        let collector = Collector::enabled();
        let fleet = synthetic_fleet(3, 5).unwrap();
        ingest_submissions(&store, &fleet, &IngestConfig::default(), &collector).unwrap();
        rescore(&store, &collector).unwrap();
        std::fs::write(scores_path(&store), "{not json").unwrap();
        let outcome = rescore(&store, &collector).unwrap();
        assert_eq!(outcome.board.machines.len(), 3);
        assert!(outcome.notes.iter().any(|n| n.contains("rebuilt")));
        assert!(collector.resilience_events().iter().any(
            |e| matches!(e, ResilienceEvent::Store { action, .. } if action == "cache_rebuild")
        ));
    }
}
