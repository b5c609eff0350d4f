//! `repro` parses its whole command line before it runs anything: a flag a
//! subcommand does not take, or an unknown artifact, fails at once with a
//! message naming it, and no artifact file is written.

use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hm_cli_args_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `repro args` in a fresh directory, asserts it failed with a message
/// naming `named` and printed nothing, and returns the files it left.
fn rejected(name: &str, args: &[&str], named: &str) -> Vec<String> {
    let dir = scratch(name);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "repro {args:?} succeeded");
    assert!(stderr.contains(named), "repro {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "repro {args:?} ran something");
    let files = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    files
}

#[test]
fn a_flag_the_subcommand_does_not_take_fails_before_it_runs() {
    for (name, args) in [
        ("scale", ["bench-scale", "--progress", "x"]),
        ("trace", ["trace", "--baseline", "x"]),
        ("profile", ["profile", "--prom", "x"]),
    ] {
        let files = rejected(name, &args, args[1]);
        assert!(
            !files
                .iter()
                .any(|f| f.starts_with("BENCH_") || f.starts_with("OBS_")),
            "repro {args:?} wrote {files:?}"
        );
    }
}

#[test]
fn an_unknown_artifact_fails_before_earlier_artifacts_run() {
    let files = rejected(
        "unknown",
        &["table1", "no-such-artifact"],
        "no-such-artifact",
    );
    assert!(files.is_empty(), "{files:?}");
}

#[test]
fn a_flag_missing_its_value_fails_before_earlier_artifacts_run() {
    rejected("missing", &["table1", "trace", "--prom"], "--prom");
    rejected("submit", &["table1", "submit", "--store"], "--store");
}
