//! `hiermeans-store`: the crash-safe fleet result store.
//!
//! The paper scores 3 machines in one in-memory run; the fleet north-star
//! is thousands of machines submitting results continuously — which makes
//! ingestion the system's weakest point. This crate is the durability
//! layer: a versioned, append-only, per-record-checksummed JSONL store of
//! [`Submission`]s (one per machine × suite run) whose every failure mode
//! is handled loudly and typed:
//!
//! * **Guarded ingestion** ([`ingest`]) — schema, checksum, shape,
//!   `hiermeans_linalg::validate`, content-hash dedup, and a MAD-based
//!   per-workload outlier gate, in that order. A failing record is routed
//!   to the quarantine sidecar with a typed [`RejectReason`]; it never
//!   fails the batch.
//! * **Atomic writes** ([`store`]) — appends take an advisory `flock` on a
//!   dedicated lock file and write one newline-terminated record per
//!   `write`; merges and repairs go through temp-file + rename. A writer
//!   killed mid-append leaves at worst one torn trailing record, which the
//!   next append truncates and the tolerant reader skips.
//! * **Verification and repair** ([`fsck()`]) — classifies every line,
//!   distinguishes expected crash damage (torn tail) from mid-file
//!   corruption, and optionally rewrites the store while preserving every
//!   bad line in quarantine.
//! * **Synthetic fleets** ([`synthetic`]) — seeded machine populations for
//!   tests, CI, and seed artifacts.
//!
//! Scoring lives elsewhere by design: `hiermeans-core`'s fleet scoreboard
//! consumes accepted submissions; this crate never imports the pipeline.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fsck;
pub mod ingest;
pub mod quarantine;
pub mod store;
pub mod submission;
pub mod synthetic;

pub use fsck::{fsck, FsckProblem, FsckReport};
pub use ingest::{
    ingest_lines, ingest_submissions, Disposition, IngestConfig, IngestOutcome, IngestReport,
};
pub use quarantine::{QuarantineRecord, RejectReason};
pub use store::{ResultStore, StoreLock};
pub use submission::{Submission, STORE_SCHEMA_VERSION};
pub use synthetic::synthetic_fleet;
