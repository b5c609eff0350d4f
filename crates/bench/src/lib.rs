//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `pub fn` in [`experiments`] reproduces one artifact and returns the
//! rendered text; the `repro` binary dispatches to them. The Criterion
//! benches under `benches/` measure the algorithmic kernels and the
//! ablation choices called out in DESIGN.md.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod check;
pub mod experiments;
pub mod extensions;
pub mod faults;
pub mod history;
pub mod live_client;
pub mod profile;
pub mod scale;
pub mod som;
pub mod store_cli;
pub mod trace;
