//! Run progress as an append-only JSON-lines file.
//!
//! Traces, profiles and history records exist only once a run ends, while
//! a streamed SOM run can train for minutes. A [`ProgressLog`] gives such a
//! run a heartbeat: every finished epoch, every out-of-core strip and every
//! store-ingestion batch appends one [`ProgressEvent`] line to a file, so
//! `tail -f` shows the run as it goes.
//!
//! Each event is serialized first and written with a single `write_all`
//! under the log's lock, so the file only ever holds whole lines and a
//! line lands when its epoch or strip ends. Publishing never panics and
//! never fails the run: the first I/O error is kept for
//! [`ProgressLog::summary`] and later events are dropped. Publishing also
//! never writes into a [`crate::Collector`]'s recorded state, so progress
//! on or off leaves every output bitwise identical.

use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

/// Trailing epochs averaged for the ETA estimate.
const ETA_WINDOW: usize = 8;

/// Publishing must never panic, so a poisoned lock is recovered: every
/// update below is a single assignment or push, valid at each step.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One line of the progress file. Externally tagged — `{"Epoch": {...}}`,
/// `{"Strip": {...}}`, `{"Ingest": {...}}` — so readers dispatch on the
/// single top-level key without guessing from field presence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProgressEvent {
    /// One finished training epoch.
    Epoch {
        /// Publisher label, usually the study name.
        study: String,
        /// Zero-based epoch index.
        epoch: usize,
        /// Total epochs the run will train.
        total_epochs: usize,
        /// Mean sample-to-BMU distance after this epoch, when the epoch
        /// was quality-sampled (`None` on unsampled epochs).
        #[serde(default)]
        quantization_error: Option<f64>,
        /// Wall-clock duration of this epoch in microseconds.
        epoch_duration_us: u64,
        /// Estimated microseconds until training completes: mean of the
        /// trailing `ETA_WINDOW` epoch durations times remaining epochs.
        #[serde(default)]
        eta_us: Option<u64>,
    },
    /// One out-of-core strip loaded and folded during a streaming epoch.
    Strip {
        /// Publisher label, usually the study name.
        study: String,
        /// Zero-based epoch index the strip belongs to.
        epoch: usize,
        /// Zero-based strip index within the epoch.
        strip: usize,
        /// Strips per epoch (`ceil(rows / strip_rows)`).
        total_strips: usize,
    },
    /// Cumulative store-ingestion outcome totals after a batch advanced.
    Ingest {
        /// Publisher label, usually the store path.
        store: String,
        /// Submissions accepted and appended so far.
        accepted: u64,
        /// Submissions quarantined or rejected as malformed so far.
        rejected: u64,
    },
}

/// Trailing-window epoch-duration history backing the ETA estimate.
#[derive(Debug, Default)]
struct EtaWindow {
    durations: VecDeque<u64>,
}

impl EtaWindow {
    /// Records one epoch duration and returns the ETA for `remaining`
    /// further epochs.
    fn push(&mut self, duration_us: u64, remaining: usize) -> u64 {
        self.durations.push_back(duration_us);
        while self.durations.len() > ETA_WINDOW {
            self.durations.pop_front();
        }
        let sum: u64 = self.durations.iter().sum();
        let mean = sum / self.durations.len().max(1) as u64;
        mean.saturating_mul(remaining as u64)
    }
}

#[derive(Debug)]
struct Sink {
    file: File,
    written: u64,
    error: Option<String>,
}

/// The progress file of one run. Clones share the file; hand each study
/// its own [`ProgressLog::publisher`].
#[derive(Debug, Clone)]
pub struct ProgressLog {
    path: PathBuf,
    sink: Arc<Mutex<Sink>>,
}

impl ProgressLog {
    /// Creates (or truncates) the progress file at `path`.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)
            .map_err(|e| format!("progress: cannot create {}: {e}", path.display()))?;
        Ok(ProgressLog {
            path,
            sink: Arc::new(Mutex::new(Sink {
                file,
                written: 0,
                error: None,
            })),
        })
    }

    /// A publisher whose events carry `label` (a study name or store path).
    #[must_use]
    pub fn publisher(&self, label: &str) -> ProgressPublisher {
        ProgressPublisher {
            log: self.clone(),
            label: label.to_owned(),
            eta: Arc::new(Mutex::new(EtaWindow::default())),
            ingest: Arc::new(Mutex::new((0, 0))),
        }
    }

    /// One closing line for the run's output: the events written and the
    /// first I/O error, if one stopped the log.
    #[must_use]
    pub fn summary(&self) -> String {
        let sink = lock(&self.sink);
        let path = self.path.display();
        match &sink.error {
            None => format!("wrote {} progress events to {path}", sink.written),
            Some(e) => format!(
                "wrote {} progress events to {path}, then stopped: {e}",
                sink.written
            ),
        }
    }

    /// Appends one event as one line. After the first I/O error the log
    /// keeps that error and writes nothing more.
    fn append(&self, event: &ProgressEvent) {
        let Ok(mut line) = serde_json::to_string(event) else {
            return;
        };
        line.push('\n');
        let mut sink = lock(&self.sink);
        if sink.error.is_some() {
            return;
        }
        match sink.file.write_all(line.as_bytes()) {
            Ok(()) => sink.written += 1,
            Err(e) => sink.error = Some(e.to_string()),
        }
    }
}

/// Cloneable per-label handle a [`crate::Collector`] (or ingest loop)
/// publishes through.
#[derive(Debug, Clone)]
pub struct ProgressPublisher {
    log: ProgressLog,
    label: String,
    eta: Arc<Mutex<EtaWindow>>,
    /// Cumulative `(accepted, rejected)` ingestion totals; callers pass
    /// deltas so hooks need no shared counters of their own.
    ingest: Arc<Mutex<(u64, u64)>>,
}

impl ProgressPublisher {
    /// Publishes one finished epoch with a trailing-window ETA.
    pub fn publish_epoch(
        &self,
        epoch: usize,
        total_epochs: usize,
        quantization_error: Option<f64>,
        epoch_duration_us: u64,
    ) {
        let remaining = total_epochs.saturating_sub(epoch + 1);
        let eta_us = lock(&self.eta).push(epoch_duration_us, remaining);
        self.log.append(&ProgressEvent::Epoch {
            study: self.label.clone(),
            epoch,
            total_epochs,
            quantization_error,
            epoch_duration_us,
            eta_us: Some(eta_us),
        });
    }

    /// Publishes one out-of-core strip advance.
    pub fn publish_strip(&self, epoch: usize, strip: usize, total_strips: usize) {
        self.log.append(&ProgressEvent::Strip {
            study: self.label.clone(),
            epoch,
            strip,
            total_strips,
        });
    }

    /// Accumulates ingestion deltas and publishes the running totals.
    pub fn publish_ingest(&self, accepted_delta: u64, rejected_delta: u64) {
        let (accepted, rejected) = {
            let mut totals = lock(&self.ingest);
            totals.0 += accepted_delta;
            totals.1 += rejected_delta;
            *totals
        };
        self.log.append(&ProgressEvent::Ingest {
            store: self.label.clone(),
            accepted,
            rejected,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hm_progress_{name}_{}.jsonl", std::process::id()))
    }

    fn events(path: &Path) -> Vec<ProgressEvent> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect()
    }

    #[test]
    fn every_event_is_one_json_line_in_publish_order() {
        let path = scratch("order");
        let log = ProgressLog::create(&path).unwrap();
        let publisher = log.publisher("s");
        publisher.publish_strip(0, 0, 4);
        publisher.publish_ingest(2, 1);
        publisher.publish_ingest(1, 0);
        assert_eq!(
            events(&path),
            [
                ProgressEvent::Strip {
                    study: "s".into(),
                    epoch: 0,
                    strip: 0,
                    total_strips: 4
                },
                ProgressEvent::Ingest {
                    store: "s".into(),
                    accepted: 2,
                    rejected: 1
                },
                ProgressEvent::Ingest {
                    store: "s".into(),
                    accepted: 3,
                    rejected: 1
                },
            ]
        );
        assert_eq!(
            log.summary(),
            format!("wrote 3 progress events to {}", path.display())
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn epoch_eta_averages_the_trailing_window() {
        let path = scratch("eta");
        let log = ProgressLog::create(&path).unwrap();
        let publisher = log.publisher("s");
        publisher.publish_epoch(0, 3, None, 100);
        publisher.publish_epoch(1, 3, None, 300);
        let ProgressEvent::Epoch { eta_us, .. } = events(&path)[1] else {
            panic!("expected an epoch event");
        };
        // Mean of (100, 300) = 200 us, one epoch remaining.
        assert_eq!(eta_us, Some(200));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn progress_event_serde_is_externally_tagged() {
        let event = ProgressEvent::Epoch {
            study: "sar_machine_a".into(),
            epoch: 3,
            total_epochs: 10,
            quantization_error: Some(0.25),
            epoch_duration_us: 1234,
            eta_us: Some(8638),
        };
        let json = serde_json::to_string(&event).unwrap();
        assert!(json.starts_with("{\"Epoch\":"), "{json}");
        let round: ProgressEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(round, event);
    }

    #[test]
    fn create_reports_an_unwritable_path() {
        let path = scratch("missing_dir").join("run.jsonl");
        let err = ProgressLog::create(&path).unwrap_err();
        assert!(err.contains("cannot create"), "{err}");
    }

    /// `/dev/full` accepts the open and fails every write with ENOSPC.
    #[cfg(target_os = "linux")]
    #[test]
    fn the_first_write_error_is_kept_and_never_panics() {
        let log = ProgressLog::create("/dev/full").unwrap();
        let publisher = log.publisher("s");
        publisher.publish_epoch(0, 2, None, 10);
        publisher.publish_strip(1, 0, 2);
        let summary = log.summary();
        assert!(
            summary.starts_with("wrote 0 progress events to /dev/full, then stopped: "),
            "{summary}"
        );
    }
}
