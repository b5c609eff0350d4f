//! In-run live telemetry plane: a std-only HTTP server over [`TcpListener`].
//!
//! Every observability surface before this module was post-hoc — traces,
//! profiles, and history records exist only after the run exits, while the
//! out-of-core SOM trainer can grind for minutes in silence. `live` turns
//! the process inside out: any long-running `repro` subcommand can host a
//! [`LiveServer`] (`--live [addr]`) and attach a [`LivePublisher`] per
//! study so scrape tooling and humans see progress *during* the run.
//!
//! Endpoints:
//!
//! * `GET /metrics` — the [`crate::prom`] text exposition rendered from the
//!   latest [`TraceReport`] snapshots, plus the live-plane gauge
//!   `hiermeans_process_peak_rss_kb{study="process"}` sampled at scrape
//!   time from [`crate::memhook::peak_rss_kb`].
//! * `GET /healthz` — liveness; `200 ok` whenever the server accepts.
//! * `GET /readyz` — readiness; `503` until the first snapshot or progress
//!   event is published, `200 ready` afterwards.
//! * `GET /trace` — the current partial trace as a
//!   [`TraceDocument`] JSON body (same schema as `OBS_trace.json`).
//! * `GET /events` — a Server-Sent-Events stream of [`ProgressEvent`]
//!   records (per-epoch quality + trailing-window ETA,
//!   streaming strip index/total, store ingestion accept/reject totals).
//!
//! # Never on the hot path
//!
//! Publishers never touch a socket: they serialize the event, take one
//! short [`Mutex`] on a bounded in-memory ring, and return. Connection
//! handling lives on dedicated threads that *read* from that state. The
//! hard invariant of every obs PR carries over — live telemetry on vs. off
//! changes no pipeline output, because publishing never writes into the
//! [`crate::Collector`]'s recorded state.
//!
//! The server shuts down deterministically: [`LiveServer::shutdown`] (also
//! run on drop) flags every loop, unblocks the acceptor with a loopback
//! connection, and joins the acceptor plus every connection thread.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::memhook;
use crate::prom;
use crate::report::{StudyTrace, TraceDocument, TraceReport};

/// Default bind address for `--live` when no explicit address is given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:9184";

/// Progress events retained for late SSE subscribers before the ring
/// drops its oldest entries.
const EVENT_RING_CAP: usize = 4096;

/// How often an SSE connection polls the ring for fresh events.
const SSE_POLL: Duration = Duration::from_millis(25);

/// Idle interval after which an SSE connection emits a keepalive comment
/// so clients can distinguish "no progress yet" from a dead server.
const SSE_KEEPALIVE: Duration = Duration::from_secs(2);

/// Trailing epochs averaged for the ETA estimate.
const ETA_WINDOW: usize = 8;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One record on the `GET /events` SSE stream, serialized as the `data:`
/// payload of each frame. Externally tagged — `{"Epoch": {...}}`,
/// `{"Strip": {...}}`, `{"Ingest": {...}}` — so clients dispatch on the
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

/// Per-endpoint request totals for the run summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveRequestCounts {
    /// `GET /metrics` requests served.
    pub metrics: u64,
    /// `GET /healthz` requests served.
    pub healthz: u64,
    /// `GET /readyz` requests served.
    pub readyz: u64,
    /// `GET /trace` requests served.
    pub trace: u64,
    /// `GET /events` streams opened.
    pub events: u64,
}

/// End-of-run summary of the telemetry plane, stamped into
/// `OBS_trace.json` / `OBS_profile.json` when the run hosted `--live`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveSummary {
    /// The address the server actually bound (resolved, so `:0` binds
    /// report their ephemeral port).
    pub addr: String,
    /// Requests served per endpoint.
    pub requests: LiveRequestCounts,
    /// Progress events published into the SSE ring.
    pub events_published: u64,
}

/// Mutable server state shared between publishers and connections.
#[derive(Debug)]
struct LiveState {
    /// Flips once anything is published; gates `/readyz`.
    ready: bool,
    /// Worker count stamped into `/trace` documents.
    workers: usize,
    /// Latest snapshot per publisher label, insertion-ordered.
    studies: Vec<(String, TraceReport)>,
    /// Bounded ring of `(sequence, serialized event)`.
    events: VecDeque<(u64, String)>,
    /// Sequence number of the next event pushed.
    next_seq: u64,
}

#[derive(Debug)]
struct ServerShared {
    shutdown: AtomicBool,
    state: Mutex<LiveState>,
    metrics_requests: AtomicU64,
    healthz_requests: AtomicU64,
    readyz_requests: AtomicU64,
    trace_requests: AtomicU64,
    events_requests: AtomicU64,
    events_published: AtomicU64,
}

impl ServerShared {
    fn push_event(&self, event: &ProgressEvent) {
        let Ok(json) = serde_json::to_string(event) else {
            return;
        };
        let mut state = lock(&self.state);
        state.ready = true;
        let seq = state.next_seq;
        state.next_seq += 1;
        state.events.push_back((seq, json));
        while state.events.len() > EVENT_RING_CAP {
            state.events.pop_front();
        }
        drop(state);
        self.events_published.fetch_add(1, Ordering::Relaxed);
    }
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

/// Cloneable handle a [`crate::Collector`] (or ingest loop) publishes
/// through. Cheap: every publish is a serialize plus one short mutex.
#[derive(Debug, Clone)]
pub struct LivePublisher {
    shared: Arc<ServerShared>,
    label: String,
    eta: Arc<Mutex<EtaWindow>>,
    /// Cumulative `(accepted, rejected)` ingestion totals; callers pass
    /// deltas so hooks need no shared counters of their own.
    ingest: Arc<Mutex<(u64, u64)>>,
}

impl LivePublisher {
    /// The label events from this publisher carry (study or store name).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Replaces (or installs) this publisher's [`TraceReport`] snapshot,
    /// the body behind `/trace` and `/metrics`.
    pub fn publish_snapshot(&self, report: TraceReport) {
        let mut state = lock(&self.shared.state);
        state.ready = true;
        match state
            .studies
            .iter_mut()
            .find(|(label, _)| *label == self.label)
        {
            Some(entry) => entry.1 = report,
            None => state.studies.push((self.label.clone(), report)),
        }
    }

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
        self.shared.push_event(&ProgressEvent::Epoch {
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
        self.shared.push_event(&ProgressEvent::Strip {
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
        self.shared.push_event(&ProgressEvent::Ingest {
            store: self.label.clone(),
            accepted,
            rejected,
        });
    }
}

/// The in-process telemetry server. Owns the acceptor thread and every
/// connection thread; [`LiveServer::shutdown`] (or drop) joins them all.
#[derive(Debug)]
pub struct LiveServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl LiveServer {
    /// Binds `addr` (supports `:0` for an ephemeral port) and starts the
    /// acceptor thread.
    ///
    /// # Errors
    ///
    /// Returns a message when the bind or thread spawn fails (address in
    /// use, permission, resolver).
    pub fn bind(addr: &str, workers: usize) -> Result<Self, String> {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("live: cannot bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("live: no local addr for {addr}: {e}"))?;
        let shared = Arc::new(ServerShared {
            shutdown: AtomicBool::new(false),
            state: Mutex::new(LiveState {
                ready: false,
                workers,
                studies: Vec::new(),
                events: VecDeque::new(),
                next_seq: 0,
            }),
            metrics_requests: AtomicU64::new(0),
            healthz_requests: AtomicU64::new(0),
            readyz_requests: AtomicU64::new(0),
            trace_requests: AtomicU64::new(0),
            events_requests: AtomicU64::new(0),
            events_published: AtomicU64::new(0),
        });
        let connections = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&connections);
        let acceptor = std::thread::Builder::new()
            .name("obs-live-server".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared, &accept_conns))
            .map_err(|e| format!("live: cannot spawn acceptor: {e}"))?;
        Ok(Self {
            shared,
            addr: local,
            acceptor: Some(acceptor),
            connections,
        })
    }

    /// The resolved bound address (real port even for `:0` binds).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A publisher whose events and snapshots carry `label`.
    #[must_use]
    pub fn publisher(&self, label: &str) -> LivePublisher {
        LivePublisher {
            shared: Arc::clone(&self.shared),
            label: label.to_owned(),
            eta: Arc::new(Mutex::new(EtaWindow::default())),
            ingest: Arc::new(Mutex::new((0, 0))),
        }
    }

    /// The end-of-run summary stamped into trace/profile artifacts.
    #[must_use]
    pub fn summary(&self) -> LiveSummary {
        LiveSummary {
            addr: self.addr.to_string(),
            requests: LiveRequestCounts {
                metrics: self.shared.metrics_requests.load(Ordering::Relaxed),
                healthz: self.shared.healthz_requests.load(Ordering::Relaxed),
                readyz: self.shared.readyz_requests.load(Ordering::Relaxed),
                trace: self.shared.trace_requests.load(Ordering::Relaxed),
                events: self.shared.events_requests.load(Ordering::Relaxed),
            },
            events_published: self.shared.events_published.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, closes every open stream, and joins all server
    /// threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The acceptor blocks in `accept()`; a throwaway loopback
        // connection wakes it so it can observe the flag and exit.
        if let Ok(stream) = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)) {
            drop(stream);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.connections));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("obs-live-conn".to_owned())
            .spawn(move || handle_connection(&conn_shared, stream));
        if let Ok(handle) = spawned {
            let mut conns = lock(connections);
            // Reap finished connections so the handle list stays bounded
            // over a long run instead of growing per request.
            let mut keep = Vec::with_capacity(conns.len() + 1);
            for old in conns.drain(..) {
                if old.is_finished() {
                    let _ = old.join();
                } else {
                    keep.push(old);
                }
            }
            keep.push(handle);
            *conns = keep;
        }
    }
}

/// Reads one request, routes it, and answers with `Connection: close`.
fn handle_connection(shared: &ServerShared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers so the client sees its request fully consumed.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header.trim().is_empty() => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        respond(
            stream,
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
        return;
    }
    match path {
        "/metrics" => {
            shared.metrics_requests.fetch_add(1, Ordering::Relaxed);
            let body = metrics_text(shared);
            respond(
                stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/healthz" => {
            shared.healthz_requests.fetch_add(1, Ordering::Relaxed);
            respond(stream, 200, "text/plain; charset=utf-8", "ok\n");
        }
        "/readyz" => {
            shared.readyz_requests.fetch_add(1, Ordering::Relaxed);
            if lock(&shared.state).ready {
                respond(stream, 200, "text/plain; charset=utf-8", "ready\n");
            } else {
                respond(stream, 503, "text/plain; charset=utf-8", "not ready\n");
            }
        }
        "/trace" => {
            shared.trace_requests.fetch_add(1, Ordering::Relaxed);
            let body = trace_json(shared);
            respond(stream, 200, "application/json", &body);
        }
        "/events" => {
            shared.events_requests.fetch_add(1, Ordering::Relaxed);
            stream_events(shared, stream);
        }
        _ => respond(stream, 404, "text/plain; charset=utf-8", "not found\n"),
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

fn respond(mut stream: TcpStream, status: u16, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(status),
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// The current snapshot document: same shape as `OBS_trace.json`.
fn snapshot_document(shared: &ServerShared) -> TraceDocument {
    let state = lock(&shared.state);
    let studies = state
        .studies
        .iter()
        .map(|(label, trace)| StudyTrace {
            label: label.clone(),
            trace: trace.clone(),
        })
        .collect();
    TraceDocument::new(state.workers, studies)
}

fn trace_json(shared: &ServerShared) -> String {
    serde_json::to_string(&snapshot_document(shared)).unwrap_or_else(|_| "{}".to_owned())
}

fn metrics_text(shared: &ServerShared) -> String {
    use std::fmt::Write as _;
    let document = snapshot_document(shared);
    let mut out = prom::to_prometheus(&document);
    // The per-study `hiermeans_process_peak_rss_kb` gauge only exists when
    // a snapshot carried a memory block; the live plane always exposes the
    // process-wide value so RSS is scrapeable regardless of study config.
    let study_rss = document.studies.iter().any(|s| s.trace.memory.is_some());
    if !study_rss {
        if let Some(kb) = memhook::peak_rss_kb() {
            let _ = writeln!(out, "# TYPE hiermeans_process_peak_rss_kb gauge");
            let _ = writeln!(
                out,
                "hiermeans_process_peak_rss_kb{{study=\"process\"}} {kb}"
            );
        }
    }
    out
}

/// Streams the event ring as SSE frames until shutdown or client close.
fn stream_events(shared: &ServerShared, mut stream: TcpStream) {
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    // Replay the retained backlog first, then follow the ring.
    let mut cursor = lock(&shared.state)
        .events
        .front()
        .map_or(0, |(seq, _)| *seq);
    let mut idle = Duration::ZERO;
    loop {
        let fresh: Vec<(u64, String)> = {
            let state = lock(&shared.state);
            state
                .events
                .iter()
                .filter(|(seq, _)| *seq >= cursor)
                .cloned()
                .collect()
        };
        if fresh.is_empty() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            idle += SSE_POLL;
            if idle >= SSE_KEEPALIVE {
                idle = Duration::ZERO;
                if stream.write_all(b": keepalive\n\n").is_err() || stream.flush().is_err() {
                    return;
                }
            }
            std::thread::sleep(SSE_POLL);
            continue;
        }
        idle = Duration::ZERO;
        for (seq, json) in &fresh {
            cursor = seq + 1;
            let frame = format!("id: {seq}\ndata: {json}\n\n");
            if stream.write_all(frame.as_bytes()).is_err() {
                return;
            }
        }
        if stream.flush().is_err() {
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// One-shot blocking `GET` against a live server; returns
/// `(status, body)`. Shared by `repro watch`, tests, and CI probes.
///
/// # Errors
///
/// Returns a message when the connection, write, or response parse fails.
pub fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("live: cannot connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("live: request write failed: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("live: response read failed: {e}"))?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("live: malformed response from {addr}{path}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// Blocking reader over a server's `GET /events` SSE stream. Used by
/// `repro watch` and the integration tests.
#[derive(Debug)]
pub struct SseClient {
    reader: BufReader<TcpStream>,
}

impl SseClient {
    /// Opens the `/events` stream and consumes the response headers.
    ///
    /// # Errors
    ///
    /// Returns a message when the connection or handshake fails.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let mut stream =
            TcpStream::connect(addr).map_err(|e| format!("live: cannot connect {addr}: {e}"))?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let request =
            format!("GET /events HTTP/1.1\r\nHost: {addr}\r\nAccept: text/event-stream\r\n\r\n");
        stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("live: request write failed: {e}"))?;
        let mut reader = BufReader::new(stream);
        loop {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("live: SSE handshake read failed: {e}"))?;
            if n == 0 {
                return Err("live: SSE stream closed during handshake".to_owned());
            }
            if line.trim().is_empty() {
                break;
            }
        }
        Ok(Self { reader })
    }

    /// The next `data:` payload, skipping keepalives and `id:` lines.
    /// `Ok(None)` when the stream ends (server shutdown) or goes silent
    /// past the read timeout.
    ///
    /// # Errors
    ///
    /// Returns a message on unexpected transport failures.
    pub fn next_event(&mut self) -> Result<Option<String>, String> {
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Ok(None),
                Ok(_) => {
                    if let Some(payload) = line.trim_end().strip_prefix("data: ") {
                        return Ok(Some(payload.to_owned()));
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(format!("live: SSE read failed: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ephemeral() -> LiveServer {
        LiveServer::bind("127.0.0.1:0", 3).expect("ephemeral bind")
    }

    #[test]
    fn healthz_answers_and_unknown_paths_404() {
        let server = ephemeral();
        let addr = server.addr().to_string();
        let (status, body) = http_get(&addr, "/healthz").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, _) = http_get(&addr, "/nope").unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn readyz_flips_on_first_publish() {
        let server = ephemeral();
        let addr = server.addr().to_string();
        assert_eq!(http_get(&addr, "/readyz").unwrap().0, 503);
        server.publisher("s").publish_epoch(0, 4, Some(1.0), 500);
        assert_eq!(http_get(&addr, "/readyz").unwrap().0, 200);
    }

    #[test]
    fn metrics_serves_snapshot_and_live_gauges() {
        let server = ephemeral();
        let addr = server.addr().to_string();
        let publisher = server.publisher("study\"a\nb\\c");
        let collector = crate::Collector::enabled();
        collector.add(crate::Counter::BmuSearches, 7);
        publisher.publish_snapshot(collector.report().unwrap());
        publisher.publish_epoch(0, 2, Some(0.5), 1_000);
        let (status, body) = http_get(&addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        // The snapshot's counters, label escaped.
        assert!(
            body.contains("hiermeans_bmu_searches{study=\"study\\\"a\\nb\\\\c\"} 7"),
            "{body}"
        );
        // No study memory block: the process-wide RSS gauge fills in.
        assert!(
            body.contains("hiermeans_process_peak_rss_kb{study=\"process\"}"),
            "{body}"
        );
    }

    #[test]
    fn trace_returns_current_document_json() {
        let server = ephemeral();
        let addr = server.addr().to_string();
        let publisher = server.publisher("partial");
        let collector = crate::Collector::enabled();
        {
            let _span = collector.span("demo.stage");
        }
        publisher.publish_snapshot(collector.report().unwrap());
        let (status, body) = http_get(&addr, "/trace").unwrap();
        assert_eq!(status, 200);
        let document: TraceDocument = serde_json::from_str(&body).unwrap();
        assert_eq!(document.workers, 3);
        assert_eq!(document.studies.len(), 1);
        assert_eq!(document.studies[0].label, "partial");
        assert_eq!(document.studies[0].trace.spans[0].name, "demo.stage");
    }

    #[test]
    fn sse_replays_backlog_and_follows_new_events() {
        let server = ephemeral();
        let addr = server.addr().to_string();
        let publisher = server.publisher("s");
        publisher.publish_strip(0, 0, 4);
        let mut client = SseClient::connect(&addr).unwrap();
        let first: ProgressEvent =
            serde_json::from_str(&client.next_event().unwrap().unwrap()).unwrap();
        assert_eq!(
            first,
            ProgressEvent::Strip {
                study: "s".into(),
                epoch: 0,
                strip: 0,
                total_strips: 4
            }
        );
        publisher.publish_ingest(2, 1);
        let second: ProgressEvent =
            serde_json::from_str(&client.next_event().unwrap().unwrap()).unwrap();
        assert_eq!(
            second,
            ProgressEvent::Ingest {
                store: "s".into(),
                accepted: 2,
                rejected: 1
            }
        );
    }

    #[test]
    fn epoch_eta_averages_the_trailing_window() {
        let server = ephemeral();
        let addr = server.addr().to_string();
        let publisher = server.publisher("s");
        publisher.publish_epoch(0, 3, None, 100);
        publisher.publish_epoch(1, 3, None, 300);
        let mut client = SseClient::connect(&addr).unwrap();
        let _first = client.next_event().unwrap().unwrap();
        let second: ProgressEvent =
            serde_json::from_str(&client.next_event().unwrap().unwrap()).unwrap();
        let ProgressEvent::Epoch { eta_us, .. } = second else {
            panic!("expected epoch event: {second:?}");
        };
        // Mean of (100, 300) = 200 us, one epoch remaining.
        assert_eq!(eta_us, Some(200));
    }

    #[test]
    fn shutdown_joins_threads_and_closes_streams() {
        let mut server = ephemeral();
        let addr = server.addr().to_string();
        let mut client = SseClient::connect(&addr).unwrap();
        server.shutdown();
        // Idempotent.
        server.shutdown();
        assert_eq!(client.next_event().unwrap(), None);
        assert!(http_get(&addr, "/healthz").is_err());
    }

    #[test]
    fn summary_counts_requests_and_events() {
        let server = ephemeral();
        let addr = server.addr().to_string();
        server.publisher("s").publish_strip(0, 0, 1);
        let _ = http_get(&addr, "/healthz").unwrap();
        let _ = http_get(&addr, "/metrics").unwrap();
        let _ = http_get(&addr, "/metrics").unwrap();
        let summary = server.summary();
        assert_eq!(summary.addr, addr);
        assert_eq!(summary.requests.healthz, 1);
        assert_eq!(summary.requests.metrics, 2);
        assert_eq!(summary.events_published, 1);
        let round: LiveSummary =
            serde_json::from_str(&serde_json::to_string(&summary).unwrap()).unwrap();
        assert_eq!(round, summary);
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
    fn event_ring_drops_oldest_past_capacity() {
        let server = ephemeral();
        let publisher = server.publisher("s");
        for i in 0..(EVENT_RING_CAP + 10) {
            publisher.publish_strip(0, i, EVENT_RING_CAP + 10);
        }
        let state = lock(&server.shared.state);
        assert_eq!(state.events.len(), EVENT_RING_CAP);
        assert_eq!(state.events.front().unwrap().0, 10);
        assert_eq!(state.next_seq, (EVENT_RING_CAP + 10) as u64);
    }
}
