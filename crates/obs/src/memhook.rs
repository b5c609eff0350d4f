//! Memory telemetry: a tracking allocator hook, span-scoped attribution,
//! and process peak-RSS sampling.
//!
//! A `#[global_allocator]` can only be installed by the final binary (or
//! test binary), never by a library, so this module splits the telemetry in
//! two: [`TrackingAlloc`] is the allocator *wrapper* a binary opts into
//! (`repro` does, as do the allocation-proof test binaries), and everything
//! else is the bookkeeping the wrapper feeds. When no binary installed the
//! wrapper, every probe below reads zeros and the collector degrades to
//! RSS-only telemetry — enabling memory telemetry is never an error, it
//! just reports less.
//!
//! # Attribution model
//!
//! * **Thread scopes** ([`ThreadScope`], opened per span by the collector):
//!   allocation count, allocated bytes, and the live-byte high-water mark of
//!   the *coordinating* thread, nested like the spans themselves. Steady-
//!   state worker loops are allocation-free by construction (proven by the
//!   `zero_alloc` tests), so coordinator attribution captures the hot-path
//!   truth.
//! * **Worker tallies** (fed by `hiermeans_linalg::parallel` via
//!   [`worker_tally_begin`]/[`worker_tally_end`]): allocations made on
//!   scoped worker threads are folded into process-wide monotone counters,
//!   and a scope charges itself the delta observed while it was open. Peak
//!   bytes stay per-thread — a cross-thread high-water mark cannot be
//!   reconstructed from per-thread counters without a shared live counter
//!   on the hot path, which would put contention where PR 4 removed it.
//! * **Global windows** ([`global_window`]): process-wide live/peak
//!   accounting for allocation-ceiling tests (one window at a time; this is
//!   the API the former hand-rolled counting allocators consolidated onto).
//!
//! # Cost
//!
//! With the wrapper installed but no telemetry active, every allocation
//! pays one thread-local flag read and one relaxed atomic load. Without the
//! wrapper, cost is exactly zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// Number of live memory-enabled collectors; worker/TLS accounting is only
/// active while nonzero (or inside an explicit [`ThreadScope`]).
static TRACKING: AtomicUsize = AtomicUsize::new(0);

/// Whether a [`global_window`] is currently open.
static GLOBAL_WINDOW: AtomicBool = AtomicBool::new(false);
/// Live bytes observed inside the current global window (may go negative
/// when pre-window buffers are freed inside the window).
static GLOBAL_LIVE: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`GLOBAL_LIVE`] within the current window.
static GLOBAL_PEAK: AtomicI64 = AtomicI64::new(0);

/// Monotone process-wide tallies of allocations made on parallel worker
/// threads while tracking was active (see `hiermeans_linalg::parallel`).
static WORKER_ALLOCS: AtomicU64 = AtomicU64::new(0);
static WORKER_BYTES: AtomicU64 = AtomicU64::new(0);

/// Largest `VmRSS` the sampler thread has observed, in kB.
static SAMPLED_RSS_MAX_KB: AtomicU64 = AtomicU64::new(0);

struct ThreadCells {
    allocs: Cell<u64>,
    bytes: Cell<u64>,
    live: Cell<i64>,
    peak: Cell<i64>,
    scopes: Cell<u32>,
    exempt: Cell<bool>,
}

std::thread_local! {
    static STATS: ThreadCells = const {
        ThreadCells {
            allocs: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
            scopes: Cell::new(0),
            exempt: Cell::new(false),
        }
    };
}

/// Memory statistics attributed to one span (or one [`thread_probe`] /
/// [`ThreadScope`] window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Heap allocations charged to the scope: the coordinating thread's
    /// plus the worker-tally delta observed while the scope was open.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// High-water mark of the coordinating thread's live bytes over the
    /// scope, relative to the live bytes at scope open.
    pub peak_bytes: u64,
}

#[inline]
fn on_alloc(size: usize) {
    // try_with: thread-local storage may be unavailable during thread
    // teardown; those allocations belong to no scope anyway.
    let _ = STATS.try_with(|s| {
        if s.exempt.get() {
            return;
        }
        if s.scopes.get() > 0 || TRACKING.load(Ordering::Relaxed) > 0 {
            s.allocs.set(s.allocs.get() + 1);
            s.bytes.set(s.bytes.get() + size as u64);
            let live = s.live.get() + size as i64;
            s.live.set(live);
            if live > s.peak.get() {
                s.peak.set(live);
            }
        }
    });
    if GLOBAL_WINDOW.load(Ordering::Relaxed) {
        let live = GLOBAL_LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        GLOBAL_PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

#[inline]
fn on_dealloc(size: usize) {
    let _ = STATS.try_with(|s| {
        if s.exempt.get() {
            return;
        }
        if s.scopes.get() > 0 || TRACKING.load(Ordering::Relaxed) > 0 {
            s.live.set(s.live.get() - size as i64);
        }
    });
    if GLOBAL_WINDOW.load(Ordering::Relaxed) {
        GLOBAL_LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

/// The tracking allocator wrapper. Binaries opt into memory telemetry with
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: hiermeans_obs::memhook::TrackingAlloc =
///     hiermeans_obs::memhook::TrackingAlloc;
/// ```
///
/// It delegates every operation to [`System`] and only adds the counter
/// updates described at module level.
#[derive(Debug)]
pub struct TrackingAlloc;

// SAFETY: every operation delegates to `System`; the added bookkeeping
// performs no allocation (thread-local Cell and atomic updates only).
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            // One allocation event for the new block, with the old block
            // released — live moves by the delta, bytes by the new size.
            on_alloc(new_size);
            on_dealloc(layout.size());
        }
        new_ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Whether a [`TrackingAlloc`] is installed in this process, detected once
/// by probing a boxed allocation inside a thread scope.
#[must_use]
pub fn hook_installed() -> bool {
    static PROBE: OnceLock<bool> = OnceLock::new();
    *PROBE.get_or_init(|| {
        let scope = ThreadScope::open();
        drop(std::hint::black_box(Box::new(0xA5A5_5A5A_u64)));
        scope.close().allocs > 0
    })
}

/// Registers one memory-enabled collector: returns whether the allocator
/// hook is installed (span-level attribution available) and keeps worker
/// tallies active until the matching [`tracking_release`].
#[must_use]
pub fn tracking_activate() -> bool {
    TRACKING.fetch_add(1, Ordering::SeqCst);
    hook_installed()
}

/// Releases one [`tracking_activate`] registration.
pub fn tracking_release() {
    TRACKING.fetch_sub(1, Ordering::SeqCst);
}

/// One nested measurement window over the current thread's allocations (plus
/// the process-wide worker tallies). Opened by the collector per span; close
/// returns the attributed [`MemStats`].
#[derive(Debug)]
#[must_use = "an unclosed scope attributes nothing"]
pub struct ThreadScope {
    allocs0: u64,
    bytes0: u64,
    live0: i64,
    saved_peak: i64,
    worker_allocs0: u64,
    worker_bytes0: u64,
    closed: bool,
    /// Scopes save/restore *this thread's* peak bookkeeping; moving one to
    /// another thread would corrupt both threads' attribution.
    _not_send: PhantomData<*const ()>,
}

impl ThreadScope {
    /// Opens a scope: snapshots the thread's counters and resets the
    /// thread-peak baseline to the current live bytes.
    pub fn open() -> ThreadScope {
        STATS.with(|s| {
            s.scopes.set(s.scopes.get() + 1);
            let live0 = s.live.get();
            let saved_peak = s.peak.get();
            s.peak.set(live0);
            ThreadScope {
                allocs0: s.allocs.get(),
                bytes0: s.bytes.get(),
                live0,
                saved_peak,
                worker_allocs0: WORKER_ALLOCS.load(Ordering::Relaxed),
                worker_bytes0: WORKER_BYTES.load(Ordering::Relaxed),
                closed: false,
                _not_send: PhantomData,
            }
        })
    }

    /// Closes the scope and returns the stats attributed to it.
    pub fn close(mut self) -> MemStats {
        self.closed = true;
        STATS.with(|s| {
            let stats = MemStats {
                allocs: (s.allocs.get() - self.allocs0)
                    + (WORKER_ALLOCS.load(Ordering::Relaxed) - self.worker_allocs0),
                bytes: (s.bytes.get() - self.bytes0)
                    + (WORKER_BYTES.load(Ordering::Relaxed) - self.worker_bytes0),
                peak_bytes: u64::try_from(s.peak.get() - self.live0).unwrap_or(0),
            };
            self.restore(s);
            stats
        })
    }

    fn restore(&self, s: &ThreadCells) {
        // The enclosing scope's high-water mark is the max of what it had
        // seen before this scope reset the baseline and what this scope saw.
        if self.saved_peak > s.peak.get() {
            s.peak.set(self.saved_peak);
        }
        s.scopes.set(s.scopes.get().saturating_sub(1));
    }
}

impl Drop for ThreadScope {
    fn drop(&mut self) {
        if !self.closed {
            let _ = STATS.try_with(|s| self.restore(s));
        }
    }
}

/// Runs `f` inside a fresh [`ThreadScope`] and returns its result with the
/// attributed stats — the shared API of the allocation-proof tests.
pub fn thread_probe<T>(f: impl FnOnce() -> T) -> (T, MemStats) {
    let scope = ThreadScope::open();
    let out = f();
    (out, scope.close())
}

/// Runs `f` inside a process-wide live/peak measurement window and returns
/// its result with the peak of *new* bytes held at once, across all
/// threads. Frees of pre-window buffers can push the internal live count
/// negative; the peak of new memory is still an upper bound on what `f`
/// held at once. One window at a time per process — this is a test harness
/// API (allocation-ceiling proofs), not run-time telemetry.
pub fn global_window<T>(f: impl FnOnce() -> T) -> (T, i64) {
    GLOBAL_LIVE.store(0, Ordering::SeqCst);
    GLOBAL_PEAK.store(0, Ordering::SeqCst);
    GLOBAL_WINDOW.store(true, Ordering::SeqCst);
    let out = f();
    GLOBAL_WINDOW.store(false, Ordering::SeqCst);
    (out, GLOBAL_PEAK.load(Ordering::SeqCst))
}

/// Snapshot for one parallel worker's tally window, or `None` when no
/// memory-enabled collector is live (the common case: two relaxed loads).
#[must_use]
pub fn worker_tally_begin() -> Option<(u64, u64)> {
    if TRACKING.load(Ordering::Relaxed) == 0 {
        return None;
    }
    STATS.try_with(|s| (s.allocs.get(), s.bytes.get())).ok()
}

/// Folds the worker thread's allocations since `begin` into the process
/// tallies, where the coordinating thread's open scope picks them up.
pub fn worker_tally_end(begin: Option<(u64, u64)>) {
    if let Some((allocs0, bytes0)) = begin {
        let _ = STATS.try_with(|s| {
            WORKER_ALLOCS.fetch_add(s.allocs.get() - allocs0, Ordering::Relaxed);
            WORKER_BYTES.fetch_add(s.bytes.get() - bytes0, Ordering::Relaxed);
        });
    }
}

/// Parses one `kB` field of `/proc/self/status` (e.g. `VmRSS`, `VmHWM`).
/// `None` off Linux or when the field is absent.
///
/// The file is opened once and re-read from the start into a stack buffer
/// on every call: the kernel regenerates the text on each read, and
/// skipping the path lookup and the heap allocation makes a report's peak
/// RSS several times cheaper. One read returns the whole text (about
/// 1.5 KiB); the `Vm*` fields sit in its first half.
fn read_status_kb(field: &str) -> Option<u64> {
    use std::io::{Read, Seek, SeekFrom};
    static STATUS: OnceLock<Option<Mutex<std::fs::File>>> = OnceLock::new();
    let mut buf = [0u8; 4096];
    let len = {
        let mut file = STATUS
            .get_or_init(|| {
                std::fs::File::open("/proc/self/status")
                    .ok()
                    .map(Mutex::new)
            })
            .as_ref()?
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        file.seek(SeekFrom::Start(0)).ok()?;
        file.read(&mut buf).ok()?
    };
    for line in buf[..len].split(|&b| b == b'\n') {
        if let Some(rest) = line.strip_prefix(field.as_bytes()) {
            let rest = std::str::from_utf8(rest.strip_prefix(b":")?).ok()?;
            return rest.split_whitespace().next().and_then(|v| v.parse().ok());
        }
    }
    None
}

/// Refcounted handle to the background RSS sampler thread. The thread runs
/// only while at least one memory-enabled collector is alive; the last
/// release signals the condvar and *joins* the thread, so shutdown is
/// deterministic instead of racing process exit. A later acquire restarts
/// it — [`SAMPLED_RSS_MAX_KB`] is monotone across restarts, so the peak
/// gauge never regresses.
struct SamplerState {
    users: usize,
    handle: Option<SamplerHandle>,
}

struct SamplerHandle {
    stop: std::sync::Arc<(Mutex<bool>, Condvar)>,
    join: std::thread::JoinHandle<()>,
}

static SAMPLER: Mutex<SamplerState> = Mutex::new(SamplerState {
    users: 0,
    handle: None,
});

fn sampler_lock() -> std::sync::MutexGuard<'static, SamplerState> {
    SAMPLER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Registers one user of the background RSS sampler, starting the thread
/// on the 0→1 transition: it polls `VmRSS` every 50 ms and folds the
/// maximum into a process-wide gauge. Its own allocations are exempt from
/// every measurement window. Pair with [`rss_sampler_release`].
pub fn rss_sampler_acquire() {
    let mut sampler = sampler_lock();
    sampler.users += 1;
    if sampler.handle.is_some() {
        return;
    }
    let stop = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
    let thread_stop = std::sync::Arc::clone(&stop);
    // Spawn failure just means sampling is absent; VmHWM still covers
    // the process peak at report time.
    let spawned = std::thread::Builder::new()
        .name("obs-rss-sampler".to_owned())
        .spawn(move || {
            STATS.with(|s| s.exempt.set(true));
            let (stopped, signal) = &*thread_stop;
            let mut guard = stopped
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while !*guard {
                if let Some(kb) = read_status_kb("VmRSS") {
                    SAMPLED_RSS_MAX_KB.fetch_max(kb, Ordering::Relaxed);
                }
                guard = signal
                    .wait_timeout(guard, std::time::Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
        });
    if let Ok(join) = spawned {
        sampler.handle = Some(SamplerHandle { stop, join });
    }
}

/// Releases one sampler user; the 1→0 transition stops the thread and
/// joins it before returning.
pub fn rss_sampler_release() {
    let handle = {
        let mut sampler = sampler_lock();
        sampler.users = sampler.users.saturating_sub(1);
        if sampler.users == 0 {
            sampler.handle.take()
        } else {
            None
        }
    };
    if let Some(SamplerHandle { stop, join }) = handle {
        let (stopped, signal) = &*stop;
        *stopped
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        signal.notify_all();
        let _ = join.join();
    }
}

/// Whether the sampler thread is currently running (test hook).
#[must_use]
pub fn rss_sampler_running() -> bool {
    sampler_lock().handle.is_some()
}

/// The process's peak resident set size in kB: the kernel's `VmHWM`
/// high-water mark combined with the sampler's observed maximum. `None`
/// when neither source is available (non-Linux without a running sampler).
#[must_use]
pub fn peak_rss_kb() -> Option<u64> {
    let sampled = SAMPLED_RSS_MAX_KB.load(Ordering::Relaxed);
    match read_status_kb("VmHWM") {
        Some(hwm) => Some(hwm.max(sampled)),
        None if sampled > 0 => Some(sampled),
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The obs unit-test binary does NOT install the tracking allocator, so
    // these tests pin the degraded behavior; the hooked behavior lives in
    // `tests/memhook.rs`, which does install it.

    #[test]
    fn without_hook_scopes_report_zero() {
        let (value, stats) = thread_probe(|| {
            let v: Vec<u64> = (0..1024).collect();
            v.len()
        });
        assert_eq!(value, 1024);
        assert_eq!(stats, MemStats::default());
        assert!(!hook_installed());
    }

    #[test]
    fn scopes_nest_and_unwind() {
        let outer = ThreadScope::open();
        let inner = ThreadScope::open();
        let _ = inner.close();
        let dropped = ThreadScope::open();
        drop(dropped); // unclosed scope must unwind its bookkeeping
        let _ = outer.close();
        STATS.with(|s| assert_eq!(s.scopes.get(), 0));
    }

    #[test]
    fn worker_tally_inactive_without_collectors() {
        assert_eq!(worker_tally_begin(), None);
        worker_tally_end(None);
    }

    #[test]
    fn tracking_activation_round_trips() {
        let hooked = tracking_activate();
        assert!(!hooked, "unit-test binary has no tracking allocator");
        assert!(worker_tally_begin().is_some());
        tracking_release();
        assert_eq!(worker_tally_begin(), None);
    }

    #[test]
    fn global_window_runs_the_closure() {
        let (out, peak) = global_window(|| 7);
        assert_eq!(out, 7);
        assert_eq!(peak, 0, "no hook installed, nothing counted");
    }

    #[test]
    fn status_parsing_is_total() {
        // On Linux both fields exist; elsewhere the probe returns None.
        // Either way the call must not panic.
        let _ = read_status_kb("VmRSS");
        let _ = peak_rss_kb();
    }

    /// The status file stays open between calls, so each call must read
    /// the kernel's current text, not the one it saw first.
    #[cfg(target_os = "linux")]
    #[test]
    fn status_fields_are_read_afresh_on_every_call() {
        for _ in 0..3 {
            assert_eq!(read_status_kb("Tgid"), Some(u64::from(std::process::id())));
        }
        let before = read_status_kb("VmRSS").unwrap();
        let touched = std::hint::black_box(vec![1u8; 32 << 20]);
        let after = read_status_kb("VmRSS").unwrap();
        drop(touched);
        assert!(after >= before + (24 << 10), "VmRSS {before} -> {after} kB");
        assert_eq!(read_status_kb("NoSuchField"), None);
    }
}
