//! Deterministic chunked map-reduce over index ranges.
//!
//! Every parallel hot path in the workspace — pairwise distance matrices,
//! the SOM's best-matching-unit search and batch-epoch accumulation, and the
//! per-`k` dendrogram score sweep — routes through this module instead of
//! hand-rolling its own thread pool. The design enforces four invariants:
//!
//! 1. **Bit-for-bit determinism.** Chunk boundaries are a pure function of
//!    the input length and the caller's chunk size — never of the worker
//!    count — and per-chunk results are reduced in ascending chunk order.
//!    The same input therefore produces the same bits on a 1-core and a
//!    96-core machine, and the serial fallback executes the identical
//!    chunked computation.
//! 2. **Error propagation.** Workers return `Result`s; the first failure in
//!    *chunk order* (the same one serial execution would surface) is
//!    returned to the caller as [`ParallelError::Task`].
//! 3. **Panic isolation.** A panicking chunk does not abort the process or
//!    poison its siblings: the panic is caught per chunk and surfaces as
//!    [`ParallelError::WorkerPanic`] with the chunk index and the panic
//!    payload, ranked against task errors by the same chunk-order rule. The
//!    serial fallback catches panics identically, so behavior does not
//!    depend on whether the input crossed the parallelism threshold.
//! 4. **No oversubscription cliffs.** The worker count follows
//!    [`std::thread::available_parallelism`] with no hard cap, and inputs
//!    shorter than the caller's threshold skip thread spawning entirely.
//!
//! Results are gathered through a channel of `(chunk_index, result)` pairs
//! scattered into a pre-sized slot vector — no locks, and no reliance on
//! arrival order.
//!
//! [`try_fold_ordered`] is the exception for per-chunk results too large to
//! hold all at once (the batch SOM's accumulator partials): each worker
//! keeps one state and folds it into the caller's accumulator, one chunk
//! at a time in chunk order, under a lock.

use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, PoisonError};

pub use hiermeans_obs::{LaneBuf, LaneClock, LaneInterval};

/// Optional worker-lane recording for one parallel section: the collector's
/// clock plus the caller's pre-allocated interval buffer. `None` (the common
/// case, and always the case under a disabled collector) records nothing and
/// costs one branch per chunk.
pub type Lanes<'a> = Option<(LaneClock, &'a mut LaneBuf)>;

/// A failure from a chunked parallel computation: either a worker's typed
/// error or a worker panic that was caught and isolated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelError<E> {
    /// A worker closure returned `Err`.
    Task(E),
    /// A worker closure panicked; the panic was caught so the process (and
    /// the sibling chunks) survive, and the payload is preserved.
    WorkerPanic {
        /// Index of the chunk whose closure panicked.
        chunk: usize,
        /// The panic payload rendered as text (`String`/`&str` payloads are
        /// kept verbatim; anything else becomes a placeholder).
        payload: String,
    },
}

impl<E> ParallelError<E> {
    /// Maps the task-error type, leaving panics untouched.
    pub fn map_task<F, G: FnOnce(E) -> F>(self, f: G) -> ParallelError<F> {
        match self {
            ParallelError::Task(e) => ParallelError::Task(f(e)),
            ParallelError::WorkerPanic { chunk, payload } => {
                ParallelError::WorkerPanic { chunk, payload }
            }
        }
    }
}

impl<E: fmt::Display> fmt::Display for ParallelError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelError::Task(e) => e.fmt(f),
            ParallelError::WorkerPanic { chunk, payload } => {
                write!(f, "worker panicked in chunk {chunk}: {payload}")
            }
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for ParallelError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParallelError::Task(e) => Some(e),
            ParallelError::WorkerPanic { .. } => None,
        }
    }
}

/// Renders a caught panic payload: `&str` and `String` payloads verbatim,
/// anything else as a placeholder.
fn panic_payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// How to split an index range into chunks and when to go parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunking {
    /// Items per chunk. Fixed at the call site so chunk boundaries depend
    /// only on the input length, which is what makes results reproducible
    /// across machines with different core counts.
    pub chunk_size: usize,
    /// Inputs shorter than this run on the calling thread (same chunked
    /// math, no spawning). Tune to where threading overhead breaks even.
    pub min_parallel_len: usize,
}

impl Chunking {
    /// A chunking policy with the given chunk size and parallelism threshold.
    #[must_use]
    pub const fn new(chunk_size: usize, min_parallel_len: usize) -> Self {
        Chunking {
            chunk_size,
            min_parallel_len,
        }
    }
}

/// Process-wide worker-count override used by benchmarks to time the serial
/// path against the parallel one; `0` means "auto" (available parallelism).
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces every subsequent [`try_map_chunks`] call to use `n` workers
/// (`None` restores automatic detection). Intended for benchmarks; results
/// are identical either way by construction.
pub fn set_worker_override(n: Option<usize>) {
    WORKER_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count [`try_map_chunks`] will use: the override if set,
/// otherwise [`std::thread::available_parallelism`], detected once and
/// cached — the detection reads cgroup state on Linux and costs tens of
/// microseconds, which would dominate small serial-path calls if paid on
/// every invocation.
pub fn worker_count() -> usize {
    static DETECTED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => *DETECTED.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from)),
        n => n,
    }
}

fn chunk_ranges(len: usize, chunk_size: usize) -> Vec<Range<usize>> {
    let chunk_size = chunk_size.max(1);
    (0..len.div_ceil(chunk_size))
        .map(|c| c * chunk_size..((c + 1) * chunk_size).min(len))
        .collect()
}

/// Runs one chunk's closure with panic isolation. `AssertUnwindSafe` is
/// sound here: on any failure (error or panic) every per-chunk result is
/// discarded and only the typed failure escapes, so no partially-mutated
/// state is ever observed by the caller.
fn run_chunk<T, E, F>(chunk: usize, range: Range<usize>, map: &F) -> Result<T, ParallelError<E>>
where
    F: Fn(Range<usize>) -> Result<T, E> + Sync,
{
    match catch_unwind(AssertUnwindSafe(|| map(range))) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(ParallelError::Task(e)),
        Err(payload) => Err(ParallelError::WorkerPanic {
            chunk,
            payload: panic_payload_text(payload.as_ref()),
        }),
    }
}

/// Applies `map` to each chunk of `0..len` and returns the per-chunk results
/// in ascending chunk order.
///
/// Runs serially (on the calling thread, over the same chunks in the same
/// order) when `len < chunking.min_parallel_len`, when there is at most one
/// chunk, or when only one worker is available.
///
/// # Errors
///
/// Returns the first failure in chunk order — the same one serial execution
/// would surface. A worker that returns `Err` yields
/// [`ParallelError::Task`]; a worker that panics yields
/// [`ParallelError::WorkerPanic`] instead of aborting the process. All
/// claimed chunks run to completion first, so a failure in one chunk never
/// leaves another chunk half-observed.
pub fn try_map_chunks<T, E, F>(
    len: usize,
    chunking: Chunking,
    map: F,
) -> Result<Vec<T>, ParallelError<E>>
where
    T: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<T, E> + Sync,
{
    try_map_chunks_with_workers(len, chunking, worker_count(), map)
}

/// [`try_map_chunks`] with worker-lane recording: each chunk's execution is
/// stamped `(chunk, worker, begin_us, end_us)` into `lanes` (serial chunks
/// record as worker 0), the coordinator merges parallel workers' intervals
/// in chunk order, and one run is closed per call. Chunk boundaries — and
/// therefore the recorded lane *structure* — are identical for every worker
/// count.
///
/// # Errors
///
/// Identical to [`try_map_chunks`].
pub fn try_map_chunks_lanes<T, E, F>(
    len: usize,
    chunking: Chunking,
    lanes: Lanes<'_>,
    map: F,
) -> Result<Vec<T>, ParallelError<E>>
where
    T: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<T, E> + Sync,
{
    try_map_chunks_with_workers_lanes(len, chunking, worker_count(), lanes, map)
}

/// [`try_map_chunks`] with an explicit worker count, bypassing detection and
/// the global override. `workers <= 1` is the serial path; tests use this to
/// compare serial and parallel results without touching process state.
///
/// # Errors
///
/// Identical to [`try_map_chunks`].
pub fn try_map_chunks_with_workers<T, E, F>(
    len: usize,
    chunking: Chunking,
    workers: usize,
    map: F,
) -> Result<Vec<T>, ParallelError<E>>
where
    T: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<T, E> + Sync,
{
    try_map_chunks_with_workers_lanes(len, chunking, workers, None, map)
}

/// [`try_map_chunks_lanes`] with an explicit worker count — the full
/// implementation every other chunk-mapping entry point delegates to.
///
/// # Errors
///
/// Identical to [`try_map_chunks`].
pub fn try_map_chunks_with_workers_lanes<T, E, F>(
    len: usize,
    chunking: Chunking,
    workers: usize,
    mut lanes: Lanes<'_>,
    map: F,
) -> Result<Vec<T>, ParallelError<E>>
where
    T: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<T, E> + Sync,
{
    let ranges = chunk_ranges(len, chunking.chunk_size);
    let workers = workers.min(ranges.len());
    if len < chunking.min_parallel_len || workers <= 1 {
        // The serial path records the identical chunk structure on lane 0,
        // directly into the caller's buffer — no merging, no allocation
        // beyond the buffer's pre-reserved capacity.
        let out = ranges
            .into_iter()
            .enumerate()
            .map(|(chunk, range)| match lanes.as_mut() {
                Some((clock, buf)) => {
                    let begin_us = clock.now_us();
                    let result = run_chunk(chunk, range, &map);
                    buf.record(chunk, 0, begin_us, clock.now_us());
                    result
                }
                None => run_chunk(chunk, range, &map),
            })
            .collect();
        if let Some((_, buf)) = lanes.as_mut() {
            buf.end_run();
        }
        return out;
    }

    let n_chunks = ranges.len();
    let clock = lanes.as_ref().map(|(clock, _)| *clock);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<T, ParallelError<E>>)>();
    let mut slots: Vec<Option<Result<T, ParallelError<E>>>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);
    let mut recorded: Vec<LaneInterval> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let ranges = &ranges;
            let map = &map;
            // Workers stamp intervals into a thread-local vector — no
            // locks, no channel traffic per interval — returned through
            // the scoped join handle when the worker retires.
            handles.push(scope.spawn(move || {
                // Memory telemetry: when a memory-enabled collector is
                // live, this worker's allocations fold into the process
                // tallies that the coordinator's open span picks up. When
                // none is, `worker_tally_begin` is one relaxed load.
                let tally = hiermeans_obs::memhook::worker_tally_begin();
                let mut local: Vec<LaneInterval> = match clock {
                    Some(_) => Vec::with_capacity(n_chunks),
                    None => Vec::new(),
                };
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(range) = ranges.get(idx) else { break };
                    let begin_us = clock.as_ref().map(LaneClock::now_us);
                    let result = run_chunk(idx, range.clone(), map);
                    if let (Some(clock), Some(begin_us)) = (clock.as_ref(), begin_us) {
                        local.push(LaneInterval {
                            chunk: u32::try_from(idx).unwrap_or(u32::MAX),
                            worker: u32::try_from(worker).unwrap_or(u32::MAX),
                            run: 0,
                            begin_us,
                            end_us: clock.now_us(),
                        });
                    }
                    if tx.send((idx, result)).is_err() {
                        break;
                    }
                }
                hiermeans_obs::memhook::worker_tally_end(tally);
                local
            }));
        }
        drop(tx);
        for (idx, result) in rx {
            slots[idx] = Some(result);
        }
        for handle in handles {
            if let Ok(local) = handle.join() {
                recorded.extend(local);
            }
        }
    });

    if let Some((_, buf)) = lanes.as_mut() {
        buf.absorb_run(recorded);
    }

    let mut out = Vec::with_capacity(n_chunks);
    for slot in slots {
        match slot {
            Some(result) => out.push(result?),
            // Unreachable by construction (every chunk index is claimed
            // exactly once), but a typed failure beats a panic in the
            // crate whose job is panic isolation.
            None => {
                return Err(ParallelError::WorkerPanic {
                    chunk: out.len(),
                    payload: "chunk result missing from gather".to_owned(),
                })
            }
        }
    }
    Ok(out)
}

/// Applies `map` to every index in `0..len` and returns the results in index
/// order, parallelizing over chunks. Convenience wrapper for per-item work
/// (e.g. one dendrogram cut per candidate `k`).
///
/// # Errors
///
/// Returns the first failure in index order, as serial execution would; a
/// panicking worker surfaces as [`ParallelError::WorkerPanic`].
pub fn try_map_items<T, E, F>(
    len: usize,
    chunking: Chunking,
    map: F,
) -> Result<Vec<T>, ParallelError<E>>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    try_map_items_lanes(len, chunking, None, map)
}

/// [`try_map_items`] with worker-lane recording (see
/// [`try_map_chunks_lanes`]).
///
/// # Errors
///
/// Identical to [`try_map_items`].
pub fn try_map_items_lanes<T, E, F>(
    len: usize,
    chunking: Chunking,
    lanes: Lanes<'_>,
    map: F,
) -> Result<Vec<T>, ParallelError<E>>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let chunks = try_map_chunks_lanes(len, chunking, lanes, |range| {
        range.map(&map).collect::<Result<Vec<T>, E>>()
    })?;
    Ok(chunks.into_iter().flatten().collect())
}

/// Runs `compute` over a sequence of chunk work items on `workers.len()`
/// workers and hands every finished chunk to `fold` **in ascending chunk
/// order** — for per-chunk results too large for [`try_map_chunks`], which
/// holds one result per chunk until all are done.
///
/// Each worker owns one state from `workers` for the whole call (the first
/// on the calling thread, the rest on scoped threads): `compute` fills the
/// state from one chunk, then the worker waits its turn and `fold` drains
/// the state into the caller's accumulator. Memory therefore scales with
/// the worker count, not the chunk count. Chunks are claimed from `parts`
/// in order, so chunk `i` is the `i`-th item; a work item may carry
/// disjoint `&mut` slots for its chunk's rows. Folds run one at a time, in
/// chunk order, whatever the worker count — so a fold that adds
/// floating-point partials yields the same bits as a serial walk. One
/// worker runs the identical loop on the calling thread, without spawning
/// or allocating.
///
/// # Errors
///
/// Returns the first failure in chunk order, as serial execution would:
/// a chunk whose `compute` returns `Err` yields [`ParallelError::Task`],
/// and a panic in `compute` or `fold` yields
/// [`ParallelError::WorkerPanic`]. Once a chunk fails, no later chunk is
/// folded and unclaimed items are never computed.
///
/// # Panics
///
/// Panics if `workers` is empty.
pub fn try_fold_ordered<S, P, E, I, F, R>(
    workers: &mut [S],
    parts: I,
    compute: F,
    fold: R,
) -> Result<(), ParallelError<E>>
where
    S: Send,
    E: Send,
    I: Iterator<Item = P> + Send,
    F: Fn(&mut S, usize, P) -> Result<(), E> + Sync,
    R: FnMut(&mut S, usize) + Send,
{
    let (first, rest) = workers.split_at_mut(1);
    let first = &mut first[0];
    let ticket = Mutex::new(Ticket {
        parts: parts.enumerate(),
        folded: 0,
        fold,
        failure: None,
    });
    let turn = Condvar::new();
    if rest.is_empty() {
        fold_ordered_worker(first, &ticket, &turn, &compute);
    } else {
        std::thread::scope(|scope| {
            for state in rest {
                let (ticket, turn, compute) = (&ticket, &turn, &compute);
                scope.spawn(move || {
                    // Same memory-telemetry fold-in as the chunk mappers.
                    let tally = hiermeans_obs::memhook::worker_tally_begin();
                    fold_ordered_worker(state, ticket, turn, compute);
                    hiermeans_obs::memhook::worker_tally_end(tally);
                });
            }
            fold_ordered_worker(first, &ticket, &turn, &compute);
        });
    }
    let ticket = ticket.into_inner().unwrap_or_else(PoisonError::into_inner);
    ticket.failure.map_or(Ok(()), Err)
}

/// The shared state of one [`try_fold_ordered`] call: the unclaimed work
/// items with their chunk indices, how many chunks were folded, the
/// caller's fold, and the first failure.
struct Ticket<I, R, E> {
    parts: std::iter::Enumerate<I>,
    folded: usize,
    fold: R,
    failure: Option<ParallelError<E>>,
}

/// Locks the ticket, recovering it from poisoning. Recovery is sound:
/// `compute` and `fold` run under `catch_unwind`, so only the caller's
/// `parts` iterator can panic while the lock is held, and the ticket's
/// counters change only after it returns — a poisoned ticket is still
/// consistent, and that panic reaches the caller when the scope joins.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker's loop: claim the next chunk, compute it into `state`, wait
/// until every earlier chunk is folded, fold. Failures are recorded only
/// at the failing chunk's turn, so the recorded one is the first in chunk
/// order, and every waiter wakes and stops once one is.
fn fold_ordered_worker<S, P, E, I, F, R>(
    state: &mut S,
    ticket: &Mutex<Ticket<I, R, E>>,
    turn: &Condvar,
    compute: &F,
) where
    I: Iterator<Item = P>,
    F: Fn(&mut S, usize, P) -> Result<(), E>,
    R: FnMut(&mut S, usize),
{
    loop {
        let (chunk, part) = {
            let mut t = lock(ticket);
            if t.failure.is_some() {
                return;
            }
            let Some(claimed) = t.parts.next() else {
                return;
            };
            claimed
        };
        let computed = catch_unwind(AssertUnwindSafe(|| compute(&mut *state, chunk, part)));
        let mut t = lock(ticket);
        while t.folded != chunk && t.failure.is_none() {
            t = turn.wait(t).unwrap_or_else(PoisonError::into_inner);
        }
        if t.failure.is_some() {
            return;
        }
        let panicked = |payload: Box<dyn std::any::Any + Send>| ParallelError::WorkerPanic {
            chunk,
            payload: panic_payload_text(payload.as_ref()),
        };
        let outcome = match computed {
            Ok(Ok(())) => {
                let fold = &mut t.fold;
                catch_unwind(AssertUnwindSafe(|| fold(&mut *state, chunk))).map_err(panicked)
            }
            Ok(Err(e)) => Err(ParallelError::Task(e)),
            Err(payload) => Err(panicked(payload)),
        };
        let failed = outcome.is_err();
        match outcome {
            Ok(()) => t.folded += 1,
            Err(e) => t.failure = Some(e),
        }
        drop(t);
        turn.notify_all();
        if failed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Chunking = Chunking::new(4, 0);

    #[test]
    fn chunk_boundaries_depend_only_on_len() {
        assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(3, 4), vec![0..3]);
        assert_eq!(chunk_ranges(0, 4), Vec::<Range<usize>>::new());
    }

    #[test]
    fn results_arrive_in_chunk_order() {
        let chunks: Vec<Vec<usize>> =
            try_map_chunks(103, SMALL, |r| Ok::<_, ()>(r.collect())).unwrap();
        let flat: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree_for_all_worker_counts() {
        let expected: Vec<usize> = (0..257).map(|i| i * i).collect();
        for workers in [1, 2, 3, 7, 64] {
            let chunks = try_map_chunks_with_workers(257, Chunking::new(16, 0), workers, |r| {
                Ok::<_, ()>(r.map(|i| i * i).collect::<Vec<_>>())
            })
            .unwrap();
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, expected, "workers = {workers}");
        }
    }

    #[test]
    fn first_error_in_chunk_order_wins() {
        // Chunks 2 and 5 fail; chunk order says the caller sees chunk 2's.
        for workers in [1, 4] {
            let err = try_map_chunks_with_workers(32, SMALL, workers, |r| {
                let chunk = r.start / 4;
                if chunk == 2 || chunk == 5 {
                    Err(format!("chunk {chunk} failed"))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert_eq!(
                err,
                ParallelError::Task("chunk 2 failed".to_owned()),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn worker_panic_is_isolated_and_typed() {
        // A panicking chunk must not abort the process; it surfaces as a
        // typed WorkerPanic carrying the chunk index and payload, on both
        // the serial and the parallel path.
        for workers in [1, 4] {
            let err = try_map_chunks_with_workers(32, SMALL, workers, |r| {
                if r.start / 4 == 3 {
                    panic!("injected fault in chunk 3");
                }
                Ok::<_, ()>(())
            })
            .unwrap_err();
            assert_eq!(
                err,
                ParallelError::WorkerPanic {
                    chunk: 3,
                    payload: "injected fault in chunk 3".to_owned()
                },
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn panic_vs_error_ranked_by_chunk_order() {
        // A panic in chunk 1 outranks an error in chunk 4 — failures are
        // ordered uniformly by chunk index, whatever their kind.
        for workers in [1, 4] {
            let err = try_map_chunks_with_workers(32, SMALL, workers, |r| {
                let chunk = r.start / 4;
                if chunk == 1 {
                    panic!("panic in chunk 1");
                }
                if chunk == 4 {
                    return Err("error in chunk 4".to_owned());
                }
                Ok(())
            })
            .unwrap_err();
            assert!(
                matches!(err, ParallelError::WorkerPanic { chunk: 1, .. }),
                "workers = {workers}: {err:?}"
            );
        }
        // And the mirror image: an error in chunk 0 outranks a later panic.
        let err = try_map_chunks_with_workers(32, SMALL, 4, |r| {
            let chunk = r.start / 4;
            if chunk == 0 {
                return Err("error in chunk 0".to_owned());
            }
            if chunk == 5 {
                panic!("panic in chunk 5");
            }
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err, ParallelError::Task("error in chunk 0".to_owned()));
    }

    #[test]
    fn non_string_panic_payload_is_placeholder() {
        let err = try_map_chunks_with_workers(8, SMALL, 1, |r| {
            if r.start == 0 {
                std::panic::panic_any(42_i32);
            }
            Ok::<_, ()>(())
        })
        .unwrap_err();
        assert_eq!(
            err,
            ParallelError::WorkerPanic {
                chunk: 0,
                payload: "<non-string panic payload>".to_owned()
            }
        );
    }

    #[test]
    fn below_threshold_runs_serially_with_identical_results() {
        let threshold = Chunking::new(4, 1_000_000);
        let serial: Vec<usize> = try_map_items(100, threshold, |i| Ok::<_, ()>(i + 1)).unwrap();
        let parallel: Vec<usize> =
            try_map_items(100, Chunking::new(4, 0), |i| Ok::<_, ()>(i + 1)).unwrap();
        assert_eq!(serial, parallel);
    }

    /// Folds 40 chunks of `len` floats into one running sum per slot; each
    /// worker also bumps the chunk's `&mut` tag slot. Returns the sums' bits
    /// and the tags.
    fn ordered_sums(workers: usize) -> (Vec<u64>, Vec<usize>) {
        let len = 5;
        let mut states: Vec<Vec<f64>> = vec![vec![0.0; len]; workers];
        let mut tags = vec![0usize; 40];
        let mut sums = vec![0.0f64; len];
        try_fold_ordered(
            &mut states,
            tags.iter_mut().enumerate(),
            |partial: &mut Vec<f64>, chunk, (i, tag): (usize, &mut usize)| {
                assert_eq!(chunk, i, "items arrive in chunk order");
                *tag += chunk + 1;
                for (k, p) in partial.iter_mut().enumerate() {
                    // Magnitudes spanning many binades make the sum order
                    // visible in the bits.
                    *p = (1.0 + chunk as f64).powi(7) / (k + 3) as f64 * 1e-3;
                }
                Ok::<_, ()>(())
            },
            |partial, _| {
                for (acc, p) in sums.iter_mut().zip(partial.iter()) {
                    *acc += p;
                }
            },
        )
        .unwrap();
        (sums.iter().map(|s| s.to_bits()).collect(), tags)
    }

    #[test]
    fn ordered_fold_is_bitwise_identical_for_all_worker_counts() {
        let serial = ordered_sums(1);
        assert_eq!(serial.1, (1..=40).collect::<Vec<_>>());
        for workers in [2, 3, 7, 64] {
            assert_eq!(ordered_sums(workers), serial, "workers = {workers}");
        }
    }

    #[test]
    fn ordered_fold_stops_at_the_first_failure_in_chunk_order() {
        for workers in [1, 2, 4] {
            let mut states = vec![(); workers];
            let mut folded = Vec::new();
            let err = try_fold_ordered(
                &mut states,
                0..32usize,
                |(), chunk, _| match chunk {
                    3 => panic!("injected fault in chunk 3"),
                    9 => Err("chunk 9 failed".to_owned()),
                    _ => Ok(()),
                },
                |(), chunk| folded.push(chunk),
            )
            .unwrap_err();
            assert_eq!(
                err,
                ParallelError::WorkerPanic {
                    chunk: 3,
                    payload: "injected fault in chunk 3".to_owned()
                },
                "workers = {workers}"
            );
            assert_eq!(folded, vec![0, 1, 2], "workers = {workers}");
        }
        let err = try_fold_ordered(
            &mut [(), ()],
            0..8usize,
            |(), chunk, _| if chunk == 2 { Err(chunk) } else { Ok(()) },
            |(), _| {},
        )
        .unwrap_err();
        assert_eq!(err, ParallelError::Task(2));
    }

    #[test]
    fn worker_override_round_trips() {
        set_worker_override(Some(3));
        assert_eq!(worker_count(), 3);
        set_worker_override(None);
        assert!(worker_count() >= 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<()> = try_map_chunks(0, SMALL, |_| Ok::<_, ()>(())).unwrap();
        assert!(out.is_empty());
    }

    fn lane_clock() -> LaneClock {
        hiermeans_obs::Collector::enabled()
            .lane_clock()
            .expect("enabled collector has a lane clock")
    }

    #[test]
    fn lanes_record_every_chunk_exactly_once_for_any_worker_count() {
        let clock = lane_clock();
        for workers in [1, 2, 3, 8] {
            let mut buf = LaneBuf::with_capacity(26);
            let out = try_map_chunks_with_workers_lanes(
                103,
                SMALL,
                workers,
                Some((clock, &mut buf)),
                |r| Ok::<_, ()>(r.len()),
            )
            .unwrap();
            assert_eq!(out.len(), 26);
            assert_eq!(buf.runs(), 1, "workers = {workers}");
            let chunks: Vec<u32> = buf.intervals().iter().map(|iv| iv.chunk).collect();
            assert_eq!(
                chunks,
                (0..26).collect::<Vec<u32>>(),
                "workers = {workers}: chunk indices must partition 0..n_chunks in order"
            );
            for iv in buf.intervals() {
                assert!(iv.end_us >= iv.begin_us);
                if workers == 1 {
                    assert_eq!(iv.worker, 0, "serial path records on lane 0");
                } else {
                    assert!((iv.worker as usize) < workers);
                }
            }
        }
    }

    #[test]
    fn lanes_accumulate_runs_across_calls() {
        let clock = lane_clock();
        let mut buf = LaneBuf::with_capacity(6);
        for _ in 0..3 {
            try_map_items_lanes(8, SMALL, Some((clock, &mut buf)), Ok::<_, ()>).unwrap();
        }
        assert_eq!(buf.runs(), 3);
        assert_eq!(buf.intervals().len(), 6);
        assert_eq!(buf.intervals()[2].run, 1);
        assert_eq!(buf.intervals()[5].run, 2);
    }

    #[test]
    fn parallel_error_display_and_map_task() {
        let p: ParallelError<String> = ParallelError::WorkerPanic {
            chunk: 2,
            payload: "boom".into(),
        };
        assert_eq!(p.to_string(), "worker panicked in chunk 2: boom");
        let t: ParallelError<String> = ParallelError::Task("bad".into());
        assert_eq!(t.to_string(), "bad");
        let mapped = t.map_task(|s| format!("wrapped: {s}"));
        assert_eq!(mapped, ParallelError::Task("wrapped: bad".to_owned()));
        let mapped_panic = p.map_task(|s| s);
        assert!(matches!(
            mapped_panic,
            ParallelError::WorkerPanic { chunk: 2, .. }
        ));
    }
}
