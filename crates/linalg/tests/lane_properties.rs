//! Property tests for worker-lane recording in the chunked map-reduce
//! helpers:
//!
//! * every run's intervals partition `0..n_chunks` exactly once, for any
//!   worker count and chunk size;
//! * intervals on one worker within one run never overlap in time (a
//!   worker executes its claimed chunks sequentially);
//! * the recorded *structure* (runs + chunk multiset) is identical for the
//!   serial fallback and any threaded execution — only worker ids and
//!   timestamps may differ;
//! * lane recording never changes the computed results.

use hiermeans_linalg::parallel::{self, Chunking, LaneBuf, LaneClock};
use hiermeans_obs::Collector;
use proptest::prelude::*;

fn lane_clock() -> LaneClock {
    Collector::enabled()
        .lane_clock()
        .expect("enabled collector has a lane clock")
}

/// The worker-count-free projection of a lane buffer: run count plus the
/// sorted chunk indices per run.
fn structure(buf: &LaneBuf) -> (u32, Vec<Vec<u32>>) {
    let runs = buf.runs();
    let mut per_run: Vec<Vec<u32>> = vec![Vec::new(); runs as usize];
    for iv in buf.intervals() {
        per_run[iv.run as usize].push(iv.chunk);
    }
    for chunks in &mut per_run {
        chunks.sort_unstable();
    }
    (runs, per_run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_run_partitions_the_chunks_exactly_once(
        len in 1usize..400,
        chunk_size in 1usize..32,
        workers in 1usize..8,
        runs in 1usize..4,
    ) {
        let chunking = Chunking::new(chunk_size, 0);
        let clock = lane_clock();
        parallel::set_worker_override(Some(workers));
        let mut buf = LaneBuf::new();
        for _ in 0..runs {
            parallel::try_map_chunks(len, chunking, Some((clock, &mut buf)), |r| {
                Ok::<_, ()>(r.sum::<usize>())
            })
            .unwrap();
        }
        parallel::set_worker_override(None);
        let n_chunks = len.div_ceil(chunk_size);
        let (recorded_runs, per_run) = structure(&buf);
        prop_assert_eq!(recorded_runs as usize, runs);
        for chunks in &per_run {
            prop_assert_eq!(chunks.clone(), (0..n_chunks as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn intervals_on_one_worker_never_overlap(
        len in 1usize..400,
        chunk_size in 1usize..32,
        workers in 1usize..8,
    ) {
        let chunking = Chunking::new(chunk_size, 0);
        let clock = lane_clock();
        parallel::set_worker_override(Some(workers));
        let mut buf = LaneBuf::new();
        parallel::try_map_chunks(len, chunking, Some((clock, &mut buf)), |r| {
            Ok::<_, ()>(r.count())
        })
        .unwrap();
        parallel::set_worker_override(None);
        for iv in buf.intervals() {
            prop_assert!(iv.begin_us <= iv.end_us);
        }
        let workers_seen: std::collections::BTreeSet<u32> =
            buf.intervals().iter().map(|iv| iv.worker).collect();
        for w in workers_seen {
            let mut mine: Vec<(f64, f64)> = buf
                .intervals()
                .iter()
                .filter(|iv| iv.worker == w)
                .map(|iv| (iv.begin_us, iv.end_us))
                .collect();
            mine.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite stamps"));
            for pair in mine.windows(2) {
                prop_assert!(
                    pair[0].1 <= pair[1].0,
                    "worker {w}: interval {:?} overlaps {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn structure_and_results_are_worker_count_invariant(
        len in 1usize..300,
        chunk_size in 1usize..16,
    ) {
        let chunking = Chunking::new(chunk_size, 0);
        let clock = lane_clock();
        let run = |workers: usize| {
            parallel::set_worker_override(Some(workers));
            let mut buf = LaneBuf::new();
            let items =
                parallel::try_map_items(len, chunking, Some((clock, &mut buf)), |i| {
                    Ok::<_, ()>(3 * i + 1)
                })
                .unwrap();
            parallel::set_worker_override(None);
            (structure(&buf), items)
        };
        let (serial_structure, serial_items) = run(1);
        prop_assert_eq!(&serial_items, &(0..len).map(|i| 3 * i + 1).collect::<Vec<_>>());
        for workers in [2, 3, 8] {
            let (threaded_structure, threaded_items) = run(workers);
            prop_assert_eq!(&serial_structure, &threaded_structure);
            prop_assert_eq!(&serial_items, &threaded_items);
        }
    }
}
