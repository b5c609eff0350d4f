//! Host description and in-process speed probes.
//!
//! Nothing here downloads or shells out: the ceilings are tight loops timed
//! in this process, and the metadata comes from the standard library,
//! `/proc` and files inside the working directory.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Worker threads the library will use (`available_parallelism`).
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `os-arch/Ncpu`, the host class a result belongs to.
pub fn host_string() -> String {
    format!(
        "{}-{}/{}cpu",
        std::env::consts::OS,
        std::env::consts::ARCH,
        cpus()
    )
}

/// The commit being measured, read from `.git` under `root` without
/// running git; `unknown` when the tree is not a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Wall time of a fixed single-threaded loop of small heap allocations and
/// fills, in ms. Timed before every iteration, it shows which host speed
/// phase an iteration ran in without touching the program under test: on
/// the 2-vCPU KVM hosts this benchmark was sized on, allocation-heavy code
/// runs up to 1.5× faster for seconds at a time while arithmetic-only
/// loops keep their speed, so the probe allocates. The fastest of three
/// passes is kept, dropping passes an interrupt landed in.
pub fn probe_ms() -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut held: Vec<Vec<u8>> = Vec::with_capacity(128);
            for i in 0..20_000usize {
                held.push(vec![i as u8; 64 + i % 200]);
                if held.len() == 128 {
                    held.clear();
                }
            }
            black_box(held);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// What the host looked like at one instant: the allocation probe's time
/// and the CPU time counters of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// [`probe_ms`], timed at this instant.
    pub probe_ms: f64,
    /// Ticks the hypervisor ran something else while a vCPU had work.
    steal: u64,
    /// Ticks the vCPUs ran work (user, nice, system, irq, softirq).
    busy: u64,
}

impl Sample {
    /// Reads the counters and times the probe.
    pub fn take() -> Sample {
        let (steal, busy) = cpu_ticks();
        Sample {
            probe_ms: probe_ms(),
            steal,
            busy,
        }
    }

    /// Share of the CPU time wanted between `self` and `later` that the
    /// hypervisor gave to other guests: a share `s` stretches the wall time
    /// of work that was ready to run by `1 / (1 − s)`. 0 where the
    /// counters are missing or did not move.
    pub fn steal_share(&self, later: &Sample) -> f64 {
        let steal = later.steal.saturating_sub(self.steal) as f64;
        let busy = later.busy.saturating_sub(self.busy) as f64;
        if steal + busy > 0.0 {
            steal / (steal + busy)
        } else {
            0.0
        }
    }
}

/// `(steal, busy)` ticks summed over all CPUs, from the first line of
/// `/proc/stat`; zeros where unavailable.
fn cpu_ticks() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    // cpu user nice system idle iowait irq softirq steal ...
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| fields.get(i).copied().unwrap_or(0);
    (at(7), at(0) + at(1) + at(2) + at(5) + at(6))
}

/// Euclidean distance evaluations per second between `dim`-dimensional
/// points held in L1, on `threads` threads — the compute ceiling a
/// distance kernel of that width can reach on this host.
pub fn dist_evals_per_s(dim: usize, threads: usize) -> f64 {
    const POINTS: usize = 64;
    const SWEEPS: usize = 150;
    let points: Vec<f64> = (0..POINTS * dim).map(|i| (i % 97) as f64 * 0.37).collect();
    let sweep = |points: &[f64]| {
        let mut acc = 0.0f64;
        for _ in 0..SWEEPS {
            for a in points.chunks_exact(dim) {
                for b in points.chunks_exact(dim) {
                    let d: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                    acc += d.sqrt();
                }
            }
        }
        acc
    };
    let threads = threads.max(1);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| black_box(sweep(black_box(&points)))))
            .collect();
        for h in handles {
            h.join().expect("ceiling probe thread panicked");
        }
    });
    let evals = (threads * SWEEPS * POINTS * POINTS) as f64;
    evals / start.elapsed().as_secs_f64()
}

/// Bytes this process has read and written through syscalls
/// (`rchar`, `wchar` of `/proc/self/io`); zeros where unavailable.
pub fn io_bytes() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/self/io") else {
        return (0, 0);
    };
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("rchar:"), field("wchar:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_positive_rates() {
        assert!(probe_ms() > 0.0);
        let (a, b) = (Sample::take(), Sample::take());
        assert!((0.0..=1.0).contains(&a.steal_share(&b)));
        assert!(dist_evals_per_s(2, 1) > 0.0);
        assert!(cpus() >= 1);
        assert!(host_string().ends_with("cpu"));
    }

    #[test]
    fn git_rev_falls_back_outside_a_checkout() {
        let dir = std::env::temp_dir().join(format!("hm_bench_git_{}", std::process::id()));
        std::fs::create_dir_all(dir.join(".git/refs/heads")).unwrap();
        assert_eq!(git_rev(&dir.join("missing")), "unknown");
        std::fs::write(dir.join(".git/HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join(".git/refs/heads/main"), "abc123\n").unwrap();
        assert_eq!(git_rev(&dir), "abc123");
        std::fs::remove_file(dir.join(".git/refs/heads/main")).unwrap();
        std::fs::write(
            dir.join(".git/packed-refs"),
            "# pack\ndef456 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_rev(&dir), "def456");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
