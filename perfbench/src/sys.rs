//! Process observables read from `/proc` and the process CPU clock, plus
//! the order statistics every metric is reduced with.

use std::time::Duration;

/// `struct timespec` on the 64-bit Linux targets.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`.
const PROCESS_CPUTIME: i32 = 2;

/// On-CPU seconds of the whole process so far (user + system, every
/// thread, including threads that have already exited), at nanosecond
/// resolution.
pub fn cpu_seconds() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `timespec` for the call.
    if unsafe { clock_gettime(PROCESS_CPUTIME, &mut now) } != 0 {
        return f64::NAN;
    }
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time the main thread has spent runnable but waiting for a CPU (the
/// second field of `/proc/self/schedstat`).
pub fn run_queue_wait() -> Duration {
    let schedstat = std::fs::read_to_string("/proc/self/schedstat").unwrap_or_default();
    let ns = schedstat
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_nanos(ns)
}

/// The 1-, 5- and 15-minute load averages, as printed by the kernel.
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit when the benchmark runs inside a git work tree,
/// else `unknown` (the benchmark reads nothing outside its checkout).
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Median of the samples (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Slot by slot, the fastest of repeated series of timings: entry `i` is
/// the least `i`-th timing over the series that have one. Interference
/// from other tenants of the host only ever slows a timing down, and
/// repetitions taken seconds apart rarely all meet it.
pub fn fastest_per_slot(series: &[Vec<f64>]) -> Vec<f64> {
    let slots = series.iter().map(Vec::len).max().unwrap_or(0);
    (0..slots)
        .map(|i| {
            series
                .iter()
                .filter_map(|s| s.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The highest percentile with at least `beyond` samples above it:
/// `(percentile, value)`, or `None` with too few samples.
pub fn tail(samples: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= beyond {
        return None;
    }
    let rank = n - beyond - 1;
    Some((100.0 * (rank + 1) as f64 / n as f64, sorted[rank]))
}

/// Nanoseconds per dependent load of a pointer chase through a 4 MiB
/// table (median of three passes): a gauge of how much the host's other
/// tenants are contending for the caches and memory this process uses,
/// printed as a diagnostic so a slow run can be told from a slow program.
pub fn memory_gauge_ns() -> f64 {
    const SLOTS: usize = 1 << 19;
    const STEPS: usize = 1 << 20;
    // A single cycle through every slot, in a scrambled order.
    let mut next = vec![0u32; SLOTS];
    let stride = 0x0009_E377_u32;
    for i in 0..SLOTS as u32 {
        next[(i.wrapping_mul(stride) as usize) % SLOTS] =
            (i.wrapping_add(1).wrapping_mul(stride) as usize % SLOTS) as u32;
    }
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let started = std::time::Instant::now();
            let mut at = 0u32;
            for _ in 0..STEPS {
                at = next[at as usize];
            }
            std::hint::black_box(at);
            started.elapsed().as_secs_f64() * 1e9 / STEPS as f64
        })
        .collect();
    median(&samples)
}
