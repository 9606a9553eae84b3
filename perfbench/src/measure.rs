//! Timing, percentile and `/proc` helpers shared by every workload.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One completed op: its index in the op sequence, its class, its
/// issue-to-return latency and whether its output passed the check.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub index: u64,
    pub class: usize,
    pub latency_s: f64,
    pub ok: bool,
}

/// When a closed loop stops issuing ops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Issue until this much wall time has passed since the loop began.
    After(Duration),
    /// Issue exactly this many ops (op indices `0..n`).
    Count(u64),
}

/// Ops of one closed loop, in completion order per thread, plus its wall
/// time from the first issue to the last return.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub records: Vec<OpRecord>,
    pub wall_s: f64,
}

impl LoopResult {
    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).count() as u64
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.latency_s * 1e3).collect()
    }
}

/// Runs a closed loop on `threads` threads: each thread takes the next op
/// index from a shared counter, runs `op(thread, index)` and only then
/// takes another. Latency runs from issue to return of each op. `op`
/// returns the op's class and whether its output checked out.
pub fn closed_loop<F>(threads: usize, stop: Stop, op: F) -> LoopResult
where
    F: Fn(usize, u64) -> (usize, bool) + Sync,
{
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let per_thread: Vec<Vec<OpRecord>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (next, op) = (&next, &op);
                scope.spawn(move || {
                    let mut records = Vec::new();
                    loop {
                        if let Stop::After(d) = stop {
                            if start.elapsed() >= d {
                                break;
                            }
                        }
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if let Stop::Count(n) = stop {
                            if index >= n {
                                break;
                            }
                        }
                        let issued = Instant::now();
                        let (class, ok) = op(t, index);
                        records.push(OpRecord {
                            index,
                            class,
                            latency_s: issued.elapsed().as_secs_f64(),
                            ok,
                        });
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker thread panicked"))
            .collect()
    });
    LoopResult {
        records: per_thread.into_iter().flatten().collect(),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Ops per window of [`windowed_median`].
pub const P50_WINDOW_OPS: usize = 100;

/// The median of each run of `window` consecutive values, averaged over
/// the full windows; the plain median when there are fewer values than
/// one window. Over latencies in issue order, a host that alternates
/// between fast and slow phases moves this in proportion to the time it
/// spent in each, where the median of the whole run jumps from one
/// phase's latency to the other's as either comes to hold half the ops.
pub fn windowed_median(values: &[f64], window: usize) -> f64 {
    if values.len() < window.max(1) {
        return median(values);
    }
    let medians: Vec<f64> = values.chunks_exact(window).map(median).collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// Times `f` `reps` times and returns the median wall time in seconds
/// together with the last result. Each earlier result is dropped before
/// the next repetition starts its clock.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one repetition"))
}

/// User plus system CPU seconds of process `pid` (`"self"` for this one),
/// from `/proc/<pid>/stat`, which counts in USER_HZ = 100 ticks/s.
pub fn cpu_seconds(pid: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak resident set (`VmHWM`) of process `pid` to its current
/// resident set, so a later `peak_rss_mb` covers only what ran after.
/// Returns whether the kernel took the reset.
pub fn reset_peak_rss(pid: &str) -> bool {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5").is_ok()
}

/// The CPUs this process may run on, as `/proc/self/status` lists them.
pub fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_default()
}

/// The one-minute load average at this moment.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_median_follows_the_share_of_each_phase() {
        // 300 fast ops then 200 slow ones: the whole-run median is the
        // fast phase's, the windowed one weighs both phases by duration.
        let mut v = vec![8.0; 300];
        v.extend([11.0; 200]);
        assert_eq!(median(&v), 8.0);
        assert_eq!(windowed_median(&v, 100), (3.0 * 8.0 + 2.0 * 11.0) / 5.0);
        // A partial last window is left out; too few values for one
        // window give the plain median.
        v.push(50.0);
        assert_eq!(windowed_median(&v, 100), (3.0 * 8.0 + 2.0 * 11.0) / 5.0);
        assert_eq!(windowed_median(&[1.0, 9.0, 5.0], 100), 5.0);
    }

    #[test]
    fn closed_loop_counts_every_issued_op() {
        let r = closed_loop(2, Stop::Count(50), |_, i| ((i % 3) as usize, i != 7));
        assert_eq!(r.records.len(), 50);
        assert_eq!(r.failed(), 1);
    }

    #[test]
    fn peak_rss_resets_to_the_current_resident_set() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = peak_rss_mb("self");
        if reset_peak_rss("self") {
            assert!(peak_rss_mb("self") < before - 32.0);
        }
    }

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb("self") > 0.0);
        assert!(cpu_seconds("self") >= 0.0);
    }
}
