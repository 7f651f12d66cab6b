//! Host-speed correction.
//!
//! On a shared host the same binary runs up to twice as fast in one minute
//! as in the next, because other tenants contend for the cores and
//! caches. The benchmark therefore times a fixed reference kernel next to
//! every timed call and rescales the call's host seconds to what they
//! would have been at the kernel's reference speed. The kernel shares no
//! code with the simulator, so a change to the simulator moves the
//! corrected figures exactly as it moves the raw ones; only the host's
//! drift cancels. Raw seconds are reported beside the corrected ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Duration of one kernel pass at reference speed: its median on the
/// 2-vCPU Xeon guest the benchmark was written on. Only a scale: corrected
/// seconds equal raw seconds when the host runs at this speed.
pub const REFERENCE_S: f64 = 0.015;

/// Table the kernel scatters into: 256 KiB, the scale of the simulator's
/// hot state. (A 4 MiB table made the kernel track memory latency rather
/// than the simulator's speed and corrected worse.)
const TABLE_WORDS: usize = 1 << 15;
/// Steps per pass.
const STEPS: u32 = 240_000;

/// Probes host speed with the reference kernel, on as many threads as
/// the workload runs.
pub struct HostSpeed {
    /// One scatter table per thread.
    tables: Vec<Vec<u64>>,
    last: f64,
    /// Every probe's duration, seconds, in order.
    pub probes: Vec<f64>,
}

impl HostSpeed {
    /// Set up one kernel table per thread and take the first probe.
    pub fn new(threads: usize) -> HostSpeed {
        let mut h = HostSpeed {
            tables: vec![(0..TABLE_WORDS as u64).collect(); threads.max(1)],
            last: 0.0,
            probes: Vec::new(),
        };
        h.last = h.probe();
        h
    }

    /// Run the kernel on every table at once, one thread each, and return
    /// the mean of the threads' durations: a workload that runs on two
    /// cores slows when either core is contended.
    fn probe(&mut self) -> f64 {
        let secs = match self.tables.as_mut_slice() {
            [one] => kernel(one),
            tables => std::thread::scope(|scope| {
                let n = tables.len() as f64;
                let handles: Vec<_> = tables
                    .iter_mut()
                    .map(|t| scope.spawn(move || kernel(t)))
                    .collect();
                let total: f64 = handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .sum();
                total / n
            }),
        };
        self.probes.push(secs);
        secs
    }

    /// Probe again and return the factor that turns host seconds spent
    /// since the previous probe into reference seconds: the reference
    /// duration over the mean of the two probes around that time.
    pub fn factor(&mut self) -> f64 {
        let now = self.probe();
        let f = 2.0 * REFERENCE_S / (self.last + now);
        self.last = now;
        f
    }
}

/// One pass of the kernel: an event-list loop (binary heap of 64 timers,
/// xorshift draws, a logarithm) that also updates a random word of
/// `table` per step. Returns its duration in seconds.
fn kernel(table: &mut [u64]) -> f64 {
    let t0 = Instant::now();
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..64).map(|i| Reverse((i, i))).collect();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for _ in 0..STEPS {
        let Some(Reverse((now, id))) = heap.pop() else {
            break;
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (TABLE_WORDS - 1);
        table[slot] = table[slot].wrapping_add(id);
        let gap = ((x >> 40) as f64).ln_1p();
        acc += gap;
        heap.push(Reverse((now + gap as u64 + 1, id ^ (x & 7))));
    }
    black_box((acc, &table));
    t0.elapsed().as_secs_f64()
}

/// Peak resident set of this process so far, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_reference_over_probe_mean() {
        let mut h = HostSpeed::new(1);
        let f = h.factor();
        assert_eq!(h.probes.len(), 2);
        let mean = (h.probes[0] + h.probes[1]) / 2.0;
        assert!((f - REFERENCE_S / mean).abs() < 1e-12);
        assert!(f > 0.0 && f.is_finite());

        let mut two = HostSpeed::new(2);
        assert!(two.factor() > 0.0);
        assert_eq!(two.probes.len(), 2);
    }

    #[test]
    fn peak_rss_is_read() {
        let mb = peak_rss_mb().unwrap();
        assert!(mb > 0.0 && mb.is_finite());
    }
}
