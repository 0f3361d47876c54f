//! What the benchmark does about the machine it runs on, so that two runs
//! of the same code agree.
//!
//! On a small shared VM two things move wall-clock numbers far more than
//! any code change. (1) Thread placement: `StreamWriter::append` hops to a
//! shard thread and back; with the two threads on one vCPU that is a
//! context switch, on two vCPUs it is two idle-CPU wake-ups, and append
//! p50 was 31 µs or 117 µs for the whole of a run depending on where the
//! scheduler first put them. (2) Host speed: a fixed single-threaded loop
//! took between 0.8 ms and 1.9 ms per pass within one minute, in plateaus
//! of seconds (neighbours on the host). So the benchmark pins itself to
//! one CPU ([`pin_to_one_cpu`]) and keeps measuring the machine's speed
//! with a fixed kernel while it runs ([`SpeedSampler`]); every duration
//! it reports is wall time scaled to the reference speed ([`SpeedLog`]).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::trace::wall_now;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread it spawns from now on,
/// which is every thread of the regions — to the lowest CPU it is allowed
/// on. Returns that CPU, or `None` where the platform has no such call or
/// refuses it (the run then proceeds unpinned, with wider spread).
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        const WORDS: usize = 16; // 1024 CPUs, the kernel's default set size
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread; the call writes
        // at most that many bytes and keeps no pointer.
        let got = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
        if got != 0 {
            return None;
        }
        let cpu = mask
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of exactly the byte length
        // passed; the call only reads it.
        let set = unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) };
        (set == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where the
/// platform does not expose it. A high-water mark of the process: with
/// `--repeat` and `--selfcheck` later runs inherit earlier runs' peak.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall time of one pass of [`kernel`] at reference speed. On the 2-vCPU
/// sandbox the plans were sized on, a pass takes ~56 µs in the host's
/// fastest plateau and ~108 µs in its usual one. Only ratios of scaled
/// times mean anything across machines; the constant fixes the scale.
const KERNEL_REF_NS: f64 = 100_000.0;
/// The sampler sleeps this long between speed samples.
const SAMPLE_EVERY: Duration = Duration::from_millis(8);
/// Kernel passes per speed sample. The fastest is kept: being preempted
/// mid-pass can only lengthen a pass.
const PASSES: usize = 3;

/// The fixed work whose wall time tracks the machine's speed: small
/// allocations and formatting, a sort, a byte loop — the instruction mix
/// of a row store moving `Value`s around. Deterministic, no input.
fn kernel(scratch: &mut Vec<String>) -> u64 {
    scratch.clear();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..560 {
        x = (x ^ (x >> 30))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(1);
        scratch.push(format!("cust-{:05}-{:08x}", x % 20_000, x >> 32));
    }
    scratch.sort_unstable();
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for s in scratch.iter() {
        for b in s.bytes() {
            acc = (acc ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    acc
}

/// Wall nanoseconds of single kernel passes over `seconds` of sampling,
/// ascending (`--host-speed`: how this machine compares to the reference).
pub fn kernel_passes_ns(seconds: f64) -> Vec<u64> {
    let (start, mut scratch, mut out) = (wall_now(), Vec::new(), Vec::new());
    while start.elapsed().as_secs_f64() < seconds {
        let t = wall_now();
        black_box(kernel(black_box(&mut scratch)));
        out.push(t.elapsed().as_nanos() as u64);
    }
    out.sort_unstable();
    out
}

/// One speed sample: the interval the kernel occupied and the speed it
/// saw (1.0 = reference, 0.5 = the machine is running at half speed).
#[derive(Debug, Clone, Copy, PartialEq)]
struct SpeedSample {
    start_ns: u64,
    end_ns: u64,
    speed: f64,
}

/// Samples the machine's speed on a thread of its own for as long as it
/// lives. The thread inherits the pin, so it shares the one CPU with the
/// work being measured: waking from its sleep it preempts that work for
/// the ~0.3 ms a sample takes, which is how an operation that runs for
/// half a second still gets its speed measured while it runs.
#[derive(Debug)]
pub struct SpeedSampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Vec<SpeedSample>>>,
}

impl SpeedSampler {
    /// Starts sampling; sample times count from `origin`.
    pub fn start(origin: Instant) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let (mut samples, mut scratch) = (Vec::new(), Vec::new());
            // Relaxed: the flag publishes nothing; the samples travel
            // through `join`.
            while !flag.load(Ordering::Relaxed) {
                let start_ns = origin.elapsed().as_nanos() as u64;
                let fastest = (0..PASSES)
                    .map(|_| {
                        let t = wall_now();
                        black_box(kernel(black_box(&mut scratch)));
                        t.elapsed().as_nanos() as u64
                    })
                    .min()
                    .expect("PASSES > 0");
                samples.push(SpeedSample {
                    start_ns,
                    end_ns: origin.elapsed().as_nanos() as u64,
                    speed: KERNEL_REF_NS / fastest as f64,
                });
                std::thread::sleep(SAMPLE_EVERY);
            }
            samples
        });
        SpeedSampler {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the thread and returns what it saw.
    pub fn finish(mut self) -> SpeedLog {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self
            .thread
            .take()
            .expect("finish runs once")
            .join()
            .expect("the sampler thread does not panic");
        SpeedLog { samples }
    }
}

impl Drop for SpeedSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The machine's speed over a run, and the scaling of wall intervals to
/// reference speed.
#[derive(Debug, Default)]
pub struct SpeedLog {
    samples: Vec<SpeedSample>,
}

impl SpeedLog {
    /// Median speed over the run (1.0 = reference).
    pub fn median_speed(&self) -> f64 {
        let v: Vec<f64> = self.samples.iter().map(|s| s.speed).collect();
        crate::trace::p50(&v).unwrap_or(1.0)
    }

    /// The wall interval `[a_ns, b_ns]` scaled to reference speed: the
    /// integral of the speed over it, speed interpolated linearly between
    /// samples (held flat before the first and after the last), the
    /// samples' own intervals left out. With no samples, wall time.
    pub fn scaled_ns(&self, a_ns: u64, b_ns: u64) -> f64 {
        let n = self.samples.len();
        if n == 0 || b_ns <= a_ns {
            return b_ns.saturating_sub(a_ns) as f64;
        }
        // Gap k lies between sample k-1 and sample k (gap 0 before the
        // first sample, gap n after the last).
        let mut total = 0.0;
        let first_gap = self.samples.partition_point(|s| s.end_ns <= a_ns);
        for k in first_gap..=n {
            let (lo, s_lo) = match k {
                0 => (0, self.samples[0].speed),
                _ => (self.samples[k - 1].end_ns, self.samples[k - 1].speed),
            };
            let (hi, s_hi) = match k {
                _ if k == n => (u64::MAX, s_lo),
                _ => (self.samples[k].start_ns, self.samples[k].speed),
            };
            let (x0, x1) = (a_ns.max(lo), b_ns.min(hi));
            if x1 > x0 {
                let at = |x: u64| {
                    if k == 0 || k == n || hi == lo {
                        s_lo
                    } else {
                        s_lo + (s_hi - s_lo) * ((x - lo) as f64 / (hi - lo) as f64)
                    }
                };
                total += (x1 - x0) as f64 * (at(x0) + at(x1)) / 2.0;
            }
            if hi >= b_ns {
                break;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(samples: &[(u64, u64, f64)]) -> SpeedLog {
        SpeedLog {
            samples: samples
                .iter()
                .map(|&(start_ns, end_ns, speed)| SpeedSample {
                    start_ns,
                    end_ns,
                    speed,
                })
                .collect(),
        }
    }

    #[test]
    fn scaled_time_integrates_speed_and_skips_the_samples() {
        assert_eq!(SpeedLog::default().scaled_ns(10, 110), 100.0);
        // Half speed at t=100..110, full speed at t=200..210.
        let l = log(&[(100, 110, 0.5), (200, 210, 1.0)]);
        assert_eq!(l.scaled_ns(0, 100), 50.0, "flat before the first sample");
        assert_eq!(l.scaled_ns(210, 310), 100.0, "flat after the last");
        // 110..200 ramps 0.5 → 1.0: mean 0.75 over 90 ns.
        assert!((l.scaled_ns(110, 200) - 67.5).abs() < 1e-9);
        // The samples' own 10 ns intervals carry no weight.
        assert!((l.scaled_ns(0, 310) - (50.0 + 67.5 + 100.0)).abs() < 1e-9);
        // First half of the ramp: 0.5 → 0.75 over 45 ns.
        assert!((l.scaled_ns(110, 155) - 45.0 * 0.625).abs() < 1e-9);
        assert_eq!(l.median_speed(), 0.75);
    }

    #[test]
    fn kernel_is_deterministic_and_the_sampler_samples() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert_eq!(kernel(&mut a), kernel(&mut b));
        assert_eq!(a.len(), 560);
        let sampler = SpeedSampler::start(wall_now());
        std::thread::sleep(Duration::from_millis(30));
        let log = sampler.finish();
        assert!(log.samples.len() >= 2, "{} samples", log.samples.len());
        assert!(log
            .samples
            .windows(2)
            .all(|w| w[0].end_ns <= w[1].start_ns && w[0].speed > 0.0));
    }
}
