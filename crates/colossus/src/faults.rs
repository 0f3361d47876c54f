//! Fault injection for a simulated Colossus cluster.
//!
//! The paper's resilience machinery — local retries to a new Fragment,
//! Streamlet failover, cross-cluster reconciliation (§5.3, §5.6) — only
//! runs when storage misbehaves. [`FaultPlan`] lets tests and benchmarks
//! schedule exactly the misbehaviour they need:
//!
//! - **unavailability**: every operation fails until cleared (a cluster
//!   outage, the trigger for table failover to the secondary cluster);
//! - **append/read failure tokens**: the next N operations fail with an
//!   I/O error (transient write errors, the trigger for fragment
//!   rotation);
//! - **torn-append tokens**: the next N appends fail *after* durably
//!   persisting a seeded arbitrary prefix of the bytes — the write is no
//!   longer atomic, exercising WAL torn-tail recovery, File-Map
//!   recovery, and replica reconciliation (§5.6, §7.1);
//! - **slow factor**: latency multiplier (the trigger for flow control).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use vortex_common::rng::{self, take_token};

/// Shared, thread-safe fault state for one cluster.
#[derive(Debug, Default)]
pub struct FaultPlan {
    unavailable: AtomicBool,
    fail_appends: AtomicU32,
    fail_reads: AtomicU32,
    torn_appends: AtomicU32,
    /// xorshift* state driving torn-prefix lengths (seeded, deterministic).
    torn_rng: AtomicU64,
    /// Slow factor ×1000 (atomic fixed-point); 1000 = normal speed.
    slow_millis: AtomicU64,
}

impl FaultPlan {
    /// Marks the cluster unavailable (or restores it).
    pub fn set_unavailable(&self, v: bool) {
        self.unavailable.store(v, Ordering::SeqCst);
    }

    /// Whether the cluster is currently unavailable.
    pub fn is_unavailable(&self) -> bool {
        self.unavailable.load(Ordering::SeqCst)
    }

    /// Schedules the next `n` appends to fail with an I/O error.
    pub fn fail_next_appends(&self, n: u32) {
        self.fail_appends.store(n, Ordering::SeqCst);
    }

    /// Schedules the next `n` reads to fail with an I/O error.
    pub fn fail_next_reads(&self, n: u32) {
        self.fail_reads.store(n, Ordering::SeqCst);
    }

    /// Consumes one append-failure token if any remain.
    pub fn take_append_failure(&self) -> bool {
        take_token(&self.fail_appends)
    }

    /// Schedules the next `n` appends to fail *torn*: a seeded arbitrary
    /// prefix of the bytes lands durably before the error surfaces.
    /// Unlike [`fail_next_appends`](Self::fail_next_appends), the failed
    /// write is not atomic — this is the knob that makes torn-tail
    /// recovery paths actually run.
    pub fn torn_next_appends(&self, n: u32) {
        self.torn_appends.store(n, Ordering::SeqCst);
    }

    /// Seeds the generator that picks torn-prefix lengths, so a chaos
    /// run's tear pattern is reproducible from its seed.
    pub fn set_torn_seed(&self, seed: u64) {
        // Scramble so adjacent seeds give unrelated tear patterns.
        self.torn_rng.store(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            Ordering::SeqCst,
        );
    }

    /// Consumes one torn-append token if any remain, returning the
    /// deterministic roll the cluster uses to pick how many bytes to
    /// persist before failing.
    pub fn take_torn_append(&self) -> Option<u64> {
        if take_token(&self.torn_appends) {
            Some(next_roll(&self.torn_rng))
        } else {
            None
        }
    }

    /// Consumes one read-failure token if any remain.
    pub fn take_read_failure(&self) -> bool {
        take_token(&self.fail_reads)
    }

    /// Sets the latency multiplier (1.0 = normal; clamped to ≥ 0.001).
    pub fn set_slow_factor(&self, f: f64) {
        let fixed = (f.max(0.001) * 1000.0) as u64;
        self.slow_millis.store(fixed, Ordering::SeqCst);
    }

    /// The current latency multiplier.
    pub fn slow_factor(&self) -> f64 {
        let v = self.slow_millis.load(Ordering::SeqCst);
        if v == 0 {
            1.0
        } else {
            v as f64 / 1000.0
        }
    }
}

/// One draw from the torn-prefix generator. The state is forced odd
/// before each step — what the pinned per-seed sequences were recorded
/// with, and what lets an unseeded (all-zero) plan draw at all.
fn next_roll(state: &AtomicU64) -> u64 {
    state.fetch_or(1, Ordering::Relaxed);
    rng::draw(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_consumed_exactly_n_times() {
        let f = FaultPlan::default();
        f.fail_next_appends(3);
        let taken = (0..10).filter(|_| f.take_append_failure()).count();
        assert_eq!(taken, 3);
        assert!(!f.take_append_failure());
    }

    #[test]
    fn read_and_append_tokens_are_independent() {
        let f = FaultPlan::default();
        f.fail_next_reads(1);
        assert!(!f.take_append_failure());
        assert!(f.take_read_failure());
        assert!(!f.take_read_failure());
    }

    #[test]
    fn torn_tokens_are_independent_and_seeded() {
        let f = FaultPlan::default();
        assert!(f.take_torn_append().is_none());
        f.set_torn_seed(99);
        f.torn_next_appends(2);
        assert!(!f.take_append_failure(), "torn tokens are a separate axis");
        let a = f.take_torn_append().unwrap();
        let b = f.take_torn_append().unwrap();
        assert!(f.take_torn_append().is_none());
        // Same seed ⇒ same roll sequence.
        let g = FaultPlan::default();
        g.set_torn_seed(99);
        g.torn_next_appends(2);
        assert_eq!(g.take_torn_append().unwrap(), a);
        assert_eq!(g.take_torn_append().unwrap(), b);
    }

    #[test]
    fn seeded_rolls_are_pinned() {
        // The low four digits of the first eight rolls, unseeded and seeded.
        for (seed, want) in [
            (None, [5165, 1517, 103, 2413, 4928, 556, 1169, 8343]),
            (Some(1u64), [2410, 9322, 9336, 5590, 6511, 2625, 8598, 2288]),
            (Some(7), [1703, 7604, 3501, 2462, 9062, 717, 5734, 7721]),
            (
                Some(3_366_259_850),
                [5789, 5184, 9391, 6778, 2299, 5144, 546, 7907],
            ),
        ] {
            let f = FaultPlan::default();
            if let Some(s) = seed {
                f.set_torn_seed(s);
            }
            f.torn_next_appends(8);
            let rolls: Vec<u64> = (0..8)
                .map(|_| f.take_torn_append().unwrap() % 10_000)
                .collect();
            assert_eq!(rolls, want, "seed {seed:?}");
        }
    }

    #[test]
    fn slow_factor_defaults_to_one() {
        let f = FaultPlan::default();
        assert_eq!(f.slow_factor(), 1.0);
        f.set_slow_factor(2.5);
        assert!((f.slow_factor() - 2.5).abs() < 1e-9);
        f.set_slow_factor(0.0); // clamped, never zero
        assert!(f.slow_factor() > 0.0);
    }

    #[test]
    fn unavailability_toggles() {
        let f = FaultPlan::default();
        assert!(!f.is_unavailable());
        f.set_unavailable(true);
        assert!(f.is_unavailable());
        f.set_unavailable(false);
        assert!(!f.is_unavailable());
    }

    #[test]
    fn concurrent_token_consumption_is_exact() {
        use std::sync::Arc;
        let f = Arc::new(FaultPlan::default());
        f.fail_next_appends(1000);
        let mut handles = vec![];
        let total = Arc::new(AtomicU32::new(0));
        for _ in 0..8 {
            let f = Arc::clone(&f);
            let total = Arc::clone(&total);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    if f.take_append_failure() {
                        total.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::SeqCst), 1000);
    }
}
