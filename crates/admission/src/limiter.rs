//! Concurrency limiting: one fixed window of in-flight calls with
//! per-class headroom.
//!
//! The limiter is the overload-*protection* half of admission (quota
//! buckets are the *fairness* half): past the window an attempt is shed
//! with a backoff hint instead of queueing behind work the system cannot
//! finish. Priority classes get shrinking shares of the window
//! (headroom), so background work hits the wall first and interactive
//! traffic keeps flowing.

use vortex_common::rpc::WorkClass;

/// Static limiter tuning.
#[derive(Debug, Clone)]
pub struct AimdConfig {
    /// The concurrency window.
    pub initial_limit: u64,
    /// Backoff hint handed to shed callers, virtual µs (> 0).
    pub shed_retry_us: u64,
    /// Per-class share of the window, permille, indexed by
    /// [`WorkClass::index`]. Lower-priority classes get less headroom so
    /// they shed first.
    pub class_headroom_permille: [u64; 3],
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            initial_limit: 256,
            shed_retry_us: 5_000,
            class_headroom_permille: [1_000, 850, 600],
        }
    }
}

/// The concurrency limiter. Callers hold the controller's lock, so the
/// limiter itself is plain mutable state.
#[derive(Debug)]
pub struct AimdLimiter {
    cfg: AimdConfig,
    in_flight: u64,
}

impl AimdLimiter {
    /// A limiter with nothing in flight.
    pub fn new(cfg: AimdConfig) -> Self {
        AimdLimiter { cfg, in_flight: 0 }
    }

    /// Slots the given class may occupy under the window.
    fn allowed(&self, class: WorkClass) -> u64 {
        let share =
            self.cfg.initial_limit * self.cfg.class_headroom_permille[class.index()] / 1_000;
        // Interactive always gets at least one slot: the limiter degrades
        // service, it never halts it.
        match class {
            WorkClass::Interactive => share.max(1),
            _ => share,
        }
    }

    /// Tries to occupy a slot; `Err(retry_after_us)` = shed.
    pub fn try_acquire(&mut self, class: WorkClass) -> Result<(), u64> {
        if self.in_flight >= self.allowed(class) {
            return Err(self.cfg.shed_retry_us.max(1));
        }
        self.in_flight += 1;
        Ok(())
    }

    /// Occupies a slot unconditionally (admission-exempt methods — they
    /// still pair with [`AimdLimiter::release`]).
    pub fn acquire_exempt(&mut self) {
        self.in_flight += 1;
    }

    /// Releases one slot.
    pub fn release(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Slots currently occupied.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn background_sheds_before_interactive() {
        let cfg = AimdConfig {
            initial_limit: 10,
            ..AimdConfig::default()
        };
        let mut l = AimdLimiter::new(cfg);
        // Fill to the background share (60% of 10 = 6 slots).
        for _ in 0..6 {
            l.try_acquire(WorkClass::Background).unwrap();
        }
        assert!(l.try_acquire(WorkClass::Background).is_err());
        // Batch (85%) and interactive (100%) still have headroom.
        l.try_acquire(WorkClass::Batch).unwrap();
        l.try_acquire(WorkClass::Batch).unwrap();
        assert!(l.try_acquire(WorkClass::Batch).is_err());
        l.try_acquire(WorkClass::Interactive).unwrap();
        l.try_acquire(WorkClass::Interactive).unwrap();
        assert!(l.try_acquire(WorkClass::Interactive).is_err());
        // Releases reopen the window.
        for _ in 0..10 {
            l.release();
        }
        assert_eq!(l.in_flight(), 0);
        l.try_acquire(WorkClass::Background).unwrap();
    }

    #[test]
    fn interactive_always_keeps_one_slot() {
        let cfg = AimdConfig {
            initial_limit: 0, // pathological window
            ..AimdConfig::default()
        };
        let mut l = AimdLimiter::new(cfg);
        assert!(l.try_acquire(WorkClass::Background).is_err());
        assert!(l.try_acquire(WorkClass::Batch).is_err());
        l.try_acquire(WorkClass::Interactive).unwrap();
    }
}
