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

/// The concurrency window: calls in flight across every channel of a
/// region (the one value any caller has used since the window was added).
pub const WINDOW: u64 = 256;
/// Backoff hint handed to a shed caller, virtual µs (> 0, lint L009).
pub const SHED_RETRY_US: u64 = 5_000;
/// Per-class share of the window, permille, indexed by
/// [`WorkClass::index`]: Batch and Background get less headroom so they
/// shed first, and Interactive holds the whole window — the limiter
/// degrades service, it never halts it.
pub const CLASS_HEADROOM_PERMILLE: [u64; 3] = [1_000, 850, 600];

/// The concurrency limiter. Callers hold the controller's lock, so the
/// limiter itself is plain mutable state.
#[derive(Debug, Default)]
pub struct AimdLimiter {
    in_flight: u64,
}

impl AimdLimiter {
    /// A limiter with nothing in flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tries to occupy a slot; `Err(retry_after_us)` = shed.
    pub fn try_acquire(&mut self, class: WorkClass) -> Result<(), u64> {
        if self.in_flight >= WINDOW * CLASS_HEADROOM_PERMILLE[class.index()] / 1_000 {
            return Err(SHED_RETRY_US);
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

    /// Acquires until `class` is shed; returns the slots it took.
    fn fill(l: &mut AimdLimiter, class: WorkClass) -> u64 {
        let mut n = 0;
        while l.try_acquire(class).is_ok() {
            n += 1;
        }
        n
    }

    #[test]
    fn background_sheds_before_interactive() {
        let mut l = AimdLimiter::new();
        // Fill to the background share (60% of 256 = 153 slots).
        assert_eq!(fill(&mut l, WorkClass::Background), 153);
        assert_eq!(l.try_acquire(WorkClass::Background), Err(SHED_RETRY_US));
        // Batch (85% = 217) and interactive (100%) still have headroom.
        assert_eq!(fill(&mut l, WorkClass::Batch), 217 - 153);
        assert_eq!(fill(&mut l, WorkClass::Interactive), WINDOW - 217);
        // Releases reopen the window.
        for _ in 0..WINDOW {
            l.release();
        }
        assert_eq!(l.in_flight(), 0);
        l.try_acquire(WorkClass::Background).unwrap();
    }

    #[test]
    fn interactive_always_keeps_one_slot() {
        let mut l = AimdLimiter::new();
        assert_eq!(fill(&mut l, WorkClass::Interactive), WINDOW);
        l.release();
        // With one slot left, only interactive may take it.
        assert!(l.try_acquire(WorkClass::Background).is_err());
        assert!(l.try_acquire(WorkClass::Batch).is_err());
        l.try_acquire(WorkClass::Interactive).unwrap();
    }
}
