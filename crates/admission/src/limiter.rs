//! Adaptive concurrency limiting: AIMD driven by observed per-call p99
//! latency, entirely in virtual time.
//!
//! The limiter is the overload-*protection* half of admission (quota
//! buckets are the *fairness* half): when the serving path's tail latency
//! climbs past its target — storage queueing, fault-retry storms — the
//! concurrency window multiplicatively shrinks, shedding load before the
//! system congestion-collapses; while latency stays healthy the window
//! creeps back up additively. Priority classes get shrinking shares of
//! the window (headroom), so background work hits the wall first and
//! interactive traffic keeps flowing — gradient/Vegas-style adaptive
//! limiting, deterministic because every input is virtual.

use vortex_common::latency::Percentiles;
use vortex_common::rpc::WorkClass;

/// Static AIMD tuning.
#[derive(Debug, Clone)]
pub struct AimdConfig {
    /// Starting concurrency window.
    pub initial_limit: u64,
    /// Floor the window never shrinks below (keeps progress possible).
    pub min_limit: u64,
    /// Ceiling the window never grows past.
    pub max_limit: u64,
    /// Additive increase per healthy window, in slots.
    pub additive_step: u64,
    /// Multiplicative decrease on congestion, permille (700 = ×0.7).
    pub md_permille: u64,
    /// Latency samples per adjustment decision.
    pub window: usize,
    /// p99 latency target, virtual µs; a window whose p99 exceeds this is
    /// congestion. `u64::MAX` disables the feedback loop.
    pub target_p99_us: u64,
    /// Backoff hint handed to shed callers, virtual µs (> 0).
    pub shed_retry_us: u64,
    /// Per-class share of the window, permille, indexed by
    /// [`WorkClass::index`]. Lower-priority classes get less headroom so
    /// they shed first as the window clamps.
    pub class_headroom_permille: [u64; 3],
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            initial_limit: 256,
            min_limit: 4,
            max_limit: 4_096,
            additive_step: 4,
            md_permille: 700,
            window: 64,
            // Disabled by default: the default region config must not
            // change behavior. Overload configs set a real target.
            target_p99_us: u64::MAX,
            shed_retry_us: 5_000,
            class_headroom_permille: [1_000, 850, 600],
        }
    }
}

impl AimdConfig {
    /// Whether the feedback loop is on: a p99 target was set.
    pub fn adapts(&self) -> bool {
        self.target_p99_us != u64::MAX
    }
}

/// The AIMD concurrency limiter. Callers hold the controller's lock, so
/// the limiter itself is plain mutable state.
#[derive(Debug)]
pub struct AimdLimiter {
    cfg: AimdConfig,
    limit: u64,
    in_flight: u64,
    samples: Vec<u64>,
}

impl AimdLimiter {
    /// A limiter at its initial window.
    pub fn new(cfg: AimdConfig) -> Self {
        let limit = cfg.initial_limit.clamp(cfg.min_limit, cfg.max_limit);
        AimdLimiter {
            cfg,
            limit,
            in_flight: 0,
            samples: Vec::new(),
        }
    }

    /// Slots the given class may occupy under the current window.
    fn allowed(&self, class: WorkClass) -> u64 {
        let share = self.limit * self.cfg.class_headroom_permille[class.index()] / 1_000;
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

    /// Feeds one completed call's virtual latency into the AIMD loop.
    /// Only successful calls count: under injected fault storms the error
    /// latencies say nothing about serving-path congestion.
    pub fn observe(&mut self, latency_us: u64, ok: bool) {
        if !ok || !self.cfg.adapts() {
            return;
        }
        self.samples.push(latency_us);
        if self.samples.len() < self.cfg.window.max(1) {
            return;
        }
        let p99 = Percentiles::compute(&mut self.samples).p99;
        self.samples.clear();
        if p99 > self.cfg.target_p99_us {
            self.limit = (self.limit * self.cfg.md_permille / 1_000).max(self.cfg.min_limit);
        } else {
            self.limit = (self.limit + self.cfg.additive_step).min(self.cfg.max_limit);
        }
    }

    /// Current concurrency window.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Slots currently occupied.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_cfg() -> AimdConfig {
        AimdConfig {
            initial_limit: 100,
            min_limit: 4,
            max_limit: 200,
            additive_step: 10,
            window: 8,
            target_p99_us: 50_000,
            ..AimdConfig::default()
        }
    }

    #[test]
    fn congestion_shrinks_healthy_grows() {
        let mut l = AimdLimiter::new(active_cfg());
        assert_eq!(l.limit(), 100);
        for _ in 0..8 {
            l.observe(200_000, true); // way past target
        }
        assert_eq!(l.limit(), 70, "multiplicative decrease ×0.7");
        for _ in 0..8 {
            l.observe(1_000, true);
        }
        assert_eq!(l.limit(), 80, "additive increase +10");
    }

    #[test]
    fn clamps_to_floor_and_ceiling() {
        let mut l = AimdLimiter::new(active_cfg());
        for _ in 0..30 * 8 {
            l.observe(200_000, true);
        }
        assert_eq!(l.limit(), 4, "never below min_limit");
        for _ in 0..30 * 8 {
            l.observe(1_000, true);
        }
        assert_eq!(l.limit(), 200, "never above max_limit");
    }

    #[test]
    fn errors_do_not_drive_the_loop() {
        let mut l = AimdLimiter::new(active_cfg());
        for _ in 0..100 {
            l.observe(10_000_000, false);
        }
        assert_eq!(l.limit(), 100, "fault storms are not congestion");
    }

    #[test]
    fn background_sheds_before_interactive() {
        let cfg = AimdConfig {
            initial_limit: 10,
            ..active_cfg()
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
            initial_limit: 4,
            min_limit: 1,
            ..active_cfg()
        };
        let mut l = AimdLimiter::new(cfg);
        l.limit = 0; // pathological clamp
        assert!(l.try_acquire(WorkClass::Background).is_err());
        assert!(l.try_acquire(WorkClass::Batch).is_err());
        l.try_acquire(WorkClass::Interactive).unwrap();
    }
}
