//! `vortex-admission` — region admission control: a rate quota,
//! priority-based load shedding, and a concurrency window.
//!
//! Vortex §5.4's client flow control caps in-flight bytes per connection;
//! it says nothing about *which* work gets served when the region as a
//! whole is overloaded. This crate is that missing layer, installed as an
//! [`RpcInterceptor`] on both service hops (client→server, */→SMS) at
//! region wiring time, so every RPC in the tree passes through one policy
//! point:
//!
//! 1. **Quota buckets** ([`bucket::TokenBucket`]): the region's bytes/s +
//!    requests/s with burst, charged from the call's declared payload size
//!    (`RpcChannel::call_sized`).
//! 2. **Bounded, deadline-aware admission queues**: a take the bucket
//!    cannot cover queues as *virtual delay* (future debt), bounded per
//!    priority class and by the call's remaining deadline budget. The
//!    [`WorkClass::Background`] bound is zero — under pressure the lowest
//!    class sheds first, then batch, and interactive queues longest.
//! 3. **Concurrency window** ([`limiter::AimdLimiter`]): a fixed bound on
//!    calls in flight, with per-class headroom.
//!
//! Shedding always happens *before* the callee executes and surfaces as a
//! retryable [`VortexError::ResourceExhausted`] whose `retry_after_us`
//! hint the channel's retry loop honors directly (gRPC
//! `RESOURCE_EXHAUSTED` + `RetryInfo` semantics). Everything runs in
//! virtual time; a seeded soak is bit-for-bit reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::obs::{self, Counter, Gauge, Histogram};
use vortex_common::rpc::{RpcInterceptor, WorkClass};
use vortex_common::truetime::Timestamp;

pub mod bucket;
pub mod limiter;

pub use bucket::TokenBucket;
pub use limiter::AimdLimiter;

/// The region's rate quota. `0` = unlimited on that axis.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quota {
    /// Payload bytes per virtual second.
    pub bytes_per_sec: u64,
    /// Burst capacity, bytes.
    pub burst_bytes: u64,
    /// Requests per virtual second.
    pub requests_per_sec: u64,
    /// Burst capacity, requests.
    pub burst_requests: u64,
}

impl Quota {
    /// No limits on either axis.
    pub const UNLIMITED: Quota = Quota {
        bytes_per_sec: 0,
        burst_bytes: 0,
        requests_per_sec: 0,
        burst_requests: 0,
    };
}

/// Admission-queue bound per class, virtual µs, indexed by
/// [`WorkClass::index`]. A class may wait at most this long (and never
/// past the call's remaining deadline budget) before the attempt is shed
/// instead. Background's bound is 0: the lowest class sheds first rather
/// than queueing deferrable work.
pub const CLASS_QUEUE_US: [u64; 3] = [2_000_000, 500_000, 0];

/// Methods that bypass policy entirely (liveness traffic — shedding
/// heartbeats would turn overload into spurious failure detection).
pub const EXEMPT_METHODS: [&str; 1] = ["heartbeat"];

/// Static configuration of an [`AdmissionController`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Master switch. Disabled, the controller admits everything
    /// instantly (the overload-bench control arm) while still keeping
    /// in-flight accounting balanced.
    pub enabled: bool,
    /// The region's quota: every admitted RPC draws from one pair of
    /// buckets.
    pub quota: Quota,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: true,
            quota: Quota::UNLIMITED,
        }
    }
}

impl AdmissionConfig {
    /// The control arm: no quotas, no shedding, no queueing.
    pub fn disabled() -> Self {
        AdmissionConfig {
            enabled: false,
            ..AdmissionConfig::default()
        }
    }
}

/// Monotonic per-class counters, readable without the controller lock.
/// Per controller, not per process: two regions must not share a count.
#[derive(Debug, Default)]
struct ClassCounters {
    admitted: [AtomicU64; 3],
    shed: [AtomicU64; 3],
    queued: [AtomicU64; 3],
    queued_us: [AtomicU64; 3],
}

/// The process-wide registry's view of the same events: handles interned
/// at construction, per class where the name carries one, so an admit
/// never formats a name or takes the registry lock.
#[derive(Debug)]
struct Handles {
    admitted: [Arc<Counter>; 3],
    shed: [Arc<Counter>; 3],
    queued: [Arc<Counter>; 3],
    queue_wait_us: [Arc<Histogram>; 3],
    queue_depth_us: [Arc<Gauge>; 3],
    in_flight: Arc<Gauge>,
    limit: Arc<Gauge>,
}

impl Handles {
    fn intern() -> Self {
        /// `admission.<what>.<class><unit>`, in [`WorkClass::index`] order.
        fn names(what: &str, unit: &str) -> [String; 3] {
            // lint:allow(L010, cold construction — once per controller lifetime)
            WorkClass::ALL.map(|c| format!("admission.{what}.{}{unit}", c.name()))
        }
        let m = obs::global();
        Handles {
            admitted: names("admitted", "").map(|n| m.counter(&n)),
            shed: names("shed", "").map(|n| m.counter(&n)),
            queued: names("queued", "").map(|n| m.counter(&n)),
            queue_wait_us: names("queue_wait", ".us").map(|n| m.histogram(&n)),
            queue_depth_us: names("queue_depth", ".us").map(|n| m.gauge(&n)),
            in_flight: m.gauge("admission.in_flight"),
            limit: m.gauge("admission.limit"),
        }
    }
}

/// Snapshot of one class's admission counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// Attempts admitted (instantly or after queueing).
    pub admitted: u64,
    /// Attempts shed (quota or limiter).
    pub shed: u64,
    /// Admitted attempts that had to queue.
    pub queued: u64,
    /// Total virtual µs spent queueing.
    pub queued_us: u64,
}

struct BucketPair {
    bytes: TokenBucket,
    requests: TokenBucket,
}

impl BucketPair {
    fn new(q: Quota) -> Self {
        BucketPair {
            bytes: TokenBucket::new(q.bytes_per_sec, q.burst_bytes),
            requests: TokenBucket::new(q.requests_per_sec, q.burst_requests),
        }
    }

    /// The longer of the two axes' waits for one request of `bytes`, and
    /// the axis that asks for it (requests on a tie).
    fn required_wait_us(&mut self, now_us: u64, bytes: u64) -> (u64, &'static str) {
        let requests = self.requests.required_wait_us(now_us, 1);
        let bytes = self.bytes.required_wait_us(now_us, bytes);
        if bytes > requests {
            (bytes, "bytes/s")
        } else {
            (requests, "requests/s")
        }
    }

    fn take(&mut self, now_us: u64, bytes: u64) {
        self.requests.take(now_us, 1);
        self.bytes.take(now_us, bytes);
    }

    fn debt_us(&self) -> u64 {
        self.requests.debt_us().max(self.bytes.debt_us())
    }
}

struct Inner {
    quota: BucketPair,
    limiter: AimdLimiter,
}

/// The policy engine: one per region, handed to every channel at
/// construction (`RpcChannel::new`), shared so all hops drain the same
/// quota.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    inner: Mutex<Inner>,
    counters: ClassCounters,
    m: Handles,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl AdmissionController {
    /// Builds a controller (wrap in `Arc` via this constructor so it can
    /// be installed on multiple channels).
    pub fn new(cfg: AdmissionConfig) -> Arc<Self> {
        let m = Handles::intern();
        m.limit.set(limiter::WINDOW as i64);
        Arc::new(AdmissionController {
            inner: Mutex::new(Inner {
                quota: BucketPair::new(cfg.quota),
                limiter: AimdLimiter::new(),
            }),
            cfg,
            counters: ClassCounters::default(),
            m,
        })
    }

    /// Counters for one priority class.
    pub fn class_stats(&self, class: WorkClass) -> ClassStats {
        let i = class.index();
        ClassStats {
            admitted: self.counters.admitted[i].load(Ordering::Relaxed),
            shed: self.counters.shed[i].load(Ordering::Relaxed),
            queued: self.counters.queued[i].load(Ordering::Relaxed),
            queued_us: self.counters.queued_us[i].load(Ordering::Relaxed),
        }
    }

    /// Slots currently occupied across all channels.
    pub fn in_flight(&self) -> u64 {
        self.inner.lock().limiter.in_flight()
    }

    fn record_admit(&self, class: WorkClass, queued_us: u64) {
        let i = class.index();
        self.counters.admitted[i].fetch_add(1, Ordering::Relaxed);
        self.m.admitted[i].inc();
        if queued_us > 0 {
            self.counters.queued[i].fetch_add(1, Ordering::Relaxed);
            self.counters.queued_us[i].fetch_add(queued_us, Ordering::Relaxed);
            self.m.queued[i].inc();
            self.m.queue_wait_us[i].record(queued_us);
        }
    }

    fn shed(&self, class: WorkClass, scope: &'static str, retry_after_us: u64) -> VortexError {
        self.counters.shed[class.index()].fetch_add(1, Ordering::Relaxed);
        self.m.shed[class.index()].inc();
        VortexError::ResourceExhausted {
            scope: scope.into(),
            retry_after_us,
        }
    }
}

impl RpcInterceptor for AdmissionController {
    fn admit(
        &self,
        method: &'static str,
        class: WorkClass,
        payload_bytes: u64,
        now: Timestamp,
        budget_remaining_us: u64,
    ) -> VortexResult<u64> {
        let mut guard = self.inner.lock();
        if !self.cfg.enabled || EXEMPT_METHODS.contains(&method) {
            // Still pair with release() so in-flight stays balanced.
            guard.limiter.acquire_exempt();
            return Ok(0);
        }
        let Inner { quota, limiter } = &mut *guard;
        let now_us = now.micros();
        // Deadline-aware bounded queue: the class bound, clipped to what
        // the caller can actually still wait.
        let max_wait = CLASS_QUEUE_US[class.index()].min(budget_remaining_us);

        // Peek both buckets first, commit only if the attempt is admitted:
        // a shed must not partially drain the quota.
        let (wait, axis) = quota.required_wait_us(now_us, payload_bytes);
        if wait > max_wait {
            drop(guard);
            return Err(self.shed(class, axis, wait.max(1)));
        }
        // The concurrency window: shed before committing quota tokens.
        if let Err(retry_after_us) = limiter.try_acquire(class) {
            drop(guard);
            return Err(self.shed(class, "aimd limit", retry_after_us));
        }
        // Commit: drain both buckets (possibly into bounded future debt —
        // that debt IS the admission queue).
        quota.take(now_us, payload_bytes);
        let depth_us = quota.debt_us();
        let in_flight = limiter.in_flight();
        drop(guard);
        self.record_admit(class, wait);
        self.m.in_flight.set(in_flight as i64);
        self.m.queue_depth_us[class.index()].set(depth_us.min(i64::MAX as u64) as i64);
        Ok(wait)
    }

    fn release(&self) {
        let mut inner = self.inner.lock();
        inner.limiter.release();
        let in_flight = inner.limiter.in_flight();
        drop(inner);
        self.m.in_flight.set(in_flight as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use WorkClass::{Background, Interactive};

    /// One attempt of method `m` at virtual time 0.
    fn admit(
        c: &AdmissionController,
        method: &'static str,
        class: WorkClass,
        bytes: u64,
        budget_us: u64,
    ) -> VortexResult<u64> {
        c.admit(method, class, bytes, Timestamp(0), budget_us)
    }

    fn quota_cfg() -> AdmissionConfig {
        AdmissionConfig {
            quota: Quota {
                requests_per_sec: 100,
                burst_requests: 10,
                ..Quota::UNLIMITED
            },
            ..AdmissionConfig::default()
        }
    }

    /// Drains a [`quota_cfg`] burst (10 requests) at t=0.
    fn drain_burst(c: &AdmissionController) {
        for _ in 0..10 {
            admit(c, "m", Interactive, 0, u64::MAX).unwrap();
            c.release();
        }
    }

    #[test]
    fn default_config_admits_everything_instantly() {
        let c = AdmissionController::new(AdmissionConfig::default());
        for i in 0..1_000u64 {
            let q = c
                .admit("append", Interactive, 1 << 20, Timestamp(i), u64::MAX)
                .unwrap();
            assert_eq!(q, 0);
            c.release();
        }
        assert_eq!(c.class_stats(Interactive).shed, 0);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn background_sheds_first_interactive_queues() {
        let c = AdmissionController::new(quota_cfg());
        drain_burst(&c);
        // Background has a zero queue bound: shed immediately, with the
        // bucket's refill time as the hint.
        let err = admit(&c, "m", Background, 0, u64::MAX).unwrap_err();
        match &err {
            VortexError::ResourceExhausted {
                scope,
                retry_after_us,
            } => {
                assert_eq!(scope, "requests/s");
                assert_eq!(*retry_after_us, 10_000, "1 token at 100/s");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // Interactive queues instead (bound 2s > 10ms wait).
        let q = admit(&c, "m", Interactive, 0, u64::MAX).unwrap();
        assert_eq!(q, 10_000);
        c.release();
        assert_eq!(c.class_stats(Background).shed, 1);
        let istats = c.class_stats(Interactive);
        assert_eq!(istats.queued, 1);
        assert_eq!(istats.queued_us, 10_000);
    }

    #[test]
    fn queue_is_deadline_aware() {
        let c = AdmissionController::new(quota_cfg());
        drain_burst(&c);
        // Needs 10ms of queueing but only 5ms of budget remain: shed, do
        // not admit a call that is guaranteed to miss its deadline.
        let err = admit(&c, "m", Interactive, 0, 5_000).unwrap_err();
        assert_eq!(err.retry_after_us(), Some(10_000));
    }

    #[test]
    fn shed_does_not_drain_quota() {
        let c = AdmissionController::new(quota_cfg());
        drain_burst(&c);
        // 100 background sheds must not push the bucket further into
        // debt: the refill hint stays the single-token wait.
        for _ in 0..100 {
            let err = admit(&c, "m", Background, 0, u64::MAX).unwrap_err();
            assert_eq!(err.retry_after_us(), Some(10_000));
        }
    }

    #[test]
    fn byte_quota_charges_payload() {
        let cfg = AdmissionConfig {
            quota: Quota {
                bytes_per_sec: 1_000,
                burst_bytes: 4_096,
                ..Quota::UNLIMITED
            },
            ..AdmissionConfig::default()
        };
        let c = AdmissionController::new(cfg);
        let q = admit(&c, "append", Background, 4_096, u64::MAX).unwrap();
        assert_eq!(q, 0);
        c.release();
        let err = admit(&c, "append", Background, 1_000, u64::MAX).unwrap_err();
        assert!(
            err.to_string().contains("bytes/s"),
            "byte axis must be the binding constraint: {err}"
        );
        // A call that moves no bytes is charged on the requests axis
        // alone, which is unlimited here.
        let q = admit(&c, "get_table", Background, 0, u64::MAX).unwrap();
        assert_eq!(q, 0);
        c.release();
    }

    #[test]
    fn exempt_methods_bypass_policy_but_stay_balanced() {
        let cfg = AdmissionConfig {
            quota: Quota {
                requests_per_sec: 1,
                burst_requests: 1,
                ..Quota::UNLIMITED
            },
            ..AdmissionConfig::default()
        };
        let c = AdmissionController::new(cfg);
        for _ in 0..100 {
            admit(&c, "heartbeat", Background, 0, u64::MAX).unwrap();
            c.release();
        }
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.class_stats(Background).shed, 0);
    }

    #[test]
    fn disabled_controller_is_transparent() {
        let c = AdmissionController::new(AdmissionConfig::disabled());
        for _ in 0..1_000 {
            let q = admit(&c, "append", Background, u64::MAX / 4, 0).unwrap();
            assert_eq!(q, 0);
            c.release();
        }
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn limiter_sheds_with_hint_when_window_full() {
        let c = AdmissionController::new(AdmissionConfig::default());
        for _ in 0..limiter::WINDOW {
            admit(&c, "m", Interactive, 0, u64::MAX).unwrap();
        }
        let err = admit(&c, "m", Interactive, 0, u64::MAX).unwrap_err();
        match err {
            VortexError::ResourceExhausted {
                scope,
                retry_after_us,
            } => {
                assert_eq!(scope, "aimd limit");
                assert_eq!(retry_after_us, limiter::SHED_RETRY_US);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        c.release();
        admit(&c, "m", Interactive, 0, u64::MAX).unwrap();
    }
}
