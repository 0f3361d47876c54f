//! The in-process RPC layer: every cross-component "hop" (client→SMS,
//! client→Stream Server, optimizer→SMS, query→SMS, …) is a direct call
//! routed through an [`RpcChannel`], which supplies what a real gRPC stack
//! would: per-call deadlines against a call budget, fault injection
//! (unavailability, lost replies — the ambiguous-ack case where the server
//! executed but the caller never heard), virtual latency drawn from the
//! [`crate::latency`] models, one retry rule (the server's hint, else
//! exponential backoff + jitter) honoring [`VortexError::is_retryable`],
//! and per-method call counters / latency histograms drainable by tests
//! and benches.
//!
//! The one semantic rule the whole engine leans on: a fault injected
//! **before** the callee ran is always safe to retry, for any method; a
//! reply lost **after** the callee ran is only safe to re-execute for
//! [`CallKind::Idempotent`] methods. Non-idempotent methods (`append`,
//! `create_table`, conversion commits) surface a retryable
//! [`VortexError::Unavailable`] instead, so the caller's own
//! reconciliation logic — the §5.4/§5.6 offset-based dedup — decides what
//! actually happened. That is exactly the contract a lossy network gives
//! a thick client, and it is what makes the §4.2.2 exactly-once claim
//! testable in-process.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::{VortexError, VortexResult};
use crate::latency::LogNormal;
use crate::obs::{Counter, Histogram};
use crate::rng;
use crate::truetime::{SimClock, Timestamp};

/// Priority class of the work a call performs — the admission-control
/// axis (`vortex-admission`). Classes are ordered: under overload the
/// *highest*-numbered (lowest-priority) class is shed first, so
/// interactive appends and reads keep their latency while background
/// maintenance yields (the paper's production stack survives overload by
/// shedding, not by queueing everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkClass {
    /// Client appends and query reads: latency-sensitive foreground work.
    Interactive = 0,
    /// Connector / batch-ingest pipelines: throughput-sensitive,
    /// deadline-tolerant.
    Batch = 1,
    /// Optimizer, verification, and GC: fully deferrable maintenance.
    Background = 2,
}

impl WorkClass {
    /// All classes, priority order (shed from the back first).
    pub const ALL: [WorkClass; 3] = [
        WorkClass::Interactive,
        WorkClass::Batch,
        WorkClass::Background,
    ];

    /// Stable lowercase name, used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            WorkClass::Interactive => "interactive",
            WorkClass::Batch => "batch",
            WorkClass::Background => "background",
        }
    }

    /// Dense index (0 = interactive … 2 = background).
    pub fn index(self) -> usize {
        self as usize
    }
}

thread_local! {
    static CALL_CLASS: std::cell::Cell<WorkClass> = const { std::cell::Cell::new(WorkClass::Interactive) };
}

/// The calling thread's current [`WorkClass`] ([`WorkClass::Interactive`]
/// unless scoped). Carried in a thread-local so callers several layers
/// above the channel (the optimizer's cycle loop, a connector pipeline)
/// class every RPC they transitively issue without threading a parameter
/// through the whole call graph.
fn current_class() -> WorkClass {
    CALL_CLASS.with(|c| c.get())
}

/// Restores the previous [`WorkClass`] on drop (scoped tagging).
#[must_use = "the class reverts when the guard drops"]
#[derive(Debug)]
pub struct ClassGuard {
    prev: WorkClass,
}

impl Drop for ClassGuard {
    fn drop(&mut self) {
        CALL_CLASS.with(|c| c.set(self.prev));
    }
}

/// Tags every RPC issued by this thread (until the guard drops) with the
/// given priority class. Background services wrap their cycle bodies in
/// `let _bg = class_scope(WorkClass::Background);`.
pub fn class_scope(class: WorkClass) -> ClassGuard {
    let prev = CALL_CLASS.with(|c| c.replace(class));
    ClassGuard { prev }
}

/// Admission hook invoked by [`RpcChannel::call`] around every attempt —
/// how `vortex-admission` sees both service hops without the channel
/// depending on the policy crate.
///
/// Contract: [`RpcInterceptor::admit`] runs before the callee executes.
/// `Ok(queued_us)` admits the attempt after a virtual queueing delay
/// (charged against the call budget, and never longer than the
/// `budget_remaining_us` it was told: an attempt that would have to wait
/// past its deadline is shed instead); `Err` — canonically
/// [`VortexError::ResourceExhausted`] with a nonzero `retry_after_us` —
/// sheds it before any work happens, so shedding is always safe to retry
/// regardless of [`CallKind`]. Every admitted attempt is paired with
/// exactly one [`RpcInterceptor::release`] when the attempt concludes
/// (success *or* failure — concurrency windows must not leak).
pub trait RpcInterceptor: Send + Sync {
    /// Decides one attempt. Returns the virtual queue wait in µs, or a
    /// (retryable, hint-carrying) error to shed the attempt.
    fn admit(
        &self,
        method: &'static str,
        class: WorkClass,
        payload_bytes: u64,
        now: Timestamp,
        budget_remaining_us: u64,
    ) -> VortexResult<u64>;

    /// Concludes one *admitted* attempt (releases concurrency state).
    fn release(&self);
}

/// Idempotency class of an RPC method, declared at each call site.
///
/// Governs what the channel may do when a reply is lost after the callee
/// executed (the ambiguous ack): idempotent methods are transparently
/// re-executed; non-idempotent methods surface a retryable
/// [`VortexError::Unavailable`] so the caller's reconciliation path runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// Safe to execute more than once; the channel may retry after an
    /// ambiguous ack.
    Idempotent,
    /// Re-execution could duplicate effects; ambiguous acks are surfaced
    /// to the caller as retryable unavailability.
    NonIdempotent,
}

/// Shared, atomically-updated fault plan for one channel — the RPC
/// counterpart of `colossus::faults::FaultPlan`. Tests flip these knobs
/// while traffic is in flight.
#[derive(Debug)]
pub struct RpcFaultPlan {
    /// Set by every knob, reset by [`RpcFaultPlan::clear`]: a call on a
    /// channel nobody armed reads this and nothing else of the plan.
    armed: AtomicBool,
    /// Hard-down flag: every filtered call fails before execution.
    unavailable: AtomicBool,
    /// Probability (×1000) that a call attempt fails before execution.
    unavailable_permille: AtomicU32,
    /// Probability (×1000) that a successful call's reply is lost after
    /// execution (error-after-execute / ambiguous ack).
    reply_lost_permille: AtomicU32,
    /// One-shot tokens: the next N attempts fail before execution.
    fail_next: AtomicU32,
    /// One-shot tokens: the next N successful executions lose their reply.
    lose_next: AtomicU32,
    /// When set, injection only applies to this method name.
    method_filter: Mutex<Option<String>>,
    /// [`rng`] state for the permille rolls (deterministic per seed).
    rng: AtomicU64,
}

impl RpcFaultPlan {
    /// A quiescent plan (no injected faults) with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RpcFaultPlan {
            armed: AtomicBool::new(false),
            unavailable: AtomicBool::new(false),
            unavailable_permille: AtomicU32::new(0),
            reply_lost_permille: AtomicU32::new(0),
            fail_next: AtomicU32::new(0),
            lose_next: AtomicU32::new(0),
            method_filter: Mutex::new(None),
            rng: AtomicU64::new(seed | 1),
        }
    }

    fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Marks the endpoint hard-down (or back up).
    pub fn set_unavailable(&self, down: bool) {
        self.unavailable.store(down, Ordering::SeqCst);
        self.arm();
    }

    /// Sets the per-attempt pre-execution failure probability (×1000).
    pub fn set_unavailable_permille(&self, permille: u32) {
        self.unavailable_permille.store(permille, Ordering::SeqCst);
        self.arm();
    }

    /// Sets the reply-loss probability (×1000) applied after successful
    /// execution — the ambiguous-ack axis.
    pub fn set_reply_lost_permille(&self, permille: u32) {
        self.reply_lost_permille.store(permille, Ordering::SeqCst);
        self.arm();
    }

    /// The next `n` attempts fail before execution (token bucket; consumed
    /// across threads, mirroring `fail_next_appends`).
    pub fn fail_next_calls(&self, n: u32) {
        self.fail_next.fetch_add(n, Ordering::SeqCst);
        self.arm();
    }

    /// The next `n` successful executions lose their reply.
    pub fn lose_next_replies(&self, n: u32) {
        self.lose_next.fetch_add(n, Ordering::SeqCst);
        self.arm();
    }

    /// Restricts injection to one method name (`None` = all methods).
    pub fn set_method_filter(&self, method: Option<&str>) {
        *self.method_filter.lock() = method.map(|m| m.to_string());
        self.arm();
    }

    /// Clears every injected fault.
    pub fn clear(&self) {
        self.unavailable.store(false, Ordering::SeqCst);
        self.unavailable_permille.store(0, Ordering::SeqCst);
        self.reply_lost_permille.store(0, Ordering::SeqCst);
        self.fail_next.store(0, Ordering::SeqCst);
        self.lose_next.store(0, Ordering::SeqCst);
        *self.method_filter.lock() = None;
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Whether any knob is set and the filter lets `method` through. With
    /// nothing armed this is one relaxed load, as `crashpoints::check` is.
    #[inline]
    fn applies_to(&self, method: &str) -> bool {
        self.armed.load(Ordering::Relaxed) && self.filter_admits(method)
    }

    #[inline(never)]
    fn filter_admits(&self, method: &str) -> bool {
        // lint:allow(L011, reached only once a test armed the plan; production traffic stops at the relaxed load in applies_to)
        let filter = self.method_filter.lock();
        filter.as_deref().map_or(true, |f| f == method)
    }

    fn roll_permille(&self) -> u32 {
        rng::permille(rng::draw(&self.rng)) as u32
    }

    /// Whether this attempt should fail before the callee executes.
    fn should_fail_call(&self) -> bool {
        if self.unavailable.load(Ordering::SeqCst) || rng::take_token(&self.fail_next) {
            return true;
        }
        let p = self.unavailable_permille.load(Ordering::SeqCst);
        p > 0 && self.roll_permille() < p
    }

    /// Whether this successful execution's reply should be lost.
    fn should_lose_reply(&self) -> bool {
        if rng::take_token(&self.lose_next) {
            return true;
        }
        let p = self.reply_lost_permille.load(Ordering::SeqCst);
        p > 0 && self.roll_permille() < p
    }
}

/// Attempts per call, first try included.
pub const MAX_ATTEMPTS: usize = 6;
/// Backoff before the second attempt, virtual microseconds.
const BASE_BACKOFF_US: u64 = 1_000;
/// Backoff ceiling, virtual microseconds.
const MAX_BACKOFF_US: u64 = 100_000;
/// Per-call budget in virtual microseconds: injected attempt latency,
/// admission queue waits and backoffs may not exceed it (the deadline).
pub const CALL_BUDGET_US: u64 = 30_000_000;

/// Backoff charged after failed attempt number `attempt` (1-based) when
/// the failure carries no server hint: exponential, capped, with ±50%
/// deterministic jitter from `roll`. Charged against the call budget in
/// virtual time — nothing here sleeps (the repo's sleep discipline).
fn backoff_us(attempt: usize, roll: u32) -> u64 {
    let shift = attempt.min(16) as u32;
    let exp = BASE_BACKOFF_US
        .saturating_mul(1u64 << shift.saturating_sub(1))
        .min(MAX_BACKOFF_US);
    // Half fixed, half jittered: [exp/2, exp].
    exp / 2 + (u64::from(roll) % (exp / 2 + 1))
}

/// One method's record on one channel: resolved once per call, counted
/// into as the call proceeds, and read as it is by tests, soaks and
/// [`crate::obs::MetricsSnapshot::add_rpc`].
#[derive(Debug, Default)]
pub struct MethodStats {
    /// Calls issued (one per `call()` invocation).
    pub calls: Counter,
    /// Attempts across all calls (≥ `calls`; the excess is retries).
    pub attempts: Counter,
    /// Calls that returned `Ok` to the caller.
    pub ok: Counter,
    /// Calls that returned `Err` to the caller.
    pub err: Counter,
    /// Attempts failed by injected pre-execution unavailability.
    pub injected_unavailable: Counter,
    /// Successful executions whose reply was injected-lost.
    pub injected_reply_lost: Counter,
    /// Calls that exhausted their budget.
    pub deadline_exceeded: Counter,
    /// Attempts shed by the admission interceptor (never executed).
    pub admission_shed: Counter,
    /// Attempts admitted only after a virtual queueing delay.
    pub admission_queued: Counter,
    /// *Virtual* latency of every completed call (injected attempt
    /// latencies + queue waits + backoffs), microseconds: bounded, and
    /// deterministic under a seeded profile.
    pub latency: Histogram,
}

/// Per-method metrics for one channel, drainable by tests and benches.
#[derive(Debug, Default)]
pub struct RpcMetrics {
    methods: Mutex<HashMap<&'static str, Arc<MethodStats>>>,
}

impl RpcMetrics {
    /// The live record of `method`, created on its first call.
    pub fn method(&self, method: &'static str) -> Arc<MethodStats> {
        Arc::clone(self.methods.lock().entry(method).or_default())
    }

    /// Every method's live record.
    pub fn snapshot(&self) -> HashMap<&'static str, Arc<MethodStats>> {
        self.methods.lock().clone()
    }

    /// Takes every record, leaving the channel counting from zero.
    pub fn drain(&self) -> HashMap<&'static str, Arc<MethodStats>> {
        std::mem::take(&mut *self.methods.lock())
    }

    /// Total calls across all methods.
    pub fn total_calls(&self) -> u64 {
        self.methods.lock().values().map(|m| m.calls.get()).sum()
    }
}

/// Static configuration of one [`RpcChannel`]. Retry policy and call
/// budget are the constants above: no caller ever set them.
#[derive(Debug, Clone)]
pub struct RpcChannelConfig {
    /// Per-attempt injected latency distribution (`None` = zero latency).
    pub latency: Option<LogNormal>,
    /// Seed for the channel's latency sampler and the fault plan.
    pub seed: u64,
}

impl Default for RpcChannelConfig {
    fn default() -> Self {
        RpcChannelConfig {
            latency: None,
            seed: 0x5EED_1E55,
        }
    }
}

/// One logical connection to a service endpoint. Shared (`Arc`) by every
/// consumer of that endpoint so the fault plan and metrics see the union
/// of real traffic. (The §5.4.2 unary / bi-di choice is per *stream*:
/// `StreamWriter` owns that model, not the channel.)
pub struct RpcChannel {
    name: String,
    cfg: RpcChannelConfig,
    faults: RpcFaultPlan,
    metrics: RpcMetrics,
    /// The region's virtual clock: the `now` admission buckets refill by.
    clock: SimClock,
    /// Admission hook consulted before every attempt (`vortex-admission`'s
    /// controller, handed over at region wiring time).
    interceptor: Option<Arc<dyn RpcInterceptor>>,
    latency_rng: Mutex<StdRng>,
}

impl std::fmt::Debug for RpcChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcChannel")
            .field("name", &self.name)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

/// What the attempts of one call share.
struct Call {
    method: &'static str,
    kind: CallKind,
    payload_bytes: u64,
    /// Captured once per call: a class scope installed mid-call must not
    /// split one call's accounting.
    class: WorkClass,
    /// The method's record, resolved once per call.
    stats: Arc<MethodStats>,
    /// Virtual time charged so far: attempt latencies, queue waits,
    /// backoffs. The call's recorded latency, and what the deadline
    /// is checked against.
    consumed_us: u64,
}

/// How one attempt of a call ended.
enum Attempt<T> {
    /// The call is over: the callee's answer, or an error no further
    /// attempt may follow (the deadline, an ambiguous non-idempotent ack).
    Done(VortexResult<T>),
    /// The attempt failed where trying again is safe: the callee never
    /// ran, or the call's kind lets it run twice.
    Retry(VortexError),
}

impl RpcChannel {
    /// Builds a channel over the region's shared virtual `clock`, with
    /// the admission `interceptor` (if any) consulted before every attempt.
    pub fn new(
        name: &str,
        cfg: RpcChannelConfig,
        clock: SimClock,
        interceptor: Option<Arc<dyn RpcInterceptor>>,
    ) -> Arc<Self> {
        Arc::new(RpcChannel {
            name: name.to_string(),
            faults: RpcFaultPlan::new(cfg.seed ^ 0x9E37_79B9),
            latency_rng: Mutex::new(StdRng::seed_from_u64(cfg.seed)),
            metrics: RpcMetrics::default(),
            cfg,
            clock,
            interceptor,
        })
    }

    /// The channel's display name (e.g. `"sms"`, `"server"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The channel's fault plan (shared; flip knobs while traffic flows).
    pub fn faults(&self) -> &RpcFaultPlan {
        &self.faults
    }

    /// Per-method call metrics.
    pub fn metrics(&self) -> &RpcMetrics {
        &self.metrics
    }

    fn sample_latency_us(&self) -> u64 {
        match &self.cfg.latency {
            Some(d) => d.sample(&mut *self.latency_rng.lock()),
            None => 0,
        }
    }

    fn unavailable(&self, method: &str, what: &str) -> VortexError {
        VortexError::Unavailable(format!("rpc {}.{method}: {what}", self.name))
    }

    /// Issues one RPC: `f` is the in-process callee. Injected latency and
    /// backoff accrue against the call budget; pre-execution faults are
    /// retried for every method; ambiguous acks follow `kind` (see the
    /// module docs). Returns the callee's result, an injected
    /// [`VortexError::Unavailable`], [`VortexError::ResourceExhausted`]
    /// from the admission interceptor, or [`VortexError::DeadlineExceeded`].
    pub fn call<T>(
        &self,
        method: &'static str,
        kind: CallKind,
        f: impl FnMut() -> VortexResult<T>,
    ) -> VortexResult<T> {
        self.call_sized(method, kind, 0, f)
    }

    /// [`RpcChannel::call`] with an explicit payload size, charged against
    /// the admission interceptor's bytes/s quota bucket. Call sites that
    /// move bulk data (`append`) use this so the byte quota sees real
    /// volume; metadata calls use `call` (zero bytes — only the
    /// requests/s bucket is charged).
    // lint:hotpath(rpc) — the service hop itself: under every append and every query
    pub fn call_sized<T>(
        &self,
        method: &'static str,
        kind: CallKind,
        payload_bytes: u64,
        mut f: impl FnMut() -> VortexResult<T>,
    ) -> VortexResult<T> {
        let mut call = Call {
            method,
            kind,
            payload_bytes,
            class: current_class(),
            stats: self.metrics.method(method),
            consumed_us: 0,
        };
        call.stats.calls.inc();
        let mut attempt = 0usize;
        let result = loop {
            attempt += 1;
            match self.attempt(&mut call, &mut f) {
                Attempt::Done(result) => break result,
                // The one retry rule: wait the server's hint when the
                // failure carries one (a shed, a callee-raised
                // ResourceExhausted), jittered exponential backoff
                // otherwise — charged to the budget, never slept.
                Attempt::Retry(e) if attempt < MAX_ATTEMPTS => {
                    let us = e
                        .retry_after_us()
                        .unwrap_or_else(|| backoff_us(attempt, self.faults.roll_permille()));
                    call.consumed_us = call.consumed_us.saturating_add(us);
                }
                Attempt::Retry(e) => break Err(e),
            }
        };
        if result.is_ok() {
            call.stats.ok.inc();
        } else {
            call.stats.err.inc();
        }
        call.stats.latency.record(call.consumed_us);
        result
    }

    /// One attempt: charge its latency, check the deadline, pass
    /// admission, run the callee between the two injected-fault points.
    /// Every admitted attempt is released exactly once, here.
    fn attempt<T>(&self, call: &mut Call, f: &mut impl FnMut() -> VortexResult<T>) -> Attempt<T> {
        let (method, stats) = (call.method, &*call.stats);
        stats.attempts.inc();
        call.consumed_us = call.consumed_us.saturating_add(self.sample_latency_us());
        if call.consumed_us > CALL_BUDGET_US {
            stats.deadline_exceeded.inc();
            return Attempt::Done(Err(VortexError::DeadlineExceeded {
                method: method.to_string(),
                budget_us: CALL_BUDGET_US,
            }));
        }
        // Admission decides before the callee sees the attempt, so a shed
        // is safe to retry for any CallKind. A queue wait never exceeds
        // the remaining budget the interceptor is told (its contract), so
        // the deadline check above is the only one.
        if let Some(i) = &self.interceptor {
            let remaining = CALL_BUDGET_US - call.consumed_us;
            let now = self.clock.now();
            match i.admit(method, call.class, call.payload_bytes, now, remaining) {
                Ok(0) => {}
                Ok(queued_us) => {
                    debug_assert!(queued_us <= remaining, "queued past the deadline");
                    stats.admission_queued.inc();
                    call.consumed_us = call.consumed_us.saturating_add(queued_us);
                }
                Err(e) => {
                    stats.admission_shed.inc();
                    return Attempt::Retry(e);
                }
            }
        }
        let inject = self.faults.applies_to(method);
        // Pre-execution fault: the callee never ran, so a retry is safe
        // regardless of idempotency.
        let result = if inject && self.faults.should_fail_call() {
            stats.injected_unavailable.inc();
            None
        } else {
            Some(f())
        };
        if let Some(i) = &self.interceptor {
            i.release();
        }
        match result {
            None => Attempt::Retry(self.unavailable(method, "injected unavailability")),
            // Post-execution reply loss: the callee DID run.
            Some(Ok(_)) if inject && self.faults.should_lose_reply() => {
                stats.injected_reply_lost.inc();
                match call.kind {
                    CallKind::Idempotent => Attempt::Retry(self.unavailable(method, "reply lost")),
                    CallKind::NonIdempotent => {
                        Attempt::Done(Err(self.unavailable(method, "reply lost after execute")))
                    }
                }
            }
            Some(Err(e)) if call.kind == CallKind::Idempotent && e.is_retryable() => {
                Attempt::Retry(e)
            }
            Some(result) => Attempt::Done(result),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn channel(cfg: RpcChannelConfig) -> Arc<RpcChannel> {
        RpcChannel::new("test", cfg, SimClock::new(0), None)
    }

    fn intercepted(icpt: &Arc<ShedFirst>) -> Arc<RpcChannel> {
        let cfg = RpcChannelConfig::default();
        RpcChannel::new("test", cfg, SimClock::new(0), Some(icpt.clone()))
    }

    #[test]
    fn pre_execute_faults_retry_for_any_kind() {
        for kind in [CallKind::Idempotent, CallKind::NonIdempotent] {
            let ch = channel(RpcChannelConfig::default());
            ch.faults().fail_next_calls(2);
            let executed = AtomicUsize::new(0);
            let out = ch.call("m", kind, || {
                executed.fetch_add(1, Ordering::SeqCst);
                Ok(7u32)
            });
            assert_eq!(out.unwrap(), 7);
            assert_eq!(executed.load(Ordering::SeqCst), 1, "callee ran once");
            let m = ch.metrics().method("m");
            assert_eq!(m.attempts.get(), 3);
            assert_eq!(m.injected_unavailable.get(), 2);
            assert_eq!(m.ok.get(), 1);
        }
    }

    #[test]
    fn reply_lost_reexecutes_only_idempotent() {
        let ch = channel(RpcChannelConfig::default());
        ch.faults().lose_next_replies(1);
        let executed = AtomicUsize::new(0);
        let out = ch.call("m", CallKind::Idempotent, || {
            executed.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        assert!(out.is_ok());
        assert_eq!(executed.load(Ordering::SeqCst), 2, "idempotent re-runs");

        let ch = channel(RpcChannelConfig::default());
        ch.faults().lose_next_replies(1);
        let executed = AtomicUsize::new(0);
        let out = ch.call("m", CallKind::NonIdempotent, || {
            executed.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        match out {
            Err(VortexError::Unavailable(msg)) => {
                assert!(msg.contains("reply lost after execute"), "{msg}");
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert_eq!(
            executed.load(Ordering::SeqCst),
            1,
            "non-idempotent must not re-run"
        );
        assert_eq!(ch.metrics().method("m").injected_reply_lost.get(), 1);
    }

    #[test]
    fn real_retryable_errors_retry_idempotent_only() {
        let ch = channel(RpcChannelConfig::default());
        let executed = AtomicUsize::new(0);
        let out = ch.call("m", CallKind::Idempotent, || {
            let n = executed.fetch_add(1, Ordering::SeqCst);
            if n < 2 {
                Err(VortexError::Unavailable("flaky".into()))
            } else {
                Ok(42u32)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(executed.load(Ordering::SeqCst), 3);

        let executed = AtomicUsize::new(0);
        let out: VortexResult<()> = ch.call("n", CallKind::NonIdempotent, || {
            executed.fetch_add(1, Ordering::SeqCst);
            Err(VortexError::Unavailable("flaky".into()))
        });
        assert!(out.is_err());
        assert_eq!(executed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn non_retryable_errors_pass_through() {
        let ch = channel(RpcChannelConfig::default());
        let executed = AtomicUsize::new(0);
        let out: VortexResult<()> = ch.call("m", CallKind::Idempotent, || {
            executed.fetch_add(1, Ordering::SeqCst);
            Err(VortexError::NotFound("x".into()))
        });
        assert!(matches!(out, Err(VortexError::NotFound(_))));
        assert_eq!(executed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deadline_exceeded_when_latency_exhausts_budget() {
        // Every attempt takes longer than the whole call may.
        let cfg = RpcChannelConfig {
            latency: Some(LogNormal::from_median_p99(
                2.0 * CALL_BUDGET_US as f64,
                3.0 * CALL_BUDGET_US as f64,
            )),
            ..RpcChannelConfig::default()
        };
        let ch = channel(cfg);
        let executed = AtomicUsize::new(0);
        let out: VortexResult<()> = ch.call("m", CallKind::Idempotent, || {
            executed.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        match out {
            Err(VortexError::DeadlineExceeded { method, budget_us }) => {
                assert_eq!(method, "m");
                assert_eq!(budget_us, CALL_BUDGET_US);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(executed.load(Ordering::SeqCst), 0, "deadline fires first");
        let m = ch.metrics().method("m");
        assert_eq!((m.attempts.get(), m.deadline_exceeded.get()), (1, 1));
    }

    #[test]
    fn method_filter_scopes_injection() {
        let ch = channel(RpcChannelConfig::default());
        ch.faults().set_method_filter(Some("append"));
        ch.faults().set_unavailable(true);
        assert!(ch
            .call("get_table", CallKind::Idempotent, || Ok(()))
            .is_ok());
        assert!(ch.call("append", CallKind::Idempotent, || Ok(())).is_err());
        ch.faults().clear();
        assert!(ch.call("append", CallKind::Idempotent, || Ok(())).is_ok());
    }

    #[test]
    fn latency_percentiles_track_injected_profile() {
        let cfg = RpcChannelConfig {
            latency: Some(LogNormal::from_median_p99(10_000.0, 30_000.0)),
            ..RpcChannelConfig::default()
        };
        let ch = channel(cfg);
        for _ in 0..4_000 {
            ch.call("m", CallKind::Idempotent, || Ok(())).unwrap();
        }
        let stats = ch.metrics().method("m");
        assert_eq!(stats.calls.get(), 4_000);
        let p = stats.latency.snapshot();
        assert!(
            (7_000..14_000).contains(&p.p50),
            "p50 {}us should be ~10ms",
            p.p50
        );
        assert!(
            (20_000..45_000).contains(&p.p99),
            "p99 {}us should be ~30ms",
            p.p99
        );
    }

    #[test]
    fn latency_percentiles_track_overall_stream_not_prefix() {
        // Regression: latency retention once kept only the *first* 65,536
        // values per method, so a long soak whose latency profile shifted
        // after startup reported startup-biased percentiles forever. The
        // histogram counts every call: 65,536 fast calls followed by
        // 2×65,536 slow ones have an overall p50 of the slow value.
        const PREFIX: u64 = 65_536;
        let ch = channel(RpcChannelConfig::default());
        let m = ch.metrics().method("m");
        m.latency.record_n(1_000, PREFIX);
        m.latency.record_n(100_000, 2 * PREFIX);
        let p = ch.metrics().method("m").latency.snapshot();
        assert_eq!(p.count, 3 * PREFIX, "nothing is sampled out");
        assert_eq!((p.min, p.max), (1_000, 100_000));
        assert!(
            (100_000..=112_500).contains(&p.p50),
            "p50 {} must track the overall stream (2/3 slow), not the fast prefix",
            p.p50
        );
    }

    #[test]
    fn seeded_rolls_are_pinned() {
        for (seed, want) in [
            (1u64, [540, 833, 240, 937, 530, 671, 98, 905]),
            (7, [995, 929, 108, 95, 857, 244, 559, 821]),
            (3_366_259_850, [133, 257, 349, 726, 728, 204, 696, 139]),
        ] {
            let ch = channel(RpcChannelConfig {
                seed,
                ..RpcChannelConfig::default()
            });
            let rolls: Vec<u32> = (0..8).map(|_| ch.faults().roll_permille()).collect();
            assert_eq!(rolls, want, "seed {seed}");
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let b1 = backoff_us(1, 0);
        let b4 = backoff_us(4, 0);
        let b20 = backoff_us(20, 999);
        assert!(b1 >= BASE_BACKOFF_US / 2);
        assert!(b4 > b1);
        assert!(b20 <= MAX_BACKOFF_US);
    }

    #[test]
    fn metrics_drain_resets() {
        let ch = channel(RpcChannelConfig::default());
        ch.call("m", CallKind::Idempotent, || Ok(())).unwrap();
        assert_eq!(ch.metrics().total_calls(), 1);
        let drained = ch.metrics().drain();
        assert_eq!(drained["m"].calls.get(), 1);
        assert_eq!(ch.metrics().total_calls(), 0);
    }

    /// Test interceptor: sheds the first `shed_first` admits with a fixed
    /// `retry_after_us` hint, records the class and payload size of every
    /// attempt it sees plus admit/release/complete counts.
    struct ShedFirst {
        shed_first: u32,
        retry_after_us: u64,
        admits: AtomicU64,
        sheds: AtomicU64,
        releases: AtomicU64,
        classes: Mutex<Vec<WorkClass>>,
        bytes: Mutex<Vec<u64>>,
    }

    impl ShedFirst {
        fn new(shed_first: u32, retry_after_us: u64) -> Arc<Self> {
            Arc::new(ShedFirst {
                shed_first,
                retry_after_us,
                admits: AtomicU64::new(0),
                sheds: AtomicU64::new(0),
                releases: AtomicU64::new(0),
                classes: Mutex::new(Vec::new()),
                bytes: Mutex::new(Vec::new()),
            })
        }
    }

    impl RpcInterceptor for ShedFirst {
        fn admit(
            &self,
            _method: &'static str,
            class: WorkClass,
            payload_bytes: u64,
            _now: Timestamp,
            _budget_remaining_us: u64,
        ) -> VortexResult<u64> {
            self.classes.lock().push(class);
            self.bytes.lock().push(payload_bytes);
            let n = self.admits.fetch_add(1, Ordering::SeqCst);
            if n < u64::from(self.shed_first) {
                self.sheds.fetch_add(1, Ordering::SeqCst);
                return Err(VortexError::ResourceExhausted {
                    scope: "test bucket".into(),
                    retry_after_us: self.retry_after_us,
                });
            }
            Ok(0)
        }

        fn release(&self) {
            self.releases.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn shed_attempts_back_off_by_the_server_hint() {
        // Shedding twice with a 5,000us hint must charge the call exactly
        // 10,000us of virtual latency — hint-directed backoff, not blind
        // exponential (whose jitter would not land on a round number).
        let icpt = ShedFirst::new(2, 5_000);
        let ch = intercepted(&icpt);
        let out = ch.call("m", CallKind::NonIdempotent, || Ok(9u32));
        assert_eq!(out.unwrap(), 9);
        let m = ch.metrics().method("m");
        let waited = m.latency.snapshot();
        assert_eq!((waited.count, waited.sum), (1, 10_000));
        assert_eq!(m.admission_shed.get(), 2);
        assert_eq!(m.attempts.get(), 3);
    }

    #[test]
    fn callee_resource_exhausted_uses_hint_backoff() {
        let icpt = ShedFirst::new(0, 0);
        let ch = intercepted(&icpt);
        let failed = AtomicUsize::new(0);
        let out = ch.call("m", CallKind::Idempotent, || {
            if failed.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(VortexError::ResourceExhausted {
                    scope: "server-side limiter".into(),
                    retry_after_us: 7_000,
                })
            } else {
                Ok(())
            }
        });
        assert!(out.is_ok());
        // The second attempt follows exactly one hint later — the callee's
        // own ResourceExhausted steered the retry delay.
        assert_eq!(icpt.admits.load(Ordering::SeqCst), 2);
        let waited = ch.metrics().method("m").latency.snapshot();
        assert_eq!((waited.count, waited.sum), (1, 7_000));
    }

    #[test]
    fn shed_exhausting_attempts_surfaces_resource_exhausted() {
        let icpt = ShedFirst::new(u32::MAX, 2_500);
        let ch = intercepted(&icpt);
        let executed = AtomicUsize::new(0);
        let out: VortexResult<()> = ch.call("m", CallKind::Idempotent, || {
            executed.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        match out {
            Err(VortexError::ResourceExhausted { retry_after_us, .. }) => {
                assert_eq!(retry_after_us, 2_500);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        assert_eq!(executed.load(Ordering::SeqCst), 0, "shed before execute");
        // Shed attempts were never admitted: no release.
        assert_eq!(icpt.releases.load(Ordering::SeqCst), 0);
        let m = ch.metrics().method("m");
        assert_eq!(m.admission_shed.get(), m.attempts.get());
    }

    #[test]
    fn interceptor_release_pairs_with_every_admitted_attempt() {
        let icpt = ShedFirst::new(0, 0);
        let ch = intercepted(&icpt);
        // Successes, injected pre-execution faults, lost replies, and
        // callee errors: every admitted attempt must release exactly once.
        ch.call("m", CallKind::Idempotent, || Ok(())).unwrap();
        ch.faults().fail_next_calls(2);
        ch.call("m", CallKind::Idempotent, || Ok(())).unwrap();
        ch.faults().lose_next_replies(1);
        ch.call("m", CallKind::NonIdempotent, || Ok(()))
            .unwrap_err();
        let _ = ch.call("m", CallKind::Idempotent, || {
            Err::<(), _>(VortexError::NotFound("x".into()))
        });
        let admitted = icpt.admits.load(Ordering::SeqCst);
        assert_eq!(icpt.releases.load(Ordering::SeqCst), admitted);
    }

    #[test]
    fn call_sized_reports_payload_bytes_to_admission() {
        let icpt = ShedFirst::new(0, 0);
        let ch = intercepted(&icpt);
        ch.call_sized("append", CallKind::NonIdempotent, 4_096, || Ok(()))
            .unwrap();
        ch.call("get_table", CallKind::Idempotent, || Ok(()))
            .unwrap();
        assert_eq!(&*icpt.bytes.lock(), &[4_096, 0]);
    }

    #[test]
    fn call_ctx_scopes_nest_and_restore() {
        assert_eq!(current_class(), WorkClass::Interactive);
        {
            let _c = class_scope(WorkClass::Background);
            assert_eq!(current_class(), WorkClass::Background);
            {
                let _b = class_scope(WorkClass::Batch);
                assert_eq!(current_class(), WorkClass::Batch);
            }
            assert_eq!(current_class(), WorkClass::Background);
        }
        assert_eq!(current_class(), WorkClass::Interactive);
    }

    #[test]
    fn channel_captures_ctx_at_call_start() {
        let icpt = ShedFirst::new(0, 0);
        let ch = intercepted(&icpt);
        let _bg = class_scope(WorkClass::Background);
        // A scope the callee installs (and leaks past its first, failing
        // run) must not re-class the attempts that follow.
        let mut leaked = None;
        ch.call("gc_sweep", CallKind::Idempotent, || {
            match leaked.replace(class_scope(WorkClass::Batch)) {
                None => Err(VortexError::Unavailable("flaky".into())),
                Some(_) => Ok(()),
            }
        })
        .unwrap();
        let seen = icpt.classes.lock().clone();
        assert_eq!(seen, [WorkClass::Background, WorkClass::Background]);
    }

    #[test]
    fn failed_call_burst_releases_all_in_flight_slots() {
        // Hammer the channel with every failure shape — a hard outage
        // that exhausts the attempts, callee errors, lost replies — and
        // require every slot admission handed out to have come back. A
        // leak here permanently exhausts the concurrency window.
        let icpt = ShedFirst::new(0, 0);
        let ch = intercepted(&icpt);
        ch.faults().set_unavailable(true);
        for _ in 0..50 {
            ch.call("m", CallKind::Idempotent, || Ok(())).unwrap_err();
        }
        ch.faults().clear();
        for _ in 0..50 {
            let _ = ch.call("m", CallKind::NonIdempotent, || {
                Err::<(), _>(VortexError::Io("disk on fire".into()))
            });
        }
        ch.faults().set_reply_lost_permille(1_000);
        for _ in 0..50 {
            ch.call("m", CallKind::NonIdempotent, || Ok(()))
                .unwrap_err();
        }
        ch.faults().clear();
        let admitted = icpt.admits.load(Ordering::SeqCst);
        assert_eq!(admitted, 50 * MAX_ATTEMPTS as u64 + 50 + 50);
        assert_eq!(
            icpt.releases.load(Ordering::SeqCst),
            admitted,
            "a burst of failed calls must not leak in-flight slots"
        );
        // And the channel still works.
        ch.call("m", CallKind::Idempotent, || Ok(7u32)).unwrap();
    }
}
