//! The in-process RPC layer: every cross-component "hop" (client→SMS,
//! client→Stream Server, optimizer→SMS, query→SMS, …) is a direct call
//! routed through an [`RpcChannel`], which supplies what a real gRPC stack
//! would: per-call deadlines against a call budget, fault injection
//! (unavailability, lost replies — the ambiguous-ack case where the server
//! executed but the caller never heard), virtual latency drawn from the
//! [`crate::latency`] models, a retry policy with exponential backoff +
//! jitter honoring [`VortexError::is_retryable`], and per-method call
//! counters / latency histograms drainable by tests and benches.
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
use crate::ids::TableId;
use crate::latency::{LogNormal, Percentiles};
use crate::obs::Reservoir;
use crate::transport::AdaptiveTransport;
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

/// Ambient per-call context an [`RpcInterceptor`] classifies traffic by:
/// which tenant is calling, which table the call concerns (when known),
/// and the work's priority class. Carried in a thread-local and set with
/// scoped guards ([`class_scope`] / [`tenant_scope`] / [`table_scope`]),
/// so callers several layers above the channel (the optimizer's cycle
/// loop, a connector pipeline) tag every RPC they transitively issue
/// without threading a parameter through the whole call graph — the
/// in-process analogue of request metadata / baggage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallCtx {
    /// Tenant charged for the call (0 = the default tenant).
    pub tenant: u64,
    /// Table the call concerns, when the caller knows it.
    pub table: Option<TableId>,
    /// Priority class ([`WorkClass::Interactive`] unless scoped).
    pub class: WorkClass,
}

impl CallCtx {
    /// The ambient default: tenant 0, no table, interactive.
    pub const DEFAULT: CallCtx = CallCtx {
        tenant: 0,
        table: None,
        class: WorkClass::Interactive,
    };
}

thread_local! {
    static CALL_CTX: std::cell::Cell<CallCtx> = const { std::cell::Cell::new(CallCtx::DEFAULT) };
}

/// The calling thread's current [`CallCtx`].
pub fn current_ctx() -> CallCtx {
    CALL_CTX.with(|c| c.get())
}

/// Restores the previous [`CallCtx`] on drop (scoped tagging).
#[must_use = "the context reverts when the guard drops"]
#[derive(Debug)]
pub struct CtxGuard {
    prev: CallCtx,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CALL_CTX.with(|c| c.set(self.prev));
    }
}

fn set_ctx(next: CallCtx) -> CtxGuard {
    let prev = CALL_CTX.with(|c| c.replace(next));
    CtxGuard { prev }
}

/// Tags every RPC issued by this thread (until the guard drops) with the
/// given priority class. Background services wrap their cycle bodies in
/// `let _bg = class_scope(WorkClass::Background);`.
pub fn class_scope(class: WorkClass) -> CtxGuard {
    set_ctx(CallCtx {
        class,
        ..current_ctx()
    })
}

/// Tags every RPC issued by this thread with a tenant id (quota key).
pub fn tenant_scope(tenant: u64) -> CtxGuard {
    set_ctx(CallCtx {
        tenant,
        ..current_ctx()
    })
}

/// Tags every RPC issued by this thread with the table it concerns
/// (per-table quota key).
pub fn table_scope(table: TableId) -> CtxGuard {
    set_ctx(CallCtx {
        table: Some(table),
        ..current_ctx()
    })
}

/// Admission hook invoked by [`RpcChannel::call`] around every attempt —
/// how `vortex-admission` sees both service hops without the channel
/// depending on the policy crate.
///
/// Contract: [`RpcInterceptor::admit`] runs before the callee executes.
/// `Ok(queued_us)` admits the attempt after a virtual queueing delay
/// (charged against the call budget); `Err` — canonically
/// [`VortexError::ResourceExhausted`] with a nonzero `retry_after_us` —
/// sheds it before any work happens, so shedding is always safe to retry
/// regardless of [`CallKind`]. Every admitted attempt is paired with
/// exactly one [`RpcInterceptor::release`] when the attempt concludes
/// (success *or* failure — concurrency windows must not leak, see the
/// transport `in_flight` discipline), and every call — admitted or shed —
/// gets one [`RpcInterceptor::complete`] with the call's total virtual
/// latency for the adaptive (AIMD) feedback loop.
pub trait RpcInterceptor: Send + Sync {
    /// Decides one attempt. Returns the virtual queue wait in µs, or a
    /// (retryable, hint-carrying) error to shed the attempt.
    fn admit(
        &self,
        channel: &str,
        method: &'static str,
        ctx: CallCtx,
        payload_bytes: u64,
        now: Timestamp,
        budget_remaining_us: u64,
    ) -> VortexResult<u64>;

    /// Concludes one *admitted* attempt (releases concurrency state).
    fn release(&self, ctx: CallCtx);

    /// Concludes one call with its total virtual latency and outcome.
    fn complete(
        &self,
        channel: &str,
        method: &'static str,
        ctx: CallCtx,
        latency_us: u64,
        ok: bool,
    );
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
    /// xorshift* state for the permille rolls (deterministic per seed).
    rng: AtomicU64,
}

impl RpcFaultPlan {
    /// A quiescent plan (no injected faults) with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RpcFaultPlan {
            unavailable: AtomicBool::new(false),
            unavailable_permille: AtomicU32::new(0),
            reply_lost_permille: AtomicU32::new(0),
            fail_next: AtomicU32::new(0),
            lose_next: AtomicU32::new(0),
            method_filter: Mutex::new(None),
            rng: AtomicU64::new(seed | 1),
        }
    }

    /// Marks the endpoint hard-down (or back up).
    pub fn set_unavailable(&self, down: bool) {
        self.unavailable.store(down, Ordering::SeqCst);
    }

    /// Sets the per-attempt pre-execution failure probability (×1000).
    pub fn set_unavailable_permille(&self, permille: u32) {
        self.unavailable_permille.store(permille, Ordering::SeqCst);
    }

    /// Sets the reply-loss probability (×1000) applied after successful
    /// execution — the ambiguous-ack axis.
    pub fn set_reply_lost_permille(&self, permille: u32) {
        self.reply_lost_permille.store(permille, Ordering::SeqCst);
    }

    /// The next `n` attempts fail before execution (token bucket; consumed
    /// across threads with CAS, mirroring `fail_next_appends`).
    pub fn fail_next_calls(&self, n: u32) {
        self.fail_next.fetch_add(n, Ordering::SeqCst);
    }

    /// The next `n` successful executions lose their reply.
    pub fn lose_next_replies(&self, n: u32) {
        self.lose_next.fetch_add(n, Ordering::SeqCst);
    }

    /// Restricts injection to one method name (`None` = all methods).
    pub fn set_method_filter(&self, method: Option<&str>) {
        *self.method_filter.lock() = method.map(|m| m.to_string());
    }

    /// Clears every injected fault.
    pub fn clear(&self) {
        self.unavailable.store(false, Ordering::SeqCst);
        self.unavailable_permille.store(0, Ordering::SeqCst);
        self.reply_lost_permille.store(0, Ordering::SeqCst);
        self.fail_next.store(0, Ordering::SeqCst);
        self.lose_next.store(0, Ordering::SeqCst);
        *self.method_filter.lock() = None;
    }

    fn applies_to(&self, method: &str) -> bool {
        match &*self.method_filter.lock() {
            Some(f) => f == method,
            None => true,
        }
    }

    fn roll_permille(&self) -> u32 {
        let mut cur = self.rng.load(Ordering::Relaxed);
        loop {
            let mut x = cur;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            match self
                .rng
                .compare_exchange_weak(cur, x, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return ((x.wrapping_mul(0x2545F4914F6CDD1D) >> 33) % 1000) as u32,
                Err(c) => cur = c,
            }
        }
    }

    fn take_token(counter: &AtomicU32) -> bool {
        let mut cur = counter.load(Ordering::SeqCst);
        while cur > 0 {
            match counter.compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                Err(c) => cur = c,
            }
        }
        false
    }

    /// Whether this attempt should fail before the callee executes.
    fn should_fail_call(&self, method: &str) -> bool {
        if !self.applies_to(method) {
            return false;
        }
        if self.unavailable.load(Ordering::SeqCst) {
            return true;
        }
        if Self::take_token(&self.fail_next) {
            return true;
        }
        let p = self.unavailable_permille.load(Ordering::SeqCst);
        p > 0 && self.roll_permille() < p
    }

    /// Whether this successful execution's reply should be lost.
    fn should_lose_reply(&self, method: &str) -> bool {
        if !self.applies_to(method) {
            return false;
        }
        if Self::take_token(&self.lose_next) {
            return true;
        }
        let p = self.reply_lost_permille.load(Ordering::SeqCst);
        p > 0 && self.roll_permille() < p
    }
}

/// Exponential backoff with jitter, applied between attempts of a
/// retryable call. Backoff is charged against the call budget in virtual
/// time — nothing here sleeps (the repo's sleep discipline).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum attempts per call (first try included).
    pub max_attempts: usize,
    /// Backoff before the second attempt, microseconds.
    pub base_backoff_us: u64,
    /// Backoff ceiling, microseconds.
    pub max_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff_us: 1_000,
            max_backoff_us: 100_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff charged after failed attempt number `attempt` (1-based):
    /// exponential, capped, with ±50% deterministic jitter from `roll`.
    pub fn backoff_us(&self, attempt: usize, roll: u32) -> u64 {
        let shift = attempt.min(16) as u32;
        let exp = self
            .base_backoff_us
            .saturating_mul(1u64 << shift.saturating_sub(1))
            .min(self.max_backoff_us);
        // Half fixed, half jittered: [exp/2, exp].
        exp / 2 + (u64::from(roll) % (exp / 2 + 1))
    }
}

/// Per-method counters and latency samples. Latencies are the *virtual*
/// per-call totals (injected attempt latencies + backoffs), so percentile
/// assertions are deterministic under a seeded profile.
///
/// `latency_us` is a seeded uniform *reservoir sample* of every completed
/// call, not a first-N prefix: on a soak that records millions of calls,
/// percentiles track the whole stream rather than its startup phase.
#[derive(Debug, Clone, Default)]
pub struct MethodStats {
    /// Calls issued (one per `call()` invocation).
    pub calls: u64,
    /// Attempts across all calls (≥ `calls`; the excess is retries).
    pub attempts: u64,
    /// Calls that returned `Ok` to the caller.
    pub ok: u64,
    /// Calls that returned `Err` to the caller.
    pub err: u64,
    /// Attempts failed by injected pre-execution unavailability.
    pub injected_unavailable: u64,
    /// Successful executions whose reply was injected-lost.
    pub injected_reply_lost: u64,
    /// Calls that exhausted their budget.
    pub deadline_exceeded: u64,
    /// Attempts shed by the admission interceptor (never executed).
    pub admission_shed: u64,
    /// Attempts admitted only after a virtual queueing delay.
    pub admission_queued: u64,
    /// Latencies offered to the reservoir over the channel's lifetime
    /// (≥ `latency_us.len()`; the excess was sampled out).
    pub latency_seen: u64,
    /// Virtual latency per completed call, microseconds — a uniform
    /// reservoir sample of at most [`MAX_LATENCY_SAMPLES`] values.
    pub latency_us: Vec<u64>,
}

impl MethodStats {
    /// Percentile summary of the recorded call latencies.
    pub fn percentiles(&self) -> Percentiles {
        let mut samples = self.latency_us.clone();
        Percentiles::compute(&mut samples)
    }
}

/// Latency samples kept per method (reservoir capacity): enough for
/// stable p99s, bounded for long soaks.
pub const MAX_LATENCY_SAMPLES: usize = 65_536;

/// Internal per-method record: the counters plus the seeded reservoir
/// the public [`MethodStats`] snapshot is materialized from.
#[derive(Debug)]
struct MethodRecord {
    calls: u64,
    attempts: u64,
    ok: u64,
    err: u64,
    injected_unavailable: u64,
    injected_reply_lost: u64,
    deadline_exceeded: u64,
    admission_shed: u64,
    admission_queued: u64,
    latency: Reservoir,
}

impl MethodRecord {
    fn new(seed: u64) -> Self {
        MethodRecord {
            calls: 0,
            attempts: 0,
            ok: 0,
            err: 0,
            injected_unavailable: 0,
            injected_reply_lost: 0,
            deadline_exceeded: 0,
            admission_shed: 0,
            admission_queued: 0,
            latency: Reservoir::new(MAX_LATENCY_SAMPLES, seed),
        }
    }

    fn to_stats(&self) -> MethodStats {
        MethodStats {
            calls: self.calls,
            attempts: self.attempts,
            ok: self.ok,
            err: self.err,
            injected_unavailable: self.injected_unavailable,
            injected_reply_lost: self.injected_reply_lost,
            deadline_exceeded: self.deadline_exceeded,
            admission_shed: self.admission_shed,
            admission_queued: self.admission_queued,
            latency_seen: self.latency.seen(),
            latency_us: self.latency.samples().to_vec(),
        }
    }
}

/// FNV-1a over the method name, folded into the channel seed, so each
/// method's reservoir is independently — and reproducibly — seeded.
fn method_seed(seed: u64, method: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in method.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    seed ^ h
}

/// Per-method metrics for one channel, drainable by tests and benches.
#[derive(Debug)]
pub struct RpcMetrics {
    seed: u64,
    methods: Mutex<HashMap<String, MethodRecord>>,
}

impl Default for RpcMetrics {
    fn default() -> Self {
        RpcMetrics::with_seed(0x5EED_1E55)
    }
}

impl RpcMetrics {
    /// Metrics whose per-method latency reservoirs derive from `seed`
    /// (deterministic under `VORTEX_CHAOS_SEED`-seeded configs).
    pub fn with_seed(seed: u64) -> Self {
        RpcMetrics {
            seed,
            methods: Mutex::new(HashMap::new()),
        }
    }

    fn with<R>(&self, method: &str, f: impl FnOnce(&mut MethodRecord) -> R) -> R {
        let mut map = self.methods.lock();
        match map.get_mut(method) {
            Some(rec) => f(rec),
            None => {
                let rec = map
                    .entry(method.to_string())
                    .or_insert_with(|| MethodRecord::new(method_seed(self.seed, method)));
                f(rec)
            }
        }
    }

    /// Snapshot of every method's stats.
    pub fn snapshot(&self) -> HashMap<String, MethodStats> {
        self.methods
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.to_stats()))
            .collect()
    }

    /// One method's stats (zeros if never called).
    pub fn method(&self, method: &str) -> MethodStats {
        self.methods
            .lock()
            .get(method)
            .map(|r| r.to_stats())
            .unwrap_or_default()
    }

    /// Snapshot and reset.
    pub fn drain(&self) -> HashMap<String, MethodStats> {
        std::mem::take(&mut *self.methods.lock())
            .iter()
            .map(|(k, v)| (k.clone(), v.to_stats()))
            .collect()
    }

    /// Total calls across all methods.
    pub fn total_calls(&self) -> u64 {
        self.methods.lock().values().map(|m| m.calls).sum()
    }
}

/// Static configuration of one [`RpcChannel`].
#[derive(Debug, Clone)]
pub struct RpcChannelConfig {
    /// Per-call budget in virtual microseconds: injected attempt latency
    /// plus backoffs may not exceed it (the deadline).
    pub call_budget_us: u64,
    /// Retry policy for retryable failures.
    pub retry: RetryPolicy,
    /// Per-attempt injected latency distribution (`None` = zero latency).
    pub latency: Option<LogNormal>,
    /// Whether injected latency also advances the shared [`SimClock`].
    /// Off by default: soaks already drive virtual time explicitly, and
    /// double-advancing would skew TrueTime-dependent assertions.
    pub advance_virtual_time: bool,
    /// Seed for the channel's samplers and the fault plan.
    pub seed: u64,
}

impl Default for RpcChannelConfig {
    fn default() -> Self {
        RpcChannelConfig {
            call_budget_us: 30_000_000,
            retry: RetryPolicy::default(),
            latency: None,
            advance_virtual_time: false,
            seed: 0x5EED_1E55,
        }
    }
}

/// One logical connection to a service endpoint. Shared (`Arc`) by every
/// consumer of that endpoint so the fault plan, metrics, and transport
/// ledger see the union of real traffic.
pub struct RpcChannel {
    name: String,
    cfg: RpcChannelConfig,
    faults: Arc<RpcFaultPlan>,
    metrics: RpcMetrics,
    clock: Option<SimClock>,
    transport: Mutex<AdaptiveTransport>,
    /// Admission hook consulted before every attempt (`vortex-admission`
    /// installs its controller here at region wiring time).
    interceptor: Mutex<Option<Arc<dyn RpcInterceptor>>>,
    latency_rng: Mutex<StdRng>,
    /// Virtual "now" for channels with no shared clock: advances by each
    /// call's injected latency so transport rate-windows stay meaningful.
    fallback_now_us: AtomicU64,
}

impl std::fmt::Debug for RpcChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcChannel")
            .field("name", &self.name)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl RpcChannel {
    /// Builds a channel. `clock` is the region's shared virtual clock, if
    /// any; it timestamps transport traffic and (optionally) absorbs
    /// injected latency.
    pub fn new(name: &str, cfg: RpcChannelConfig, clock: Option<SimClock>) -> Arc<Self> {
        let faults = Arc::new(RpcFaultPlan::new(cfg.seed ^ 0x9E37_79B9));
        let latency_rng = Mutex::new(StdRng::seed_from_u64(cfg.seed));
        let metrics = RpcMetrics::with_seed(cfg.seed);
        Arc::new(RpcChannel {
            name: name.to_string(),
            cfg,
            faults,
            metrics,
            clock,
            transport: Mutex::new(AdaptiveTransport::with_defaults()),
            interceptor: Mutex::new(None),
            latency_rng,
            fallback_now_us: AtomicU64::new(0),
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

    /// The accumulated transport cost ledger (§5.4.2), fed by real calls.
    pub fn ledger(&self) -> crate::transport::TransportLedger {
        self.transport.lock().ledger()
    }

    /// Whether the channel's connection currently allows pipelining.
    pub fn supports_pipelining(&self) -> bool {
        self.transport.lock().supports_pipelining()
    }

    /// Requests currently in flight on the transport — must return to
    /// zero when no call is executing, whatever mix of successes,
    /// injected faults, and deadline misses preceded (the flow-control
    /// release discipline).
    pub fn transport_in_flight(&self) -> u64 {
        self.transport.lock().in_flight()
    }

    /// Installs the admission interceptor consulted before every attempt.
    pub fn set_interceptor(&self, interceptor: Arc<dyn RpcInterceptor>) {
        *self.interceptor.lock() = Some(interceptor);
    }

    fn now(&self) -> Timestamp {
        match &self.clock {
            Some(c) => c.now(),
            None => Timestamp(self.fallback_now_us.load(Ordering::Relaxed)),
        }
    }

    fn sample_latency_us(&self) -> u64 {
        match &self.cfg.latency {
            Some(d) => d.sample(&mut *self.latency_rng.lock()),
            None => 0,
        }
    }

    fn absorb_latency(&self, us: u64) {
        if us == 0 {
            return;
        }
        match &self.clock {
            Some(c) if self.cfg.advance_virtual_time => {
                c.advance(us);
            }
            Some(_) => {}
            None => {
                self.fallback_now_us.fetch_add(us, Ordering::Relaxed);
            }
        }
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
    /// the admission interceptor's bytes/s quota buckets. Call sites that
    /// move bulk data (`append`) use this so multi-tenant byte quotas see
    /// real volume; metadata calls use `call` (zero bytes — only the
    /// requests/s bucket is charged).
    pub fn call_sized<T>(
        &self,
        method: &'static str,
        kind: CallKind,
        payload_bytes: u64,
        mut f: impl FnMut() -> VortexResult<T>,
    ) -> VortexResult<T> {
        self.metrics.with(method, |m| m.calls += 1);
        // Interceptor + context are captured once per call: a class/tenant
        // scope installed mid-call must not split one call's accounting.
        let interceptor = self.interceptor.lock().clone();
        let ctx = current_ctx();
        let mut consumed_us = 0u64;
        let mut attempt = 0usize;
        let finish = |consumed_us: u64, ok: bool| {
            self.metrics.with(method, |m| {
                if ok {
                    m.ok += 1;
                } else {
                    m.err += 1;
                }
                m.latency.record(consumed_us);
            });
            if let Some(i) = &interceptor {
                i.complete(&self.name, method, ctx, consumed_us, ok);
            }
        };
        // Retry backoff is absorbed into virtual time (not just charged to
        // the budget) so quota buckets refill while a shed caller waits.
        let backoff = |us: u64, consumed_us: &mut u64| {
            self.absorb_latency(us);
            *consumed_us = consumed_us.saturating_add(us);
        };
        loop {
            attempt += 1;
            self.metrics.with(method, |m| m.attempts += 1);
            let lat = self.sample_latency_us();
            self.absorb_latency(lat);
            consumed_us = consumed_us.saturating_add(lat);
            if consumed_us > self.cfg.call_budget_us {
                self.metrics.with(method, |m| m.deadline_exceeded += 1);
                finish(consumed_us, false);
                return Err(VortexError::DeadlineExceeded {
                    method: method.to_string(),
                    budget_us: self.cfg.call_budget_us,
                });
            }
            // Admission: decide this attempt before the callee sees it.
            // Shedding happens pre-execution, so it is safe to retry for
            // any CallKind — with the server's hint instead of blind
            // exponential backoff.
            if let Some(i) = &interceptor {
                let remaining = self.cfg.call_budget_us.saturating_sub(consumed_us);
                match i.admit(
                    &self.name,
                    method,
                    ctx,
                    payload_bytes,
                    self.now(),
                    remaining,
                ) {
                    Ok(queued_us) => {
                        if queued_us > 0 {
                            self.metrics.with(method, |m| m.admission_queued += 1);
                            self.absorb_latency(queued_us);
                            consumed_us = consumed_us.saturating_add(queued_us);
                        }
                        if consumed_us > self.cfg.call_budget_us {
                            // The admission queue wait blew the deadline.
                            i.release(ctx);
                            self.metrics.with(method, |m| m.deadline_exceeded += 1);
                            finish(consumed_us, false);
                            return Err(VortexError::DeadlineExceeded {
                                method: method.to_string(),
                                budget_us: self.cfg.call_budget_us,
                            });
                        }
                    }
                    Err(e) => {
                        self.metrics.with(method, |m| m.admission_shed += 1);
                        if attempt < self.cfg.retry.max_attempts {
                            let us = e.retry_after_us().unwrap_or_else(|| {
                                self.cfg
                                    .retry
                                    .backoff_us(attempt, self.faults.roll_permille())
                            });
                            backoff(us, &mut consumed_us);
                            continue;
                        }
                        finish(consumed_us, false);
                        return Err(e);
                    }
                }
            }
            self.transport.lock().on_request(self.now());
            // Pre-execution fault: the callee never ran, so a retry is
            // safe regardless of idempotency.
            if self.faults.should_fail_call(method) {
                self.transport.lock().on_response();
                if let Some(i) = &interceptor {
                    i.release(ctx);
                }
                self.metrics.with(method, |m| m.injected_unavailable += 1);
                if attempt < self.cfg.retry.max_attempts {
                    let us = self
                        .cfg
                        .retry
                        .backoff_us(attempt, self.faults.roll_permille());
                    backoff(us, &mut consumed_us);
                    continue;
                }
                finish(consumed_us, false);
                return Err(VortexError::Unavailable(format!(
                    "rpc {}.{method}: injected unavailability",
                    self.name
                )));
            }
            let result = f();
            self.transport.lock().on_response();
            if let Some(i) = &interceptor {
                i.release(ctx);
            }
            // Post-execution reply loss: the callee DID run.
            if result.is_ok() && self.faults.should_lose_reply(method) {
                self.metrics.with(method, |m| m.injected_reply_lost += 1);
                match kind {
                    CallKind::Idempotent => {
                        if attempt < self.cfg.retry.max_attempts {
                            let us = self
                                .cfg
                                .retry
                                .backoff_us(attempt, self.faults.roll_permille());
                            backoff(us, &mut consumed_us);
                            continue;
                        }
                        finish(consumed_us, false);
                        return Err(VortexError::Unavailable(format!(
                            "rpc {}.{method}: reply lost",
                            self.name
                        )));
                    }
                    CallKind::NonIdempotent => {
                        finish(consumed_us, false);
                        return Err(VortexError::Unavailable(format!(
                            "rpc {}.{method}: reply lost after execute",
                            self.name
                        )));
                    }
                }
            }
            match result {
                Ok(v) => {
                    finish(consumed_us, true);
                    return Ok(v);
                }
                Err(e) => {
                    if kind == CallKind::Idempotent
                        && e.is_retryable()
                        && attempt < self.cfg.retry.max_attempts
                    {
                        // A callee-raised ResourceExhausted carries the
                        // server's own backoff hint; honor it.
                        let us = e.retry_after_us().unwrap_or_else(|| {
                            self.cfg
                                .retry
                                .backoff_us(attempt, self.faults.roll_permille())
                        });
                        backoff(us, &mut consumed_us);
                        continue;
                    }
                    finish(consumed_us, false);
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn channel(cfg: RpcChannelConfig) -> Arc<RpcChannel> {
        RpcChannel::new("test", cfg, None)
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
            assert_eq!(m.attempts, 3);
            assert_eq!(m.injected_unavailable, 2);
            assert_eq!(m.ok, 1);
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
        assert_eq!(ch.metrics().method("m").injected_reply_lost, 1);
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
        let cfg = RpcChannelConfig {
            call_budget_us: 10,
            latency: Some(LogNormal::from_median_p99(1_000.0, 3_000.0)),
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
                assert_eq!(budget_us, 10);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(executed.load(Ordering::SeqCst), 0, "deadline fires first");
        assert_eq!(ch.metrics().method("m").deadline_exceeded, 1);
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
    fn hot_request_rate_switches_transport_to_bidi() {
        // The §5.4.2 adaptive switch, now fired by real channel traffic:
        // with no clock, virtual now stands still, so a burst of calls is
        // "infinitely hot" and must upgrade to the bi-di connection.
        let ch = channel(RpcChannelConfig::default());
        for _ in 0..20 {
            ch.call("append", CallKind::Idempotent, || Ok(())).unwrap();
        }
        assert!(ch.supports_pipelining(), "hot stream should be on bi-di");
        let ledger = ch.ledger();
        assert!(ledger.bidi_requests > 0, "{ledger:?}");
        assert!(ledger.switches >= 1);
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
        assert_eq!(stats.calls, 4_000);
        let p = stats.percentiles();
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
    fn reservoir_percentiles_track_overall_stream_not_prefix() {
        // Regression: latency retention used to keep only the *first*
        // MAX_LATENCY_SAMPLES values per method, so a long soak whose
        // latency profile shifted after startup reported startup-biased
        // percentiles forever. The seeded reservoir must instead sample
        // the whole stream uniformly: 65,536 fast calls followed by
        // 2×65,536 slow calls has an overall p50 of the slow value.
        let ch = channel(RpcChannelConfig::default());
        let m = ch.metrics();
        for _ in 0..MAX_LATENCY_SAMPLES {
            m.with("m", |r| {
                r.ok += 1;
                r.latency.record(1_000);
            });
        }
        for _ in 0..2 * MAX_LATENCY_SAMPLES {
            m.with("m", |r| {
                r.ok += 1;
                r.latency.record(100_000);
            });
        }
        let stats = m.method("m");
        assert_eq!(stats.latency_seen, 3 * MAX_LATENCY_SAMPLES as u64);
        assert_eq!(stats.latency_us.len(), MAX_LATENCY_SAMPLES);
        let p = stats.percentiles();
        assert_eq!(
            p.p50, 100_000,
            "p50 must track the overall stream (2/3 slow), not the fast prefix"
        );
        // The fast prefix is 1/3 of the stream; the uniform sample keeps
        // roughly that share, not 100% of it.
        let lows = stats.latency_us.iter().filter(|&&v| v == 1_000).count();
        let (lo, hi) = (MAX_LATENCY_SAMPLES / 5, MAX_LATENCY_SAMPLES / 2);
        assert!((lo..hi).contains(&lows), "prefix share {lows} not ~1/3");
    }

    #[test]
    fn reservoir_sample_is_deterministic_per_channel_seed() {
        let run = |seed: u64| {
            let cfg = RpcChannelConfig {
                seed,
                ..RpcChannelConfig::default()
            };
            let ch = channel(cfg);
            for v in 0..(MAX_LATENCY_SAMPLES as u64 + 10_000) {
                ch.metrics().with("m", |r| r.latency.record(v));
            }
            ch.metrics().method("m").latency_us
        };
        assert_eq!(run(0xC8A5_0C8A), run(0xC8A5_0C8A));
        assert_ne!(run(0xC8A5_0C8A), run(0xC8A5_0C8B));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let r = RetryPolicy::default();
        let b1 = r.backoff_us(1, 0);
        let b4 = r.backoff_us(4, 0);
        let b20 = r.backoff_us(20, 999);
        assert!(b1 >= r.base_backoff_us / 2);
        assert!(b4 > b1);
        assert!(b20 <= r.max_backoff_us);
    }

    #[test]
    fn metrics_drain_resets() {
        let ch = channel(RpcChannelConfig::default());
        ch.call("m", CallKind::Idempotent, || Ok(())).unwrap();
        assert_eq!(ch.metrics().total_calls(), 1);
        let drained = ch.metrics().drain();
        assert_eq!(drained["m"].calls, 1);
        assert_eq!(ch.metrics().total_calls(), 0);
    }

    /// Test interceptor: sheds the first `shed_first` admits with a fixed
    /// `retry_after_us` hint, records every `now` it sees plus
    /// admit/release/complete counts.
    struct ShedFirst {
        shed_first: u32,
        retry_after_us: u64,
        admits: AtomicU64,
        sheds: AtomicU64,
        releases: AtomicU64,
        completes: AtomicU64,
        completed_ok: AtomicU64,
        nows: Mutex<Vec<u64>>,
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
                completes: AtomicU64::new(0),
                completed_ok: AtomicU64::new(0),
                nows: Mutex::new(Vec::new()),
                bytes: Mutex::new(Vec::new()),
            })
        }
    }

    impl RpcInterceptor for ShedFirst {
        fn admit(
            &self,
            _channel: &str,
            _method: &'static str,
            _ctx: CallCtx,
            payload_bytes: u64,
            now: Timestamp,
            _budget_remaining_us: u64,
        ) -> VortexResult<u64> {
            self.nows.lock().push(now.micros());
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

        fn release(&self, _ctx: CallCtx) {
            self.releases.fetch_add(1, Ordering::SeqCst);
        }

        fn complete(
            &self,
            _channel: &str,
            _method: &'static str,
            _ctx: CallCtx,
            _latency_us: u64,
            ok: bool,
        ) {
            self.completes.fetch_add(1, Ordering::SeqCst);
            if ok {
                self.completed_ok.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn shed_attempts_back_off_by_the_server_hint() {
        // No shared clock: virtual "now" is the channel's fallback clock,
        // which advances only by absorbed latency/backoff. Shedding twice
        // with a 5,000us hint must therefore move the third attempt's
        // `now` to exactly 10,000us — hint-directed backoff, not blind
        // exponential.
        let ch = channel(RpcChannelConfig::default());
        let icpt = ShedFirst::new(2, 5_000);
        ch.set_interceptor(icpt.clone());
        let out = ch.call("m", CallKind::NonIdempotent, || Ok(9u32));
        assert_eq!(out.unwrap(), 9);
        assert_eq!(&*icpt.nows.lock(), &[0, 5_000, 10_000]);
        let m = ch.metrics().method("m");
        assert_eq!(m.admission_shed, 2);
        assert_eq!(m.attempts, 3);
        // Shedding is pre-execution: retrying a NonIdempotent call is safe.
        assert_eq!(icpt.completed_ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn callee_resource_exhausted_uses_hint_backoff() {
        let ch = channel(RpcChannelConfig::default());
        let icpt = ShedFirst::new(0, 0);
        ch.set_interceptor(icpt.clone());
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
        // Second admit happens exactly one hint later — the callee's own
        // ResourceExhausted steered the retry delay.
        assert_eq!(&*icpt.nows.lock(), &[0, 7_000]);
    }

    #[test]
    fn shed_exhausting_attempts_surfaces_resource_exhausted() {
        let ch = channel(RpcChannelConfig::default());
        let icpt = ShedFirst::new(u32::MAX, 2_500);
        ch.set_interceptor(icpt.clone());
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
        // Shed attempts were never admitted: no release, one complete.
        assert_eq!(icpt.releases.load(Ordering::SeqCst), 0);
        assert_eq!(icpt.completes.load(Ordering::SeqCst), 1);
        let m = ch.metrics().method("m");
        assert_eq!(m.admission_shed, m.attempts);
    }

    #[test]
    fn interceptor_release_pairs_with_every_admitted_attempt() {
        let ch = channel(RpcChannelConfig::default());
        let icpt = ShedFirst::new(0, 0);
        ch.set_interceptor(icpt.clone());
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
        assert_eq!(icpt.completes.load(Ordering::SeqCst), 4);
        assert_eq!(ch.transport_in_flight(), 0);
    }

    #[test]
    fn call_sized_reports_payload_bytes_to_admission() {
        let ch = channel(RpcChannelConfig::default());
        let icpt = ShedFirst::new(0, 0);
        ch.set_interceptor(icpt.clone());
        ch.call_sized("append", CallKind::NonIdempotent, 4_096, || Ok(()))
            .unwrap();
        ch.call("get_table", CallKind::Idempotent, || Ok(()))
            .unwrap();
        assert_eq!(&*icpt.bytes.lock(), &[4_096, 0]);
    }

    #[test]
    fn call_ctx_scopes_nest_and_restore() {
        assert_eq!(current_ctx(), CallCtx::DEFAULT);
        {
            let _t = tenant_scope(7);
            let _c = class_scope(WorkClass::Background);
            assert_eq!(current_ctx().tenant, 7);
            assert_eq!(current_ctx().class, WorkClass::Background);
            {
                let _b = class_scope(WorkClass::Batch);
                let _tab = table_scope(TableId::from_raw(3));
                let ctx = current_ctx();
                assert_eq!(ctx.class, WorkClass::Batch);
                assert_eq!(ctx.tenant, 7, "tenant survives inner class scope");
                assert_eq!(ctx.table, Some(TableId::from_raw(3)));
            }
            assert_eq!(current_ctx().class, WorkClass::Background);
            assert_eq!(current_ctx().table, None);
        }
        assert_eq!(current_ctx(), CallCtx::DEFAULT);
    }

    #[test]
    fn channel_captures_ctx_at_call_start() {
        let ch = channel(RpcChannelConfig::default());
        let icpt = ShedFirst::new(0, 0);
        ch.set_interceptor(icpt.clone());
        let _bg = class_scope(WorkClass::Background);
        ch.call("gc_sweep", CallKind::Idempotent, || Ok(()))
            .unwrap();
        // The interceptor saw the scoped class (checked via admit count —
        // detailed ctx routing is covered in vortex-admission's tests).
        assert_eq!(icpt.admits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn failed_call_burst_releases_all_in_flight_slots() {
        // Satellite regression: drive the transport into bi-di mode (the
        // only mode that tracks in-flight), then hammer it with every
        // failure shape — injected unavailability, callee errors, lost
        // replies, deadline misses — and require the in-flight window to
        // drain to zero. A leak here permanently exhausts flow control.
        let ch = channel(RpcChannelConfig::default());
        for _ in 0..20 {
            ch.call("warm", CallKind::Idempotent, || Ok(())).unwrap();
        }
        assert!(ch.supports_pipelining(), "must be on bi-di for the test");

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
        assert_eq!(
            ch.transport_in_flight(),
            0,
            "a burst of failed calls must not leak in-flight slots"
        );
        // And the channel still works.
        ch.call("m", CallKind::Idempotent, || Ok(7u32)).unwrap();
    }
}
