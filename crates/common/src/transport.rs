//! Unary vs bi-directional connections (§5.4.2).
//!
//! "We observe that only 10% of the Streams hold 90% of the data ... the
//! Vortex client library can adaptively switch between using a single
//! directional (unary) short-lived connection and a bi-directional
//! long-lived connection."
//!
//! In this in-process reproduction there is no real gRPC; what matters
//! for the paper's claim (and bench C3) is the *cost model*:
//!
//! - **unary**: per-request connection-pool overhead (occasionally a
//!   full connection setup on a pool miss), no pipelining, near-zero
//!   standing memory;
//! - **bi-di**: small per-request CPU cost, pipelining allowed, but a
//!   standing memory footprint while the connection is open and
//!   per-request tracking state.
//!
//! [`AdaptiveTransport`] watches the recent request rate and switches
//! modes, accumulating the CPU/memory cost ledger the bench reports.

use std::collections::VecDeque;

use crate::rng;
use crate::truetime::Timestamp;

/// Which connection type a request used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Short-lived request/response connection (pooled).
    Unary,
    /// Long-lived streaming connection with pipelining.
    Bidi,
}

// Cost constants of the transport model (microseconds / bytes). Values
// are representative of gRPC-style stacks; benches only depend on their
// *relative* magnitudes.
/// CPU cost of a unary request hitting a pooled connection.
const UNARY_POOLED_CPU_US: u64 = 25;
/// CPU cost of a unary request that must establish a connection.
const UNARY_SETUP_CPU_US: u64 = 400;
/// Probability (×1000) that a unary request misses the pool: 10 %.
const UNARY_POOL_MISS_PERMILLE: u64 = 100;
/// CPU cost of a request on an established bi-di connection.
const BIDI_REQUEST_CPU_US: u64 = 5;
/// CPU cost of establishing the bi-di connection.
const BIDI_SETUP_CPU_US: u64 = 600;
/// Standing memory of an open bi-di connection.
const BIDI_STANDING_BYTES: u64 = 512 * 1024;
/// Per-in-flight-request tracking memory on a bi-di connection.
const BIDI_TRACKING_BYTES: u64 = 4 * 1024;

/// Switching policy for [`AdaptiveTransport`].
#[derive(Debug, Clone, Copy)]
pub struct AdaptivePolicy {
    /// Switch up to bi-di when at least this many requests landed within
    /// [`AdaptivePolicy::window_micros`].
    pub upgrade_requests: usize,
    /// Drop back to unary after this much idle time.
    pub idle_downgrade_micros: u64,
    /// Rate-measurement window.
    pub window_micros: u64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            upgrade_requests: 8,
            idle_downgrade_micros: 5_000_000,
            window_micros: 1_000_000,
        }
    }
}

/// Accumulated transport costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportLedger {
    /// Total CPU microseconds spent on transport work.
    pub cpu_us: u64,
    /// Peak standing memory attributable to the connection.
    pub peak_memory_bytes: u64,
    /// Requests sent over a unary connection.
    pub unary_requests: u64,
    /// Requests sent over a bi-di connection.
    pub bidi_requests: u64,
    /// Number of mode switches.
    pub switches: u64,
}

/// A connection that adaptively chooses between unary and bi-di modes.
#[derive(Debug)]
pub struct AdaptiveTransport {
    policy: AdaptivePolicy,
    kind: TransportKind,
    recent: VecDeque<Timestamp>,
    last_request: Timestamp,
    ledger: TransportLedger,
    in_flight: u64,
    rng_state: u64,
}

impl AdaptiveTransport {
    /// A transport starting in unary mode.
    pub fn new(policy: AdaptivePolicy) -> Self {
        Self {
            policy,
            kind: TransportKind::Unary,
            recent: VecDeque::new(),
            last_request: Timestamp::MIN,
            ledger: TransportLedger::default(),
            in_flight: 0,
            rng_state: 0x9E3779B97F4A7C15,
        }
    }

    /// A transport with defaults.
    pub fn with_defaults() -> Self {
        Self::new(AdaptivePolicy::default())
    }

    /// Current mode.
    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    /// Accumulated cost ledger.
    pub fn ledger(&self) -> TransportLedger {
        self.ledger
    }

    /// Whether pipelined (no-wait) appends are possible right now.
    pub fn supports_pipelining(&self) -> bool {
        self.kind == TransportKind::Bidi
    }

    /// Pool-miss sampling: one step of the shared generator.
    fn next_rand_permille(&mut self) -> u64 {
        let (next, out) = rng::xorshift_star(self.rng_state);
        self.rng_state = next;
        rng::permille(out)
    }

    /// Records one request at virtual time `now`: charges its CPU cost to
    /// the ledger and possibly switches modes.
    pub fn on_request(&mut self, now: Timestamp) {
        // Idle downgrade first (a long gap tears down the bi-di conn).
        if self.kind == TransportKind::Bidi
            && self.last_request != Timestamp::MIN
            && now.micros().saturating_sub(self.last_request.micros())
                >= self.policy.idle_downgrade_micros
        {
            self.kind = TransportKind::Unary;
            self.ledger.switches += 1;
            self.recent.clear();
        }
        self.last_request = now;
        self.recent.push_back(now);
        while let Some(front) = self.recent.front() {
            if now.micros().saturating_sub(front.micros()) > self.policy.window_micros {
                self.recent.pop_front();
            } else {
                break;
            }
        }
        let mut cpu = 0u64;
        // Upgrade when the window is hot.
        if self.kind == TransportKind::Unary && self.recent.len() >= self.policy.upgrade_requests {
            self.kind = TransportKind::Bidi;
            self.ledger.switches += 1;
            cpu += BIDI_SETUP_CPU_US;
        }
        match self.kind {
            TransportKind::Unary => {
                self.ledger.unary_requests += 1;
                let miss = self.next_rand_permille() < UNARY_POOL_MISS_PERMILLE;
                cpu += if miss {
                    UNARY_SETUP_CPU_US
                } else {
                    UNARY_POOLED_CPU_US
                };
            }
            TransportKind::Bidi => {
                self.ledger.bidi_requests += 1;
                cpu += BIDI_REQUEST_CPU_US;
                self.in_flight += 1;
                let mem = BIDI_STANDING_BYTES + self.in_flight * BIDI_TRACKING_BYTES;
                self.ledger.peak_memory_bytes = self.ledger.peak_memory_bytes.max(mem);
            }
        }
        self.ledger.cpu_us += cpu;
    }

    /// Records a response completing (releases bi-di tracking state).
    ///
    /// Flow-control release discipline: every `on_request` must be paired
    /// with exactly one `on_response` on *every* exit path — success,
    /// callee error, injected fault, lost reply — or the in-flight window
    /// leaks and a burst of failures permanently exhausts the budget.
    /// `RpcChannel::call` owns the pairing; callers that drive the
    /// transport directly (the thick client's append loop) must uphold it
    /// themselves, including on early-return `?` paths.
    pub fn on_response(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Requests currently in flight (bi-di tracking window). Zero
    /// whenever no call is executing — see the release discipline on
    /// [`AdaptiveTransport::on_response`].
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Timestamp {
        Timestamp(us)
    }

    #[test]
    fn sparse_traffic_stays_unary() {
        let mut tr = AdaptiveTransport::with_defaults();
        for i in 0..20 {
            tr.on_request(t(i * 10_000_000)); // one every 10s
            tr.on_response();
        }
        assert_eq!(tr.kind(), TransportKind::Unary);
        assert_eq!(tr.ledger().bidi_requests, 0);
        assert_eq!(tr.ledger().unary_requests, 20);
        assert_eq!(tr.ledger().peak_memory_bytes, 0, "no standing memory");
    }

    #[test]
    fn hot_traffic_upgrades_to_bidi() {
        let mut tr = AdaptiveTransport::with_defaults();
        for i in 0..50 {
            tr.on_request(t(1_000_000 + i * 1_000)); // 1k req/s
            tr.on_response();
        }
        assert_eq!(tr.kind(), TransportKind::Bidi);
        assert!(tr.ledger().bidi_requests > 30);
        assert!(tr.ledger().peak_memory_bytes >= 512 * 1024);
    }

    #[test]
    fn idle_downgrades_back_to_unary() {
        let mut tr = AdaptiveTransport::with_defaults();
        for i in 0..20 {
            tr.on_request(t(1_000_000 + i * 1_000));
            tr.on_response();
        }
        assert_eq!(tr.kind(), TransportKind::Bidi);
        tr.on_request(t(100_000_000)); // long idle gap
        assert_eq!(tr.kind(), TransportKind::Unary);
        assert!(tr.ledger().switches >= 2);
    }

    #[test]
    fn bidi_is_cheaper_per_request_at_high_rate() {
        // The §5.4.2 claim: persistent connections are CPU-efficient for
        // high request volumes; unary avoids standing memory for sparse
        // writers.
        let mut hot_adaptive = AdaptiveTransport::with_defaults();
        let mut hot_unary_only = AdaptiveTransport::new(AdaptivePolicy {
            upgrade_requests: usize::MAX, // never upgrade
            ..AdaptivePolicy::default()
        });
        for i in 0..10_000 {
            hot_adaptive.on_request(t(1_000_000 + i * 100));
            hot_adaptive.on_response();
            hot_unary_only.on_request(t(1_000_000 + i * 100));
            hot_unary_only.on_response();
        }
        assert!(
            hot_adaptive.ledger().cpu_us * 2 < hot_unary_only.ledger().cpu_us,
            "adaptive {} vs unary-only {}",
            hot_adaptive.ledger().cpu_us,
            hot_unary_only.ledger().cpu_us
        );
    }

    #[test]
    fn seeded_rolls_are_pinned() {
        let mut tr = AdaptiveTransport::with_defaults();
        let rolls: Vec<u64> = (0..8).map(|_| tr.next_rand_permille()).collect();
        assert_eq!(rolls, [537, 388, 273, 955, 946, 599, 68, 839]);
    }

    #[test]
    fn pipelining_only_on_bidi() {
        let mut tr = AdaptiveTransport::with_defaults();
        assert!(!tr.supports_pipelining());
        for i in 0..20 {
            tr.on_request(t(1_000_000 + i * 1_000));
        }
        assert!(tr.supports_pipelining());
        // In-flight tracking grows memory.
        let mem_many_inflight = tr.ledger().peak_memory_bytes;
        assert!(mem_many_inflight > 512 * 1024 + 10 * 4 * 1024);
    }
}
