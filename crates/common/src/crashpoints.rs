//! Deterministic process-death injection: named crash points.
//!
//! The paper's durability story (§5.3 WAL + checkpoints, §5.6
//! reconciliation, §7.1 File-Map recovery) claims a component can die at
//! the *worst possible instruction* and the system still recovers to an
//! exactly-once state. This module makes that claim testable in-process:
//! durable-write paths are annotated with *named* crash points
//! (`crash_point!("server.append.pre_ack")`), and a test arms a point
//! with a seeded deterministic trigger — fire on the Nth hit, or fire
//! per-mille of hits. A firing point returns
//! [`VortexError::SimulatedCrash`], which is deliberately **not**
//! retryable: internal retry loops must let it unwind to the component's
//! service boundary (the RPC channel wrappers in `vortex-sms::api`),
//! which marks the instance dead and converts the error into a retryable
//! `Unavailable` for remote callers — exactly as if the process had been
//! killed at that instruction. No Rust panic is ever raised.
//!
//! With no point armed, the check on the append hot path is a single
//! relaxed atomic load (see [`check`]), so the framework adds no
//! measurable overhead to production-shaped benches.
//!
//! Naming convention: `component.operation.moment`, lowercase, dot
//! separated (e.g. `sms.open_streamlet.post_txn`). Every name used in a
//! `crash_point!` call site must be unique across the repository and
//! listed in [`REGISTRY`] — lint rule L007 enforces both.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::error::{VortexError, VortexResult};
use crate::rng;

/// The catalogue of every crash point compiled into the engine, with the
/// durable-write gap it models. Lint rule L007 checks that each
/// `crash_point!` call site uses a name from this list and that no name
/// has two call sites.
pub const REGISTRY: &[&str] = &[
    // Stream Server: between the two synchronous replica appends of a
    // dual-cluster write (§5.6) — one cluster has the bytes, the other
    // does not; reconciliation must converge on a common prefix.
    "server.replica.mid_write",
    // Stream Server: after the append is durable on both replicas but
    // before the client sees the ack (§4.2.2) — the canonical ambiguous
    // ack; offset-based dedup must absorb the client's retry.
    "server.append.pre_ack",
    // Stream Server: after the new checkpoint is written but before the
    // superseded WAL/checkpoint epochs are deleted (§5.3).
    "server.checkpoint.mid",
    // Stream Server: between fragment deletions of one GC batch (§5.5)
    // — the SMS must tolerate a partially-applied GC work list.
    "server.gc.mid",
    // SMS: after the metastore transaction creating a streamlet commits
    // but before the Stream Server learns it hosts the streamlet
    // (§5.2) — the metadata exists with no server-side state.
    "sms.open_streamlet.post_txn",
    // Optimizer: after ROS blocks are durable in Colossus but before
    // `commit_conversion` registers them (§6.1) — the blocks must stay
    // invisible garbage, never double-counted.
    "optimizer.convert.pre_commit",
    // Optimizer: same gap on the recluster (baseline-merge) path.
    "optimizer.recluster.pre_commit",
    // Connector: after the Append stage wrote a bundle to its BUFFERED
    // stream but before the shuffle flush message and processed-marking
    // commit (§7.4) — the unflushed tail must stay invisible.
    "connector.state.pre_commit",
    // Metastore: mid-way through appending a commit's WAL frame (§5.1)
    // — a torn prefix of the record lands, the commit is never acked,
    // and recovery must truncate the tail without losing earlier acks.
    // (Direct `crashpoints::check` site: the torn prefix is written
    // manually before the error propagates.)
    "meta.wal.mid_append",
    // Metastore: mid-way through writing a new checkpoint file, before
    // any pointer update — the torn candidate must be ignored and the
    // previously published checkpoint must keep recovery working.
    // (Direct `crashpoints::check` site, as above.)
    "meta.checkpoint.mid_write",
    // Metastore: after the new checkpoint file is fully durable but
    // before the version-pointer CAS publishes it — recovery must keep
    // using the old checkpoint plus a longer WAL tail.
    "meta.checkpoint.pre_publish",
];

/// Number of currently armed points. The disarmed fast path is a single
/// relaxed load of this counter.
static ARMED_POINTS: AtomicUsize = AtomicUsize::new(0);

/// Total fires across all points since process start (survives disarm).
static TOTAL_FIRES: AtomicU64 = AtomicU64::new(0);

/// Trigger state for one armed point.
#[derive(Debug, Default)]
struct ArmState {
    /// Hits remaining before the Nth-hit trigger fires (0 = trigger
    /// disabled or already fired).
    countdown: AtomicU64,
    /// Probability of firing per hit, in permille (0 = disabled).
    permille: AtomicU64,
    /// xorshift* state for the per-mille roll (seeded, deterministic).
    rng: AtomicU64,
    /// Times the point was reached while armed.
    hits: AtomicU64,
    /// Times the point fired while armed.
    fired: AtomicU64,
}

fn plan() -> &'static RwLock<HashMap<String, Arc<ArmState>>> {
    static PLAN: OnceLock<RwLock<HashMap<String, Arc<ArmState>>>> = OnceLock::new();
    PLAN.get_or_init(Default::default)
}

/// Checks a crash point: `Ok(())` to continue, or
/// [`VortexError::SimulatedCrash`] if an armed trigger decided this is
/// the instruction at which the process dies.
///
/// Call sites should use the [`crash_point!`](crate::crash_point) macro,
/// which `?`-propagates the error. With nothing armed anywhere this is
/// one relaxed atomic load.
#[inline]
pub fn check(name: &'static str) -> VortexResult<()> {
    if ARMED_POINTS.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    check_armed(name)
}

#[inline(never)]
fn check_armed(name: &str) -> VortexResult<()> {
    // lint:allow(L011, reached only when a test armed at least one point; production traffic takes the relaxed-load fast path in check)
    let Some(state) = plan().read().get(name).cloned() else {
        return Ok(());
    };
    state.hits.fetch_add(1, Ordering::Relaxed);
    // Fire-on-Nth-hit: decrement the countdown; firing on the hit that
    // takes it to zero. CAS loop so concurrent hits each consume one.
    let mut c = state.countdown.load(Ordering::SeqCst);
    while c > 0 {
        match state
            .countdown
            .compare_exchange(c, c - 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {
                if c == 1 {
                    return Err(fire(name, &state));
                }
                break;
            }
            Err(cur) => c = cur,
        }
    }
    let pm = state.permille.load(Ordering::Relaxed);
    if pm > 0 && roll_permille(&state.rng) < pm {
        return Err(fire(name, &state));
    }
    Ok(())
}

fn fire(name: &str, state: &ArmState) -> VortexError {
    state.fired.fetch_add(1, Ordering::Relaxed);
    TOTAL_FIRES.fetch_add(1, Ordering::Relaxed);
    // lint:allow(L010, fires only when a test has armed the point; the process is about to simulate death)
    VortexError::SimulatedCrash(name.to_string())
}

/// One draw in `0..1000` from a point's generator. The state is forced
/// odd before each step — what the pinned per-seed sequences were
/// recorded with, and what keeps an all-zero state from sticking.
fn roll_permille(state: &AtomicU64) -> u64 {
    state.fetch_or(1, Ordering::Relaxed);
    rng::permille(rng::draw(state))
}

/// Scope guard for an armed crash point: dropping it disarms the point,
/// so a test cannot leak an armed trigger into later tests in the same
/// process.
#[must_use = "dropping the guard disarms the crash point"]
#[derive(Debug)]
pub struct CrashGuard {
    name: String,
}

impl CrashGuard {
    /// The armed point's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Times the point was reached while armed.
    pub fn hits(&self) -> u64 {
        stat_of(&self.name, |s| s.hits.load(Ordering::Relaxed))
    }

    /// Times the point fired while armed.
    pub fn fires(&self) -> u64 {
        stat_of(&self.name, |s| s.fired.load(Ordering::Relaxed))
    }
}

impl Drop for CrashGuard {
    fn drop(&mut self) {
        let removed = plan().write().remove(&self.name);
        if removed.is_some() {
            ARMED_POINTS.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn stat_of(name: &str, f: impl Fn(&ArmState) -> u64) -> u64 {
    plan().read().get(name).map(|s| f(s)).unwrap_or(0)
}

fn arm(name: &str, state: ArmState) -> CrashGuard {
    let prev = plan().write().insert(name.to_string(), Arc::new(state));
    if prev.is_none() {
        ARMED_POINTS.fetch_add(1, Ordering::SeqCst);
    }
    CrashGuard {
        name: name.to_string(),
    }
}

/// Arms `name` to fire exactly once, on its `nth` hit (1-based; `nth ==
/// 1` fires on the next hit). Re-arming a point replaces its triggers
/// and counters.
pub fn arm_nth(name: &str, nth: u64) -> CrashGuard {
    arm(
        name,
        ArmState {
            countdown: AtomicU64::new(nth.max(1)),
            ..ArmState::default()
        },
    )
}

/// Arms `name` to fire on `permille`‰ of hits, decided by a
/// deterministic generator seeded with `seed`.
pub fn arm_permille(name: &str, permille: u64, seed: u64) -> CrashGuard {
    arm(
        name,
        ArmState {
            permille: AtomicU64::new(permille.min(1000)),
            // Scramble so adjacent seeds give unrelated sequences (a
            // plain `seed | 1` would alias 2k and 2k+1).
            rng: AtomicU64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            ..ArmState::default()
        },
    )
}

/// Total fires across every point since process start. Soaks assert
/// this moved to prove the crash axis was actually exercised.
pub fn total_fires() -> u64 {
    TOTAL_FIRES.load(Ordering::Relaxed)
}

/// Whether `name` is in the compiled-in [`REGISTRY`].
pub fn is_registered(name: &str) -> bool {
    REGISTRY.contains(&name)
}

/// Annotates a durable-write path with a named crash point.
///
/// Expands to a `?`-propagated [`crashpoints::check`](crate::crashpoints::check),
/// so the enclosing function must return
/// [`VortexResult`](crate::VortexResult). Example:
///
/// ```ignore
/// vortex_common::crash_point!("server.append.pre_ack");
/// ```
///
/// The name must be a string literal that is unique across the
/// repository and listed in
/// [`crashpoints::REGISTRY`](crate::crashpoints::REGISTRY) (lint L007).
#[macro_export]
macro_rules! crash_point {
    ($name:literal) => {
        $crate::crashpoints::check($name)?
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Test-only names: never used by `crash_point!` call sites, so
    // arming them cannot perturb concurrently running tests.
    #[test]
    fn disarmed_points_never_fire() {
        for _ in 0..1000 {
            assert!(check("test.disarmed.point").is_ok());
        }
    }

    #[test]
    fn nth_hit_fires_exactly_once_on_the_nth() {
        let g = arm_nth("test.nth.point", 3);
        assert!(check("test.nth.point").is_ok());
        assert!(check("test.nth.point").is_ok());
        let err = check("test.nth.point").unwrap_err();
        assert_eq!(
            err,
            VortexError::SimulatedCrash("test.nth.point".to_string())
        );
        // One-shot: later hits pass.
        assert!(check("test.nth.point").is_ok());
        assert_eq!(g.hits(), 4);
        assert_eq!(g.fires(), 1);
    }

    #[test]
    fn permille_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let _g = arm_permille("test.permille.point", 200, seed);
            (0..200)
                .map(|_| check("test.permille.point").is_err())
                .collect::<Vec<bool>>()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must give the same firing sequence");
        assert!(a.iter().any(|f| *f), "200‰ over 200 hits should fire");
        assert!(!a.iter().all(|f| *f), "200‰ must not fire every hit");
        let c = run(43);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn seeded_rolls_are_pinned() {
        for (seed, want) in [
            (1u64, [537, 711, 499, 844, 456, 799, 416, 107]),
            (7, [774, 460, 893, 579, 433, 328, 147, 731]),
            (3_366_259_850, [924, 283, 869, 604, 163, 814, 777, 934]),
        ] {
            let _g = arm_permille("test.pinned.point", 500, seed);
            let state = plan().read().get("test.pinned.point").cloned().unwrap();
            let rolls: Vec<u64> = (0..8).map(|_| roll_permille(&state.rng)).collect();
            assert_eq!(rolls, want, "seed {seed}");
        }
    }

    #[test]
    fn guard_drop_disarms() {
        {
            let _g = arm_nth("test.guard.point", 1);
            assert!(check("test.guard.point").is_err());
        }
        assert!(check("test.guard.point").is_ok());
    }

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for name in REGISTRY {
            assert!(seen.insert(name), "duplicate registry entry {name}");
            assert!(
                name.split('.').count() >= 2
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c)),
                "bad crash point name {name}"
            );
        }
        assert!(is_registered("server.append.pre_ack"));
        assert!(!is_registered("test.nth.point"));
    }

    #[test]
    fn macro_propagates_the_error() {
        fn site() -> VortexResult<u32> {
            crate::crash_point!("test.macro.point");
            Ok(7)
        }
        assert_eq!(site().unwrap(), 7);
        let _g = arm_nth("test.macro.point", 1);
        assert!(matches!(site(), Err(VortexError::SimulatedCrash(_))));
        assert_eq!(site().unwrap(), 7);
    }
}
