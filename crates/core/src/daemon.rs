//! Background service loops: the always-on machinery of a region.
//!
//! In production these are independent Borg jobs: Stream Servers
//! heartbeat "every few seconds" (§5.5), idle commit records land "after
//! a small period of inactivity" (§7.1), the Storage Optimization Service
//! "continuously optimizes data ... as it is written" (§6.1), and a
//! groomer sweeps periodically (§5.4.3). [`RegionDaemon`] runs all four
//! loops on real threads against a [`Region`], with clean shutdown.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use vortex_common::ids::TableId;

use crate::region::Region;

/// A shutdown-aware pacing primitive for service loops.
///
/// Loops block on [`ShutdownSignal::sleep_or_stop`] between rounds
/// instead of `thread::sleep`, so a shutdown wakes every loop
/// immediately rather than after up to one full period. This is why
/// the repo-wide L003 lint can ban bare sleeps outside the latency
/// substrate with no daemon carve-out.
#[derive(Debug, Default)]
pub struct ShutdownSignal {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl ShutdownSignal {
    /// Creates a signal in the running state.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Blocks for up to `period`, returning early on shutdown.
    /// Returns `true` when the caller's loop should exit.
    pub fn sleep_or_stop(&self, period: Duration) -> bool {
        let mut stopped = self.stopped.lock();
        if *stopped {
            return true;
        }
        let _ = self.cv.wait_for(&mut stopped, period);
        *stopped
    }

    /// Requests shutdown and wakes every blocked loop.
    pub fn trigger(&self) {
        *self.stopped.lock() = true;
        self.cv.notify_all();
    }
}

/// How often each loop fires (wall-clock; the engine's own virtual clock
/// is independent).
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Heartbeat cadence ("every few seconds" in production; fast here).
    pub heartbeat_every: Duration,
    /// Idle-commit tick cadence.
    pub tick_every: Duration,
    /// Optimizer cycle cadence.
    pub optimize_every: Duration,
    /// GC + groomer cadence.
    pub gc_every: Duration,
    /// Metastore checkpoint + compaction cadence (atomic publish + WAL
    /// truncation; bounds SMS cold-restart replay by the tail since the
    /// last checkpoint, not total history).
    pub checkpoint_every: Duration,
    /// Send a full-state heartbeat every N rounds (§5.4.3's orphan
    /// guard).
    pub full_state_every: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            heartbeat_every: Duration::from_millis(20),
            tick_every: Duration::from_millis(10),
            optimize_every: Duration::from_millis(50),
            gc_every: Duration::from_millis(100),
            checkpoint_every: Duration::from_millis(150),
            full_state_every: 10,
        }
    }
}

/// Counters of work the daemon performed.
#[derive(Debug, Default)]
pub struct DaemonStats {
    /// Heartbeat rounds completed.
    pub heartbeats: AtomicU64,
    /// Streamlet deltas carried by those heartbeats.
    pub deltas: AtomicU64,
    /// Idle commit records written.
    pub idle_commits: AtomicU64,
    /// Optimizer cycles run (across all registered tables).
    pub optimizer_cycles: AtomicU64,
    /// GC sweeps run.
    pub gc_sweeps: AtomicU64,
    /// Metastore checkpoints published (compaction + atomic publish).
    pub meta_checkpoints: AtomicU64,
}

/// Handle to the running background loops; dropping it (or calling
/// [`RegionDaemon::shutdown`]) stops them.
pub struct RegionDaemon {
    shutdown: Arc<ShutdownSignal>,
    stats: Arc<DaemonStats>,
    tables: Arc<Mutex<HashSet<TableId>>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// One service loop on its own thread: run a round, then block for
/// `period` or until shutdown, whichever comes first.
fn spawn_loop(
    shutdown: &Arc<ShutdownSignal>,
    period: Duration,
    mut round: impl FnMut() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    let shutdown = Arc::clone(shutdown);
    std::thread::spawn(move || loop {
        round();
        if shutdown.sleep_or_stop(period) {
            break;
        }
    })
}

impl RegionDaemon {
    /// Starts the loops over a shared region.
    pub fn start(region: Arc<Region>, cfg: DaemonConfig) -> Self {
        let shutdown = ShutdownSignal::new();
        let stats = Arc::new(DaemonStats::default());
        let tables: Arc<Mutex<HashSet<TableId>>> = Arc::new(Mutex::new(HashSet::new()));
        // Each loop gets its own handles on the region, the counters and
        // the watched-table set.
        let ctx = || (Arc::clone(&region), Arc::clone(&stats));
        let watched = || {
            let tables = Arc::clone(&tables);
            move || tables.lock().iter().copied().collect::<Vec<TableId>>()
        };

        // Heartbeat loop (§5.5).
        let ((r, st), mut rounds) = (ctx(), 0u64);
        let heartbeat = spawn_loop(&shutdown, cfg.heartbeat_every, move || {
            rounds += 1;
            if let Ok(n) = r.run_heartbeats(rounds % cfg.full_state_every == 0) {
                st.heartbeats.fetch_add(1, Ordering::Relaxed);
                st.deltas.fetch_add(n as u64, Ordering::Relaxed);
            }
        });
        // Idle-commit tick loop (§7.1).
        let (r, st) = ctx();
        let tick = spawn_loop(&shutdown, cfg.tick_every, move || {
            let n = r.run_ticks() as u64;
            st.idle_commits.fetch_add(n, Ordering::Relaxed);
        });
        // Optimizer loop (§6.1: "continuously optimizes").
        let ((r, st), current) = (ctx(), watched());
        let optimize = spawn_loop(&shutdown, cfg.optimize_every, move || {
            for t in current() {
                if r.run_optimizer_cycle(t).is_ok() {
                    st.optimizer_cycles.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        // GC + groomer loop (§5.4.3).
        let ((r, st), current) = (ctx(), watched());
        let gc = spawn_loop(&shutdown, cfg.gc_every, move || {
            for t in current() {
                let _ = r.run_gc(t);
            }
            let _ = r.sms().run_groomer();
            st.gc_sweeps.fetch_add(1, Ordering::Relaxed);
        });
        // Metastore checkpoint + compaction loop: bound cold-restart
        // replay by the tail since the last published checkpoint. A
        // fenced publish (concurrent checkpointer), a transient storage
        // fault, or a simulated mid-checkpoint death all just mean the
        // next round tries again — the previous checkpoint stays valid.
        let (r, st) = ctx();
        let checkpoint = spawn_loop(&shutdown, cfg.checkpoint_every, move || {
            if r.checkpoint_metadata().is_ok() {
                st.meta_checkpoints.fetch_add(1, Ordering::Relaxed);
            }
        });

        Self {
            shutdown,
            stats,
            tables,
            threads: vec![heartbeat, tick, optimize, gc, checkpoint],
        }
    }

    /// Registers a table for continuous optimization and GC.
    pub fn watch_table(&self, table: TableId) {
        self.tables.lock().insert(table);
    }

    /// Work counters.
    pub fn stats(&self) -> &DaemonStats {
        &self.stats
    }

    /// Stops every loop and joins the threads. Loops parked between
    /// rounds wake immediately; shutdown cost is bounded by in-flight
    /// work, not by the longest configured period.
    pub fn shutdown(mut self) {
        self.shutdown.trigger();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for RegionDaemon {
    fn drop(&mut self) {
        self.shutdown.trigger();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for RegionDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionDaemon")
            .field("tables", &self.tables.lock().len())
            .field("stats", &self.stats)
            .finish()
    }
}
