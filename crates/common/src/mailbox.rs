//! Shard mailboxes and reply slots: the message-passing substrate of the
//! shard-per-core Stream Server (§5.3's data plane re-architected as
//! single-writer shards).
//!
//! Each shard thread owns its streamlets outright; callers never touch
//! shard state directly. Instead they `post` messages into the shard's
//! [`Mailbox`] and park on a [`ReplySlot`] until the shard delivers the
//! result. The discipline:
//!
//! - **Single consumer.** Exactly one thread pulls from a mailbox; the
//!   first `pull` pins it as the consumer and later wake-ups unpark it.
//! - **Bounded data plane.** [`MailboxSender::post_data`] enforces a depth
//!   cap and rejects with [`PostError::Full`] without blocking or
//!   allocating — backpressure surfaces to the caller as a retryable
//!   error, it never stalls a producer inside the server.
//! - **Unbounded control plane.** [`MailboxSender::post`] bypasses the
//!   cap: control traffic (heartbeats, schema updates, checkpoints) is
//!   rare, small, and must not be shed behind data backlog.
//! - **No locks, no condvars, no polling.** The queue is std mpsc; an
//!   idle consumer parks until a producer (or `close`) unparks it — the
//!   sleeping-flag / recheck / unpark protocol in [`MailboxReceiver::pull`]
//!   cannot lose a wake-up, so no timeout backs it up. Reply delivery is
//!   a `OnceLock` publish plus an unpark. Nothing on the append hot path
//!   acquires a lock.
//!
//! The types are generic so other service loops can adopt the same
//! discipline; the Stream Server's shard messages are the first user.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::Thread;
use std::time::Duration;

/// Why a `post` was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostError {
    /// The bounded queue is at capacity: shed and retry later.
    Full,
    /// The consumer is gone or the mailbox was closed.
    Closed,
}

struct Shared<T> {
    tx: Sender<T>,
    depth: AtomicUsize,
    cap: usize,
    sleeping: AtomicBool,
    closed: AtomicBool,
    consumer: OnceLock<Thread>,
}

/// Producer half of a shard mailbox. Cheap to clone; any thread may post.
pub struct MailboxSender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for MailboxSender<T> {
    fn clone(&self) -> Self {
        MailboxSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Consumer half of a shard mailbox: owned by exactly one shard thread.
pub struct MailboxReceiver<T> {
    rx: Receiver<T>,
    shared: Arc<Shared<T>>,
}

/// Creates a mailbox whose data plane sheds above `cap` queued messages.
pub fn mailbox<T>(cap: usize) -> (MailboxSender<T>, MailboxReceiver<T>) {
    let (tx, rx) = mpsc::channel();
    // lint:allow(L010, one-time construction when a shard mailbox is set up)
    let shared = Arc::new(Shared {
        tx,
        depth: AtomicUsize::new(0),
        cap,
        sleeping: AtomicBool::new(false),
        closed: AtomicBool::new(false),
        consumer: OnceLock::new(),
    });
    (
        MailboxSender {
            shared: Arc::clone(&shared),
        },
        MailboxReceiver { rx, shared },
    )
}

impl<T> MailboxSender<T> {
    /// Posts a data-plane message, shedding with [`PostError::Full`] when
    /// the queue is at capacity. Never blocks.
    pub fn post_data(&self, msg: T) -> Result<(), PostError> {
        let s = &*self.shared;
        let d = s.depth.fetch_add(1, Ordering::AcqRel);
        if d >= s.cap {
            s.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(PostError::Full);
        }
        self.post_inner(msg)
    }

    /// Posts a control-plane message, bypassing the depth cap. Never
    /// blocks; fails only when the mailbox is closed.
    pub fn post(&self, msg: T) -> Result<(), PostError> {
        self.shared.depth.fetch_add(1, Ordering::AcqRel);
        self.post_inner(msg)
    }

    fn post_inner(&self, msg: T) -> Result<(), PostError> {
        let s = &*self.shared;
        if s.closed.load(Ordering::SeqCst) {
            s.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(PostError::Closed);
        }
        if s.tx.send(msg).is_err() {
            s.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(PostError::Closed);
        }
        // The consumer parks only after publishing `sleeping`; posting
        // happens-before this load, so either the consumer sees our
        // message on its pre-park recheck or we see `sleeping` and wake
        // it. Either way the message is consumed promptly.
        if s.sleeping.load(Ordering::SeqCst) {
            if let Some(t) = s.consumer.get() {
                t.unpark();
            }
        }
        Ok(())
    }

    /// Closes the mailbox: subsequent posts fail with
    /// [`PostError::Closed`]; the consumer drains what is queued and then
    /// [`MailboxReceiver::pull`] returns `None`.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        if let Some(t) = self.shared.consumer.get() {
            t.unpark();
        }
    }

    /// Queued-message count (data + control), for load gauges.
    pub fn queued(&self) -> usize {
        self.shared.depth.load(Ordering::Acquire)
    }
}

impl<T> MailboxReceiver<T> {
    /// Non-blocking dequeue for greedy batch draining.
    pub fn try_pull(&mut self) -> Option<T> {
        match self.rx.try_recv() {
            Ok(msg) => {
                self.shared.depth.fetch_sub(1, Ordering::AcqRel);
                Some(msg)
            }
            Err(_) => None,
        }
    }

    /// Dequeues the next message, blocking until one is posted. `None`
    /// means the mailbox is closed and fully drained: exit the loop. The
    /// first call pins the calling thread as the mailbox's consumer.
    pub fn pull(&mut self) -> Option<T> {
        let _ = self.shared.consumer.set(std::thread::current());
        loop {
            if let Some(msg) = self.try_pull() {
                return Some(msg);
            }
            if self.shared.closed.load(Ordering::SeqCst) {
                // Drain-then-exit: a message posted just before close wins.
                return self.try_pull();
            }
            self.shared.sleeping.store(true, Ordering::SeqCst);
            // Recheck after publishing `sleeping`: a producer that posted
            // (or a `close`) before seeing the flag is caught here; one
            // that comes later sees the flag — `close` unparks regardless
            // — and leaves an unpark token, so the park returns at once.
            let wake = self.try_pull();
            if wake.is_none() && !self.shared.closed.load(Ordering::SeqCst) {
                std::thread::park();
            }
            self.shared.sleeping.store(false, Ordering::SeqCst);
            if wake.is_some() {
                return wake;
            }
        }
    }
}

/// A one-shot reply cell: the caller parks on it, the shard delivers into
/// it. Lock-free — a `OnceLock` publish plus thread park/unpark.
pub struct ReplySlot<T> {
    cell: OnceLock<T>,
    waiter: Thread,
}

impl<T> ReplySlot<T> {
    /// Creates a slot whose waiter is the calling thread.
    pub fn for_caller() -> Arc<Self> {
        // lint:allow(L010, one small one-shot cell per request — the cross-thread ack handle)
        Arc::new(ReplySlot {
            cell: OnceLock::new(),
            waiter: std::thread::current(),
        })
    }

    /// Publishes the reply and wakes the waiter. Delivering twice keeps
    /// the first value.
    pub fn deliver(&self, value: T) {
        let _ = self.cell.set(value);
        self.waiter.unpark();
    }

    /// Parks until the reply arrives, up to `max_parks` intervals of
    /// `park` (stale unpark tokens can wake a park early, so the bound is
    /// approximate). `None` means the shard never answered — the caller
    /// should surface a retryable unavailability. Delivery is what wakes
    /// the waiter, never the interval, so keep `park` long (well past the
    /// scheduler tick): a short one arms the CPU's earliest timer on
    /// every request.
    ///
    /// Must be called from the thread that created the slot: delivery
    /// unparks the creator.
    pub fn await_reply(&self, max_parks: u32, park: Duration) -> Option<&T> {
        for _ in 0..max_parks {
            if let Some(v) = self.cell.get() {
                return Some(v);
            }
            std::thread::park_timeout(park);
        }
        self.cell.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn post_and_pull_in_order() {
        let (tx, mut rx) = mailbox::<u32>(8);
        tx.post_data(1).unwrap();
        tx.post_data(2).unwrap();
        tx.post(3).unwrap();
        assert_eq!(rx.pull(), Some(1));
        assert_eq!(rx.pull(), Some(2));
        assert_eq!(rx.pull(), Some(3));
        assert_eq!(rx.try_pull(), None);
    }

    #[test]
    fn data_plane_sheds_at_capacity_but_control_passes() {
        let (tx, mut rx) = mailbox::<u32>(2);
        tx.post_data(1).unwrap();
        tx.post_data(2).unwrap();
        assert_eq!(tx.post_data(3), Err(PostError::Full));
        // Control traffic bypasses the cap.
        tx.post(4).unwrap();
        assert_eq!(tx.queued(), 3);
        // Control overfilled the queue past the cap: the data plane stays
        // shed until pulls bring the depth back under it.
        assert!(rx.try_pull().is_some());
        assert_eq!(tx.post_data(5), Err(PostError::Full));
        assert_eq!(rx.pull(), Some(2));
        tx.post_data(5).unwrap();
        assert_eq!(rx.pull(), Some(4));
        assert_eq!(rx.pull(), Some(5));
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let (tx, mut rx) = mailbox::<u32>(8);
        tx.post_data(1).unwrap();
        tx.close();
        assert_eq!(tx.post_data(2), Err(PostError::Closed));
        assert_eq!(rx.pull(), Some(1));
        assert_eq!(rx.pull(), None);
    }

    #[test]
    fn close_wakes_a_consumer_parked_in_pull() {
        let (tx, mut rx) = mailbox::<u32>(8);
        let consumer = std::thread::spawn(move || rx.pull());
        // Let the consumer reach its (untimed) park; the protocol is
        // correct for any interleaving, the sleep only makes the parked
        // case the likely one.
        while !tx.shared.sleeping.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        tx.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn cross_thread_hammer_delivers_every_message() {
        // No timeout papers over a lost wake-up any more: if one post
        // slipped between the consumer's recheck and its park, this test
        // would hang instead of finishing.
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 25_000;
        let (tx, mut rx) = mailbox::<u64>(usize::MAX);
        let consumer = std::thread::spawn(move || {
            let (mut n, mut sum) = (0u64, 0u64);
            while let Some(v) = rx.pull() {
                n += 1;
                sum += v;
            }
            (n, sum)
        });
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        // Mostly-idle consumer on odd producers: yield so
                        // it parks between posts and wake-ups are real.
                        if p % 2 == 1 && i % 64 == 0 {
                            std::thread::yield_now();
                        }
                        tx.post_data(p * PER_PRODUCER + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        tx.close();
        let total = PRODUCERS * PER_PRODUCER;
        assert_eq!(consumer.join().unwrap(), (total, total * (total - 1) / 2));
    }

    #[test]
    fn cross_thread_wakeup_and_reply() {
        let (tx, mut rx) = mailbox::<(u32, Arc<ReplySlot<u32>>)>(64);
        let consumer = std::thread::spawn(move || {
            while let Some((n, slot)) = rx.pull() {
                slot.deliver(n * 2);
            }
        });
        for i in 0..100u32 {
            let slot = ReplySlot::for_caller();
            tx.post_data((i, Arc::clone(&slot))).unwrap();
            let got = slot.await_reply(1000, Duration::from_millis(20));
            assert_eq!(got.copied(), Some(i * 2));
        }
        tx.close();
        consumer.join().unwrap();
    }
}
