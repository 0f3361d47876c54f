//! What an admitted, fault-free RPC costs in allocator requests: none.
//! One test in a binary of its own, because it installs the counting
//! allocator of the `vortex-wos` / `vortex-ros` fuzz tests process-wide.

use std::cell::Cell;

use vortex_admission::{AdmissionConfig, AdmissionController};
use vortex_common::rpc::{CallKind, RpcChannel, RpcChannelConfig, WorkClass};
use vortex_common::truetime::SimClock;

/// Passes every request through to the system allocator and counts, per
/// thread, how many there were.
struct Tally;

thread_local! {
    static REQUESTS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally is a `Cell` in a
// thread-local without a destructor, so touching it allocates nothing
// and cannot re-enter.
unsafe impl std::alloc::GlobalAlloc for Tally {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let _ = REQUESTS.try_with(|r| r.set(r.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed on as they are.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static TALLY: Tally = Tally;

#[test]
fn an_admitted_fault_free_call_allocates_nothing() {
    let admission = AdmissionController::new(AdmissionConfig::default());
    let channel = RpcChannel::new(
        "server",
        RpcChannelConfig::default(),
        SimClock::new(0),
        Some(admission.clone()),
    );
    let append = || {
        channel
            .call_sized("append", CallKind::NonIdempotent, 4_096, || Ok(()))
            .unwrap()
    };
    // The first call interns the method's record and the tenant's buckets.
    append();
    let before = REQUESTS.with(Cell::get);
    (0..100).for_each(|_| append());
    assert_eq!(REQUESTS.with(Cell::get) - before, 0, "allocator requests");
    assert_eq!(admission.class_stats(WorkClass::Interactive).admitted, 101);
    assert_eq!(channel.metrics().method("append").ok.get(), 101);
}
