//! The counting allocator of the allocation tests: every request passes
//! through to the system allocator and is tallied per thread — bytes,
//! requests and the largest single request — so a test can bound what a
//! decode of corrupt bytes reserves, or pin that a path allocates
//! nothing. A test binary includes this one file as a module
//! (`#[path = ".../tests/support/tally.rs"] mod tally;`), which installs
//! the allocator for the whole process.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Tally;

thread_local! {
    /// Bytes and requests so far.
    static REQUESTED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    /// The largest single request since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally is a `Cell` in a
// thread-local without a destructor, so touching it allocates nothing
// and cannot re-enter.
unsafe impl GlobalAlloc for Tally {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|r| {
            let (bytes, requests) = r.get();
            r.set((bytes.saturating_add(layout.size()), requests + 1))
        });
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller's obligations for `alloc` are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static TALLY: Tally = Tally;

/// The largest single allocator request this thread made while `f` ran
/// — what a length taken from corrupt bytes would show up as.
pub fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// Bytes this thread requested from the allocator while `f` ran, and in
/// how many requests (a vector that regrows asks again).
pub fn tallied<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    let after = REQUESTED.with(Cell::get);
    (out, after.0 - before.0, after.1 - before.1)
}
