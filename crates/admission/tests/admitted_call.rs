//! What an admitted, fault-free RPC costs in allocator requests: none.
//! One test in a binary of its own, because it installs the counting
//! allocator of the `vortex-wos` / `vortex-ros` fuzz tests process-wide.

use vortex_admission::{AdmissionConfig, AdmissionController};
use vortex_common::rpc::{CallKind, RpcChannel, RpcChannelConfig, WorkClass};
use vortex_common::truetime::SimClock;

#[path = "../../../tests/support/tally.rs"]
mod tally;

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
    // The first call interns the method's record.
    append();
    let ((), _, requests) = tally::tallied(|| (0..100).for_each(|_| append()));
    assert_eq!(requests, 0, "allocator requests");
    assert_eq!(admission.class_stats(WorkClass::Interactive).admitted, 101);
    assert_eq!(channel.metrics().method("append").ok.get(), 101);
}
