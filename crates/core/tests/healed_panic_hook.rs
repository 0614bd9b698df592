//! An injected session panic that `Session::with_healing` catches and heals
//! must not reach the process's panic hook: a healed, expected panic should
//! not print "thread ... panicked at" (and a backtrace under
//! `RUST_BACKTRACE=1`) as if the process had crashed. The hook is
//! process-global, so this check has a test binary of its own.

use pm_core::report::HeuristicKind;
use pm_core::session::Session;
use pm_platform::instances::figure1_instance;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn a_healed_injected_panic_skips_the_panic_hook() {
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&calls);
    std::panic::set_hook(Box::new(move |_| {
        counted.fetch_add(1, Ordering::SeqCst);
    }));

    let mut session = Session::new(figure1_instance());
    session.arm_panic(1);
    let solved = session.solve(HeuristicKind::Broadcast);
    let hook_calls = calls.load(Ordering::SeqCst);
    // Restore the default hook before asserting, so a failure reports
    // normally.
    drop(std::panic::take_hook());

    assert!(solved.is_ok(), "the healed solve failed: {solved:?}");
    assert_eq!(session.stats().panics_healed, 1);
    assert_eq!(hook_calls, 0, "a healed panic went through the panic hook");
}
