//! Dropping a simulation tears its processes down quietly and exactly once.
//!
//! Blocked and sleeping processes are unwound from where they wait, so the
//! destructors on their stacks run once; processes that never started are
//! dropped without running. None of it may reach the panic hook: teardown
//! is not a panic, and must print nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hetsim::engine::{SimError, Simulation};
use hetsim::time::SimDuration;

/// Counts its drops.
struct Guard(Arc<AtomicUsize>);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn dropping_a_simulation_unwinds_each_process_once_without_the_panic_hook() {
    static HOOK_RUNS: AtomicUsize = AtomicUsize::new(0);
    std::panic::set_hook(Box::new(|_| {
        HOOK_RUNS.fetch_add(1, Ordering::SeqCst);
    }));

    let blocked = Arc::new(AtomicUsize::new(0));
    let sleeping = Arc::new(AtomicUsize::new(0));
    let unstarted = Arc::new(AtomicUsize::new(0));

    let mut sim = Simulation::new();
    // Two events: each process's start. The run stops there, with one
    // process parked on a receive, one asleep and one never started.
    sim.set_event_limit(2);
    let (tx, rx) = sim.channel::<u8>();
    let guard = Guard(Arc::clone(&blocked));
    sim.spawn("blocked", move |ctx| {
        let _guard = guard;
        let _ = rx.recv(ctx);
    });
    let guard = Guard(Arc::clone(&sleeping));
    let late_guard = Guard(Arc::clone(&unstarted));
    sim.spawn("sleeping", move |ctx| {
        let _guard = guard;
        ctx.spawn("unstarted", move |_ctx| {
            let _guard = late_guard;
        });
        ctx.sleep(SimDuration::from_millis(1_000));
    });
    assert_eq!(sim.run(), Err(SimError::EventLimitExceeded { limit: 2 }));
    for count in [&blocked, &sleeping, &unstarted] {
        assert_eq!(count.load(Ordering::SeqCst), 0, "a guard dropped before teardown");
    }

    drop(sim);
    drop(tx);
    let _ = std::panic::take_hook();

    assert_eq!(HOOK_RUNS.load(Ordering::SeqCst), 0, "teardown ran the panic hook");
    for (name, count) in [("blocked", &blocked), ("sleeping", &sleeping), ("unstarted", &unstarted)]
    {
        assert_eq!(count.load(Ordering::SeqCst), 1, "{name} process's guard drop count");
    }
}
