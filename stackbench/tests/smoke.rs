//! Small-size runs of every workload: each must pass the correctness gate,
//! repeat its virtual-time outcomes bit for bit for one seed, and, traced,
//! attribute its median request's latency to layers without remainder
//! beyond what the attribution reports.

use std::sync::Mutex;
use std::time::Instant;

use molecule_stackbench::round::{Clock, Scale};
use molecule_stackbench::{gate, run_round, run_traced, WORKLOADS};

/// Telemetry is process-global: a traced round must not overlap another
/// round, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: &str) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let first = run_round(workload, 7, Scale::Smoke, Clock::new(Instant::now()));
    assert_eq!(gate(&first, None), Vec::<String>::new(), "{workload}: gate");
    assert!(first.out.ledger.issued > 0);

    let again = run_round(workload, 7, Scale::Smoke, Clock::new(Instant::now()));
    assert_eq!(gate(&again, Some(&first)), Vec::<String>::new(), "{workload}: determinism");

    let other = run_round(workload, 8, Scale::Smoke, Clock::new(Instant::now()));
    assert_eq!(gate(&other, None), Vec::<String>::new(), "{workload}: gate, second seed");
    assert_ne!(other.digest(), first.digest(), "{workload}: the seed must change the inputs");

    let traced = run_traced(workload, 7, Scale::Smoke);
    assert_eq!(
        gate(&traced.round, Some(&first)),
        Vec::<String>::new(),
        "{workload}: tracing must not perturb virtual time"
    );
    assert!(!traced.forest.is_empty(), "{workload}: the traced round records spans");
    let obs = traced.round.median_obs.as_ref().expect("a median request");
    let path = molecule_stackbench::trace::attribute(&traced.forest, obs);
    assert_eq!(path.attributed() + path.unattributed, obs.total, "{workload}: attribution sums");
    assert!(
        path.unattributed * 10 <= obs.total,
        "{workload}: most of the median's latency is attributed to layers: {path:?}"
    );
}

#[test]
fn rack_zipf_smoke() {
    smoke("rack_zipf");
}

#[test]
fn flood_kill_smoke() {
    smoke("flood_kill");
}

#[test]
fn chain_state_smoke() {
    smoke("chain_state");
}

#[test]
fn dense_offload_smoke() {
    smoke("dense_offload");
}

#[test]
fn every_workload_has_a_smoke_test() {
    assert_eq!(WORKLOADS, ["rack_zipf", "flood_kill", "chain_state", "dense_offload"]);
}
