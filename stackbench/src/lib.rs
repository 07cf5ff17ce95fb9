//! End-to-end benchmark of the Molecule stack.
//!
//! Four workloads drive the stack from outside through its public entry
//! points (`RackFront::submit`, `SchedGateway::submit`, `dag::run_chain`,
//! `StateLayer`, `ProxyPool::offload`, `RuncRuntime::cfork`). An untraced
//! run reports end-to-end metrics: host-time numbers (what simulating the
//! stack costs) and virtual-time numbers (how the modelled machine serves
//! its users). A traced run attributes host and virtual time to the
//! layers. See `README.md` beside this crate.

pub mod common;
pub mod host;
pub mod report;
pub mod round;
pub mod sample;
pub mod trace;
pub mod workloads;

use std::time::Instant;

use round::{Clock, Round, Scale};
use telemetry::metrics::MetricsSnapshot;
use trace::SpanForest;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 4] = ["rack_zipf", "flood_kill", "chain_state", "dense_offload"];

/// Runs one round of `workload`.
///
/// # Panics
///
/// On an unknown workload name (callers validate names first).
pub fn run_round(workload: &str, seed: u64, scale: Scale, clock: Clock) -> Round {
    let mut round = match workload {
        "rack_zipf" => workloads::rack_zipf::run(seed, scale, clock),
        "flood_kill" => workloads::flood_kill::run(seed, scale, clock),
        "chain_state" => workloads::chain_state::run(seed, scale, clock),
        "dense_offload" => workloads::dense_offload::run(seed, scale, clock),
        other => panic!("unknown workload {other}"),
    };
    round.finish();
    round
}

/// Checks one round against the correctness gate and, when given, against
/// the run's first round: every virtual-time fact must repeat bit for bit.
/// Returns the violations found.
pub fn gate(round: &Round, first: Option<&Round>) -> Vec<String> {
    let mut errors = round.out.errors.clone();
    if round.max_lag_ns > 0 {
        errors.push(format!(
            "open loop: an arrival was submitted {} ns after its due time",
            round.max_lag_ns
        ));
    }
    if round.out.ledger.completed == 0 {
        errors.push("no request completed".into());
    }
    if let Some(first) = first {
        let (a, b) = (first.fingerprint(), round.fingerprint());
        if a != b {
            errors.push(format!(
                "determinism: this round's virtual-time facts {b:?} differ from the first round's {a:?}"
            ));
        }
    }
    errors
}

/// One round with the telemetry recorder installed.
pub struct Traced {
    /// The round.
    pub round: Round,
    /// Host wall time of the round, seconds.
    pub wall_s: f64,
    /// The spans it recorded.
    pub forest: SpanForest,
    /// The telemetry registry after the round.
    pub snapshot: MetricsSnapshot,
    /// Telemetry records of the round.
    pub records: usize,
}

/// Runs one round of `workload` with a fresh default telemetry recorder
/// installed process-wide, and uninstalls it afterwards.
pub fn run_traced(workload: &str, seed: u64, scale: Scale) -> Traced {
    let recorder = telemetry::install_default();
    let t = Instant::now();
    let round = run_round(workload, seed, scale, Clock::new(t));
    let wall_s = t.elapsed().as_secs_f64();
    telemetry::uninstall();
    Traced {
        round,
        wall_s,
        forest: SpanForest::collect(&recorder),
        snapshot: recorder.metrics().snapshot(),
        records: recorder.events().len(),
    }
}
