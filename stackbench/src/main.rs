//! Command line of the stack benchmark.
//!
//! ```text
//! stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs rounds of the workload until `--seconds` of host time have passed
//! (at least one round; the traced run at least one untraced and one
//! traced round), checks every round against the correctness gate and the
//! first round's virtual-time fingerprint, and prints one JSON object as
//! the last line of standard output. Exits 1 on a gate violation and 2 on
//! bad arguments. Meant to be started pinned to one core (`run.py` does).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use molecule_stackbench::report::{self, END_TO_END, PER_LAYER};
use molecule_stackbench::round::{Clock, Round, Scale};
use molecule_stackbench::{gate, host, run_round, run_traced, Traced, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(bad)?,
            "--seconds" => a.seconds = val.parse().map_err(bad)?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", a.workload));
    }
    Ok(a)
}

fn env(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

/// One round, bracketed by hand-off probes; returns it with its wall time
/// and resource usage, both taken around the round alone, not the probes.
fn timed_round(a: &Args, start: Instant) -> (Round, f64, host::Usage) {
    let probing = Instant::now();
    let before = host::handoff_ns(HANDOFF_TRIPS);
    let clock = Clock::new(start).excluding(probing.elapsed());
    let u0 = host::usage();
    let t = Instant::now();
    let mut r = run_round(&a.workload, a.seed, Scale::Full, clock);
    let wall = t.elapsed().as_secs_f64();
    let usage = host::usage().since(u0);
    r.handoff_ns = (before + host::handoff_ns(HANDOFF_TRIPS)) / 2.0;
    (r, wall, usage)
}

/// Round trips of each hand-off probe (about 50 ms).
const HANDOFF_TRIPS: u32 = 10_000;

fn main() -> ExitCode {
    let process_start = Instant::now();
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(a.seconds);
    eprintln!(
        "stackbench: pinned to core {} (one simulated process runs at a time; unpinned, \
         thread wake-ups migrate across cores and cost ~2.3x in sim_rps)",
        env("STACKBENCH_PINNED_CORE")
    );
    let mut rounds: Vec<Round> = Vec::new();
    let mut errors = Vec::new();
    let mut traced: Option<Traced> = None;
    // Wall time and resource usage of the first (untraced) round.
    let mut first_cost = (0.0, host::Usage::default());
    let mut peak_rss_mib = 0.0;
    loop {
        let start = if rounds.is_empty() { process_start } else { Instant::now() };
        let (r, wall, u) = timed_round(&a, start);
        errors.extend(gate(&r, rounds.first()));
        if rounds.is_empty() {
            // Read after the first round only: later rounds reuse the
            // allocator's pages, so the process peak is set-up plus one round.
            peak_rss_mib = host::peak_rss_mib();
            first_cost = (wall, u);
        }
        rounds.push(r);
        if !errors.is_empty() {
            break;
        }
        if a.trace && traced.is_none() {
            let t = run_traced(&a.workload, a.seed, Scale::Full);
            errors.extend(gate(&t.round, rounds.first()));
            traced = Some(t);
            if !errors.is_empty() {
                break;
            }
        }
        if process_start.elapsed() >= budget {
            break;
        }
    }

    let first = &rounds[0];
    let (tail, q) = first.tail_ns();
    let meta = format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"git_sha\": \"{}\", \
         \"tree_digest\": \"{}\", \"profile\": \"{}\", \"nproc\": \"{}\", \"pinned_core\": \"{}\", \
         \"rounds\": {}, \"digest\": \"{:016x}\", \"samples\": {}, \"tail_quantile\": {}, \
         \"tail_samples_beyond\": {}, \"max_lag_ns\": {}}}}}",
        a.workload,
        a.seed,
        a.trace,
        env("STACKBENCH_GIT_SHA"),
        env("STACKBENCH_TREE_DIGEST"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        env("STACKBENCH_NPROC"),
        env("STACKBENCH_PINNED_CORE"),
        rounds.len(),
        first.digest(),
        first.out.latencies.len(),
        report::num(q),
        first.out.latencies.iter().filter(|&&x| x > tail).count(),
        first.max_lag_ns,
    );
    println!("{meta}");

    let per_round: Vec<String> = rounds
        .iter()
        .map(|r| {
            format!(
                "{:.0}@{:.0}ns",
                r.requests as f64 / r.timed.as_secs_f64().max(1e-9),
                r.handoff_ns
            )
        })
        .collect();
    eprintln!(
        "stackbench: wall-clock req/s at the probed hand-off cost, per round: {}",
        per_round.join(" ")
    );
    let ledger = first.out.ledger;
    eprintln!(
        "stackbench: {} issued, {} completed, {} shed, {} rejected, {} rate-denied, {} failed, \
         {} lost; fail_share {:.4}",
        ledger.issued,
        ledger.completed,
        ledger.shed,
        ledger.rejected,
        ledger.rate_denied,
        ledger.failed,
        ledger.lost(),
        ledger.fail_share()
    );
    let attempted: u64 = rounds.iter().map(|r| r.out.ledger.issued).sum();
    let failed: u64 = rounds.iter().map(|r| r.out.ledger.failed + r.out.ledger.lost()).sum();
    let metrics = if let Some(t) = &traced {
        let inputs = report::TraceInputs {
            plain: first,
            plain_wall_s: first_cost.0,
            plain_usage: first_cost.1,
            traced: t,
            yield_ns: host::yield_ns(20_000),
        };
        let (values, path) = report::per_layer(&inputs);
        if let (Some(p), Some(obs)) = (path, &t.round.median_obs) {
            eprint!("{}", report::path_table(&a.workload, obs.total, &p));
        }
        for d in PER_LAYER {
            eprintln!(
                "  {:<34} {:>14} {:<6} ({} is better; should move {})",
                d.name,
                report::num(values[d.name]),
                d.unit,
                d.better,
                d.moves
            );
        }
        report::metrics_json(&PER_LAYER, &values)
    } else {
        let values = report::end_to_end(&rounds, peak_rss_mib);
        for d in END_TO_END {
            eprintln!(
                "  {:<14} {:>14} {:<6} ({} is better)",
                d.name,
                report::num(values[d.name]),
                d.unit,
                d.better
            );
        }
        eprintln!(
            "  {:<14} {:>14} {:<6} (lower is better)",
            "fail_share",
            report::num(ledger.fail_share()),
            "ratio"
        );
        report::metrics_json(&END_TO_END, &values)
    };
    for e in &errors {
        eprintln!("stackbench: GATE FAILED: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        errors.is_empty()
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
