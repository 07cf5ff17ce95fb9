//! Scheduling benchmark (beyond the paper's figures): load-aware placement
//! vs first-fit under open-loop Poisson load, plus FPGA cold-start batching.
//!
//! Part A sweeps offered load on the paper's CPU+DPU server and reports,
//! per system, the completion/shed/reject accounting and the p50/p99
//! latency. The invariant is conservation — zero lost requests at every
//! load point — and the headline is the highest offered load each system
//! *sustains* (everything completes with p99 under the SLO): the load-aware
//! placer spills onto the DPUs once CPU queueing exceeds the DPU's slower
//! execution, so it sustains strictly more than first-fit, which piles
//! everything on the first capable PU.
//!
//! Part B measures the cold-start batch aggregator on a single-fabric FPGA
//! machine: co-pending misses coalesce into one vectorized flash, cutting
//! fabric reconfigurations versus the one-flash-per-miss baseline.

use hetsim::fpga::{FpgaResources, KernelSpec};
use hetsim::pu::PuKind;
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::function::{ExecModel, FunctionDef};
use molecule_core::gateway::{ApiGateway, GatewayConfig};
use molecule_core::keepalive::Lru;
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_core::schedule::Scheduler;
use molecule_sched::{JobOutcome, SchedConfig, SchedGateway, SubmitOpts};
use vsandbox::spec::{FuncId, LangRuntime};
use workloads::generator::{drive_open_loop, open_loop_arrivals};
use workloads::serverlessbench;

/// Offered loads of the Part A sweep, in requests per second.
pub const RATES: [f64; 5] = [80.0, 160.0, 240.0, 300.0, 400.0];

/// Open-loop duration per load point, in simulated seconds. Long enough
/// that an unstable point (offered load past capacity) visibly diverges
/// instead of hiding its growing backlog in the tail.
pub const SWEEP_SECONDS: f64 = 6.0;

/// Arrival seed: the same seed per load point keeps the sweep paired.
pub const SEED: u64 = 7;

/// p99 service-level objective for calling a load point "sustained".
/// Above the DPU's 87ms execution so offloaded requests can still meet it.
pub const SLO: SimDuration = SimDuration::from_millis(300);

/// One (system, offered load) measurement of the Part A sweep.
#[derive(Debug, Clone)]
pub struct LoadRow {
    /// Which placement policy served the point.
    pub system: &'static str,
    /// Offered load in requests per second.
    pub rate: f64,
    /// Requests offered to `submit`.
    pub issued: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests shed by deadline-aware dropping while queued.
    pub shed: u64,
    /// Requests refused at admission (backpressure).
    pub rejected: u64,
    /// Requests the runtime failed.
    pub failed: u64,
    /// Requests unaccounted for — must be zero, always.
    pub lost: u64,
    /// Median submit-to-completion latency.
    pub p50: SimDuration,
    /// 99th-percentile submit-to-completion latency.
    pub p99: SimDuration,
}

impl LoadRow {
    /// A point is sustained when everything offered completed within SLO.
    pub fn sustained(&self) -> bool {
        self.completed == self.issued && self.p99 <= SLO
    }
}

/// Runs one open-loop load point and returns its accounting.
pub fn run_load_point(system: &'static str, config: SchedConfig, rate: f64) -> LoadRow {
    let n = (rate * SWEEP_SECONDS).round() as usize;
    let (outcomes, stats) = crate::run_sim("fig-sched-load", move |ctx| {
        let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
        molecule.register_function(serverlessbench::image_processing());
        let api = ApiGateway::new(
            molecule,
            Scheduler::default(),
            GatewayConfig::default(),
            Box::new(Lru::new()),
        );
        let gw = SchedGateway::new(api, config);
        gw.api().molecule().bootstrap(ctx).unwrap();
        gw.api().prepare_all_templates(ctx).unwrap();
        gw.start(ctx);
        let arrivals = open_loop_arrivals(rate, n, SEED);
        let mut rxs = Vec::new();
        drive_open_loop(ctx, &arrivals, |ctx, _| {
            rxs.push(gw.submit(ctx, &FuncId::new("sb-image-process"), 2048, SubmitOpts::default()));
        });
        let outcomes: Vec<JobOutcome> =
            rxs.into_iter().filter_map(Result::ok).map(|rx| rx.recv(ctx).unwrap()).collect();
        gw.shutdown();
        (outcomes, gw.stats())
    });
    let mut latencies: Vec<SimDuration> = outcomes
        .iter()
        .filter_map(|o| match o {
            JobOutcome::Completed { latency, .. } => Some(*latency),
            _ => None,
        })
        .collect();
    latencies.sort();
    let accounted = stats.completed + stats.shed + stats.rejected + stats.failed;
    LoadRow {
        system,
        rate,
        issued: stats.submitted,
        completed: stats.completed,
        shed: stats.shed,
        rejected: stats.rejected,
        failed: stats.failed,
        lost: stats.submitted - accounted.min(stats.submitted),
        p50: crate::percentile(&latencies, 0.50),
        p99: crate::percentile(&latencies, 0.99),
    }
}

/// The full Part A sweep: both systems at every rate in [`RATES`].
pub fn load_rows() -> Vec<LoadRow> {
    let mut rows = Vec::new();
    for &rate in &RATES {
        rows.push(run_load_point("first-fit", SchedConfig::baseline_first_fit(), rate));
        rows.push(run_load_point("load-aware", SchedConfig::default(), rate));
    }
    rows
}

/// Highest rate in [`RATES`] the system sustained, if any.
pub fn max_sustained(rows: &[LoadRow], system: &str) -> Option<f64> {
    rows.iter()
        .filter(|r| r.system == system && r.sustained())
        .map(|r| r.rate)
        .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
}

/// One system's Part B cold-start batching measurement.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// `batched` or `per-miss`.
    pub system: &'static str,
    /// Cold starts served.
    pub cold_starts: u64,
    /// Vectorized batches issued (≥ 2 cold starts each).
    pub batches: u64,
    /// FPGA fabric flashes it cost.
    pub flashes: u64,
}

/// Runs a burst of cold starts against one FPGA fabric, with or without
/// the batch aggregator, and counts the flashes.
pub fn run_batch_point(batching: bool) -> BatchRow {
    let config = if batching {
        SchedConfig::default()
    } else {
        SchedConfig { batch_window: SimDuration::ZERO, ..SchedConfig::default() }
    };
    crate::run_sim("fig-sched-batch", move |ctx| {
        // One fabric, so every cold start contends for the same flash slot.
        let machine = Machine::builder().host_cpu().fpgas(1).build();
        let molecule = Molecule::launch(machine, MoleculeConfig::default());
        let mut funcs = Vec::new();
        for i in 0..6 {
            let name = format!("sched-kern{i}");
            molecule.register_function(
                FunctionDef::builder(name.clone(), LangRuntime::OpenCl)
                    .profiles(&[PuKind::Fpga])
                    .fpga(
                        KernelSpec {
                            name: name.clone(),
                            resources: FpgaResources {
                                luts: 5_000,
                                regs: 8_000,
                                brams: 20,
                                dsps: 36,
                            },
                        },
                        ExecModel::Fixed(SimDuration::from_micros(100)),
                    )
                    .build(),
            );
            funcs.push(FuncId::new(name));
        }
        let api = ApiGateway::new(
            molecule,
            Scheduler::default(),
            GatewayConfig::default(),
            Box::new(Lru::new()),
        );
        let gw = SchedGateway::new(api, config);
        let fpga = gw.api().molecule().machine().pus_of_kind(PuKind::Fpga)[0];
        gw.api().molecule().bootstrap(ctx).unwrap();
        gw.api().prepare_all_templates(ctx).unwrap();
        gw.start(ctx);
        let rxs: Vec<_> =
            funcs.iter().map(|f| gw.submit(ctx, f, 4096, SubmitOpts::default()).unwrap()).collect();
        let outcomes: Vec<JobOutcome> = rxs.into_iter().map(|rx| rx.recv(ctx).unwrap()).collect();
        let cold_starts = outcomes
            .iter()
            .filter(|o| matches!(o, JobOutcome::Completed { cold: true, .. }))
            .count() as u64;
        let stats = gw.stats();
        let flashes = gw.fpga_cache(fpga).map_or(0, |c| c.stats().flashes);
        gw.shutdown();
        BatchRow {
            system: if batching { "batched" } else { "per-miss" },
            cold_starts,
            batches: stats.batches,
            flashes,
        }
    })
}

fn fmt_ms(d: SimDuration) -> String {
    format!("{:.2}", d.as_millis_f64())
}

/// Prints both tables and exports `BENCH_sched.json` +
/// `BENCH_sched_batch.json`.
pub fn print() {
    let rows = load_rows();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.system.to_owned(),
                format!("{:.0}", r.rate),
                r.issued.to_string(),
                r.completed.to_string(),
                r.shed.to_string(),
                r.rejected.to_string(),
                r.failed.to_string(),
                r.lost.to_string(),
                fmt_ms(r.p50),
                fmt_ms(r.p99),
                if r.sustained() { "yes" } else { "no" }.to_owned(),
            ]
        })
        .collect();
    crate::export_table(
        "sched",
        "Open-loop Poisson sweep: first-fit vs load-aware placement (p99 SLO 300ms)",
        &[
            "system",
            "load (rps)",
            "issued",
            "completed",
            "shed",
            "rejected",
            "failed",
            "lost",
            "p50 (ms)",
            "p99 (ms)",
            "sustained",
        ],
        &table,
    );
    let ff = max_sustained(&rows, "first-fit").unwrap_or(0.0);
    let la = max_sustained(&rows, "load-aware").unwrap_or(0.0);
    println!("[fig_sched] max sustained load: first-fit {ff:.0} rps, load-aware {la:.0} rps");

    let batch = [run_batch_point(false), run_batch_point(true)];
    let table: Vec<Vec<String>> = batch
        .iter()
        .map(|r| {
            vec![
                r.system.to_owned(),
                r.cold_starts.to_string(),
                r.batches.to_string(),
                r.flashes.to_string(),
            ]
        })
        .collect();
    crate::export_table(
        "sched_batch",
        "FPGA cold-start batching: fabric flashes for a 6-kernel cold burst",
        &["system", "cold starts", "batches", "flashes"],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_aware_sustains_strictly_more_offered_load() {
        let rows = load_rows();
        for r in &rows {
            assert_eq!(r.lost, 0, "requests lost at {} rps on {}: {r:?}", r.rate, r.system);
        }
        let ff = max_sustained(&rows, "first-fit").expect("first-fit sustains the lowest rate");
        let la = max_sustained(&rows, "load-aware").expect("load-aware sustains the lowest rate");
        assert!(la > ff, "load-aware must out-sustain first-fit: {la} vs {ff}");
    }

    #[test]
    fn batching_cuts_fpga_flashes() {
        let unbatched = run_batch_point(false);
        let batched = run_batch_point(true);
        assert_eq!(unbatched.cold_starts, 6);
        assert_eq!(batched.cold_starts, 6);
        assert!(batched.batches >= 1, "{batched:?}");
        assert!(
            batched.flashes < unbatched.flashes,
            "batching must reduce flashes: {} vs {}",
            batched.flashes,
            unbatched.flashes
        );
    }
}
