//! Pieces the workloads share: the open-loop load generator over a submit
//! entry point, reading the stack's public `stats()` counters, and running one
//! simulation to completion.

use std::time::{Duration, Instant};

use hetsim::engine::{ProcCtx, SimReceiver, Simulation};
use hetsim::pu::PuKind;
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::GatewayStats;
use molecule_sched::{JobOutcome, Overloaded, SchedGateway, SchedStats, SubmitError};
use xpu_shim::cluster::ShimStats;

use crate::round::{Fate, Ledger, Round};
use crate::trace::Observed;

/// Runs `body` as the only top-level process of a fresh simulation and
/// returns its result with the number of engine events fired.
pub fn simulate<T, F>(name: &str, body: F) -> (T, u64)
where
    T: Send + 'static,
    F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
{
    let mut sim = Simulation::new();
    let h = sim.spawn(name, body);
    let report = sim.run().unwrap_or_else(|e| panic!("simulation {name} failed: {e}"));
    let out = h.take_result().unwrap_or_else(|| panic!("process {name} returned no result"));
    (out, report.events_fired)
}

/// Sum of the per-gateway sched counters.
pub fn sched_stats(gateways: &[SchedGateway]) -> SchedStats {
    let mut t = SchedStats::default();
    for gw in gateways {
        let s = gw.stats();
        t.submitted += s.submitted;
        t.completed += s.completed;
        t.shed += s.shed;
        t.rejected += s.rejected;
        t.failed += s.failed;
        t.requeued += s.requeued;
        t.rate_denied += s.rate_denied;
    }
    t
}

/// Sum of the per-gateway core gateway counters.
pub fn gateway_stats(gateways: &[SchedGateway]) -> GatewayStats {
    let mut t = GatewayStats::default();
    for gw in gateways {
        let s = gw.api().stats();
        t.warm_hits += s.warm_hits;
        t.cold_starts += s.cold_starts;
        t.reaped += s.reaped;
        t.failed_over += s.failed_over;
        t.degraded += s.degraded;
    }
    t
}

/// The sched ledger in the benchmark's terms (`rejected` there includes
/// rate denials; here they are separate).
pub fn stack_ledger(s: &SchedStats) -> Ledger {
    Ledger {
        issued: s.submitted,
        completed: s.completed,
        shed: s.shed,
        rejected: s.rejected - s.rate_denied,
        rate_denied: s.rate_denied,
        failed: s.failed,
    }
}

/// Shim counter deltas as per-layer facts, per top-level request.
pub fn shim_facts(round: &mut Round, before: &ShimStats, after: &ShimStats) {
    let per = |v: u64| v as f64 / round.requests.max(1) as f64;
    let f = &mut round.layer;
    f.insert("xpu-shim.xpucalls_per_req", per(after.xpucalls - before.xpucalls));
    f.insert(
        "xpu-shim.fabric_transfers_per_req",
        per(after.fabric_transfers - before.fabric_transfers),
    );
    f.insert("xpu-shim.bytes_elided_per_req", per(after.bytes_elided - before.bytes_elided));
    f.insert("xpu-shim.xcall_retries", (after.xcall_retries - before.xcall_retries) as f64);
    f.insert("xpu-shim.reclaimed_uuids", (after.reclaimed_uuids - before.reclaimed_uuids) as f64);
}

/// Sched and core gateway counter deltas as per-layer facts.
pub fn gateway_facts(
    round: &mut Round,
    sched: (&SchedStats, &SchedStats),
    core: (&GatewayStats, &GatewayStats),
) {
    let issued = (sched.1.submitted - sched.0.submitted).max(1) as f64;
    let served =
        (core.1.cold_starts + core.1.warm_hits - core.0.cold_starts - core.0.warm_hits).max(1);
    let f = &mut round.layer;
    f.insert("sched.shed_share", (sched.1.shed - sched.0.shed) as f64 / issued);
    f.insert(
        "sched.rejected_share",
        ((sched.1.rejected - sched.1.rate_denied) - (sched.0.rejected - sched.0.rate_denied))
            as f64
            / issued,
    );
    f.insert("sched.requeued", (sched.1.requeued - sched.0.requeued) as f64);
    f.insert(
        "tenancy.rate_denied_share",
        (sched.1.rate_denied - sched.0.rate_denied) as f64 / issued,
    );
    f.insert(
        "core.cold_start_share",
        (core.1.cold_starts - core.0.cold_starts) as f64 / served as f64,
    );
    f.insert("core.failovers", (core.1.failed_over - core.0.failed_over) as f64);
}

/// One open-loop request as the load generator issued it.
pub struct Issued {
    /// Due instant, virtual ns.
    pub due: u64,
    /// When the submit call started, virtual ns.
    pub submit_at: u64,
    /// When the submit call returned (the gateway's admission instant).
    pub admitted_at: u64,
    /// The function.
    pub func: String,
    /// The reply, or the admission error.
    pub reply: Result<SimReceiver<JobOutcome>, SubmitError>,
    /// Whether the request belongs to a latency-class tenant.
    pub victim: bool,
    /// Extra layer the submit call's virtual time belongs to (the rack
    /// front's fabric probe), if any.
    pub front: Option<&'static str>,
}

/// Completion facts of one open-loop round.
pub struct Drained {
    /// Completions served on DPUs.
    pub dpu_completions: u64,
    /// Every served request as `(function, sched admission ns, completion ns)`.
    pub served: Vec<(String, u64, u64)>,
}

/// Waits for every reply; records each fate, the virtual window and the
/// median request's observed path in the round; returns what was served.
pub fn drain(
    ctx: &mut ProcCtx,
    machine: &Machine,
    issued: Vec<Issued>,
    slo_ns: u64,
    round: &mut Round,
) -> Drained {
    let first_due = issued.first().map_or(0, |r| r.due);
    let mut last_done = first_due;
    let mut dpu_completions = 0;
    let mut served = Vec::new();
    let mut completed: Vec<(u64, usize)> = Vec::new();
    let mut paths: Vec<Option<Observed>> = Vec::with_capacity(issued.len());
    for (i, req) in issued.into_iter().enumerate() {
        let mut path = None;
        let lag = req.submit_at - req.due;
        round.max_lag_ns = round.max_lag_ns.max(lag);
        let fate = match req.reply {
            Err(SubmitError::Overloaded(Overloaded::RateLimited { .. })) => Fate::RateDenied,
            Err(SubmitError::Overloaded(_)) => Fate::Rejected,
            Err(SubmitError::Runtime(_)) => Fate::Failed,
            Ok(rx) => match rx.recv(ctx) {
                Ok(JobOutcome::Completed { latency, pu, cold }) => {
                    let done = req.admitted_at + latency.as_nanos();
                    last_done = last_done.max(done);
                    if machine.pu(pu).is_some_and(|p| p.kind == PuKind::Dpu) {
                        dpu_completions += 1;
                    }
                    round.out.digest_word(u64::from(pu.0) << 1 | u64::from(cold));
                    served.push((req.func.clone(), req.admitted_at, done));
                    let total = done - req.due;
                    completed.push((total, i));
                    let mut outside = Vec::new();
                    if let Some(layer) = req.front {
                        outside.push((layer, req.admitted_at - req.submit_at));
                    }
                    path = Some(Observed {
                        total,
                        outside,
                        enclosing: Some(("sched", req.admitted_at, done)),
                        served_by: Some(req.func.clone()),
                        root: None,
                    });
                    Fate::Completed(total)
                }
                Ok(JobOutcome::Shed { .. }) => Fate::Shed,
                Ok(JobOutcome::Failed(_)) | Err(_) => Fate::Failed,
            },
        };
        round.out.record(fate, slo_ns, req.victim);
        paths.push(path);
    }
    round.window_ns = last_done - first_due;
    completed.sort_unstable();
    if !completed.is_empty() {
        let (_, i) = completed[completed.len().div_ceil(2) - 1];
        round.median_obs = paths.get_mut(i).and_then(Option::take);
    }
    Drained { dpu_completions, served }
}

/// Sleeps the calling process until `due` (virtual ns) if that is ahead.
pub fn sleep_until(ctx: &mut ProcCtx, due: u64) {
    let now = ctx.now().as_nanos();
    if due > now {
        ctx.sleep(SimDuration::from_nanos(due - now));
    }
}

/// Mean host microseconds per call.
pub fn mean_us(total: Duration, calls: u64) -> f64 {
    total.as_secs_f64() * 1e6 / calls.max(1) as f64
}

/// Host time since `t`, added to `acc`.
pub fn lap(acc: &mut Duration, t: Instant) {
    *acc += t.elapsed();
}

/// Runs `f` inside a span the benchmark records around one of its calls
/// (a child of the ambient trace context, which `f` sees as its own).
/// Free when telemetry is off.
pub fn in_span<T>(
    ctx: &mut ProcCtx,
    name: impl FnOnce() -> String,
    f: impl FnOnce(&mut ProcCtx) -> T,
) -> T {
    if !telemetry::enabled() {
        return f(ctx);
    }
    let prev = ctx.trace_ctx();
    let mut span = None;
    telemetry::with(|r| span = Some(r.begin_span(ctx.lane(), ctx.now().as_nanos(), &name(), prev)));
    ctx.set_trace_ctx(span);
    let out = f(ctx);
    if let Some(s) = span {
        telemetry::with(|r| r.end_span(ctx.lane(), ctx.now().as_nanos(), s));
    }
    ctx.set_trace_ctx(prev);
    out
}

/// The median of closed-loop requests given as `(latency, root span name,
/// end ns)`, as an observed path rooted at the benchmark's request span.
pub fn median_root(mut reqs: Vec<(u64, String, u64)>) -> Option<Observed> {
    if reqs.is_empty() {
        return None;
    }
    reqs.sort();
    let (total, name, end) = reqs.swap_remove(reqs.len().div_ceil(2) - 1);
    Some(Observed {
        total,
        outside: Vec::new(),
        enclosing: None,
        served_by: None,
        root: Some((name, end)),
    })
}
