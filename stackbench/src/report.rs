//! Metric definitions and assembly: every metric has a name, a unit and a
//! direction, and gates select metrics by name.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use telemetry::metrics::{Histogram, MetricsSnapshot};

use crate::host::Usage;
use crate::round::Round;
use crate::sample;
use crate::trace::{self, Path, SpanForest, LAYERS};
use crate::Traced;

/// One metric's identity.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name gates select by.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better, moves: "" }
}

const fn lay(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Def {
    Def { name, unit, better, moves }
}

/// End-to-end metrics of the untraced run.
pub const END_TO_END: [Def; 7] = [
    def("sim_rps", "req/s", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mib", "MiB", "lower"),
    def("lat_p50_ms", "ms", "lower"),
    def("lat_p99_ms", "ms", "lower"),
    def("goodput_rps", "req/s", "higher"),
    def("served_share", "ratio", "higher"),
];

/// Per-layer metrics of the traced run, each labelled with the end-to-end
/// metric and workload it should move.
pub const PER_LAYER: [Def; 49] = [
    lay("hetsim.events_per_req", "count", "lower", "sim_rps on rack_zipf"),
    lay("hetsim.host_ns_per_event", "ns", "lower", "sim_rps on every workload"),
    lay("hetsim.ctx_switches_per_req", "count", "lower", "sim_rps on rack_zipf"),
    lay("hetsim.sys_share", "ratio", "lower", "sim_rps on rack_zipf"),
    lay("hetsim.yield_ns", "ns", "lower", "sim_rps on rack_zipf; least on dense_offload setup_s"),
    lay(
        "hetsim.host_handoff_ns",
        "ns",
        "lower",
        "nothing: the host's condition, which sim_rps and setup_s are normalized by",
    ),
    lay("xpu-shim.xpucalls_per_req", "count", "lower", "lat_p50_ms on chain_state"),
    lay("xpu-shim.fabric_transfers_per_req", "count", "lower", "lat_p99_ms on rack_zipf"),
    lay("xpu-shim.descriptor_share", "ratio", "higher", "lat_p50_ms on chain_state"),
    lay("xpu-shim.bytes_elided_per_req", "B", "higher", "lat_p50_ms on chain_state"),
    lay("xpu-shim.xcall_retries", "count", "lower", "served_share on flood_kill"),
    lay("xpu-shim.reclaimed_uuids", "count", "higher", "served_share on flood_kill"),
    lay("vsandbox.cfork_p50_ms", "ms", "lower", "lat_p99_ms on rack_zipf"),
    lay("vsandbox.cfork_p99_ms", "ms", "lower", "lat_p99_ms on rack_zipf"),
    lay("vsandbox.cfork_host_us", "us", "lower", "setup_s and peak_rss_mib on dense_offload"),
    lay("vsandbox.sandbox_pss_kib", "KiB", "lower", "the paper's density result on dense_offload"),
    lay("core.cold_start_share", "ratio", "lower", "lat_p99_ms on rack_zipf"),
    lay("core.exec_share", "ratio", "higher", "lat_p50_ms on chain_state"),
    lay("core.executor_calls_per_req", "count", "lower", "lat_p50_ms on chain_state"),
    lay("core.executor_call_retries", "count", "lower", "served_share on flood_kill"),
    lay("core.dag_hop_ms", "ms", "lower", "lat_p50_ms on chain_state"),
    lay("core.failovers", "count", "higher", "served_share and victim p99 on flood_kill"),
    lay("core.health_detect_ms", "ms", "lower", "served_share on flood_kill"),
    lay("core.proxy_reclaimed", "count", "lower", "served_share on dense_offload"),
    lay("core.proxy_late_replies", "count", "lower", "served_share on dense_offload"),
    lay("sched.queue_wait_p99_ms", "ms", "lower", "lat_p99_ms on rack_zipf"),
    lay("sched.shed_share", "ratio", "lower", "served_share and goodput_rps on flood_kill"),
    lay("sched.rejected_share", "ratio", "lower", "served_share on flood_kill"),
    lay("sched.requeued", "count", "higher", "served_share on flood_kill"),
    lay("sched.dpu_share", "ratio", "higher", "goodput_rps on flood_kill"),
    lay("sched.submit_host_us", "us", "lower", "sim_rps on flood_kill"),
    lay("rack.forwarded_share", "ratio", "lower", "lat_p99_ms and sim_rps on rack_zipf"),
    lay("rack.submit_host_us", "us", "lower", "sim_rps on rack_zipf"),
    lay("tenancy.rate_denied_share", "ratio", "lower", "victim p99 on flood_kill"),
    lay("tenancy.antagonist_service_share", "ratio", "lower", "victim p99 on flood_kill"),
    lay("tenancy.victim_p99_ms", "ms", "lower", "the isolation result on flood_kill"),
    lay("state.commits_per_req", "count", "lower", "lat_p50_ms and goodput_rps on chain_state"),
    lay("state.pulls_per_req", "count", "lower", "lat_p50_ms and goodput_rps on chain_state"),
    lay("state.cow_breaks", "count", "lower", "lat_p50_ms on chain_state"),
    lay("state.cas_swap_ratio", "ratio", "higher", "goodput_rps on chain_state"),
    lay("telemetry.trace_overhead", "ratio", "lower", "sim_rps on every workload (traced runs)"),
    lay("telemetry.records_per_req", "count", "lower", "sim_rps on every workload (traced runs)"),
    lay("trace.unattributed_share", "ratio", "lower", "attribution coverage of lat_p50_ms"),
    lay("trace.self_ms.xpu-shim", "ms", "lower", "lat_p50_ms on chain_state"),
    lay("trace.self_ms.vsandbox", "ms", "lower", "lat_p50_ms"),
    lay("trace.self_ms.core", "ms", "lower", "lat_p50_ms on every workload"),
    lay("trace.self_ms.sched", "ms", "lower", "lat_p50_ms on rack_zipf and flood_kill"),
    lay("trace.self_ms.rack", "ms", "lower", "lat_p50_ms on rack_zipf"),
    lay("trace.self_ms.state", "ms", "lower", "lat_p50_ms on chain_state"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// How much slower than the reference this host ran a round's thread
/// hand-offs. Host-time metrics are reported at the reference hand-off
/// cost: on a shared virtual machine the kernel hand-off path the engine
/// lives on swings by half from minute to minute with the neighbours'
/// load, while a plain compute loop does not move.
fn host_speed(r: &Round) -> f64 {
    if r.handoff_ns > 0.0 {
        r.handoff_ns / crate::host::REFERENCE_HANDOFF_NS
    } else {
        1.0
    }
}

/// End-to-end metrics over the rounds of one untraced run: host-time
/// figures are medians over rounds, normalized to the reference hand-off
/// cost; virtual-time figures come from the first round (every round
/// reproduces it exactly).
pub fn end_to_end(rounds: &[Round], peak_rss_mib: f64) -> Values {
    let r = &rounds[0];
    let rps: Vec<f64> = rounds
        .iter()
        .map(|r| r.requests as f64 / r.timed.as_secs_f64().max(1e-9) * host_speed(r))
        .collect();
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64() / host_speed(r)).collect();
    let ledger = r.out.ledger;
    let mut v = Values::new();
    v.insert("sim_rps", sample::median_f64(&rps));
    v.insert("setup_s", sample::median_f64(&setup));
    v.insert("peak_rss_mib", peak_rss_mib);
    v.insert("lat_p50_ms", r.p50_ns() as f64 / 1e6);
    v.insert("lat_p99_ms", r.tail_ns().0 as f64 / 1e6);
    v.insert("goodput_rps", r.out.within_slo as f64 / (r.window_ns as f64 / 1e9).max(1e-9));
    v.insert("served_share", ledger.completed as f64 / ledger.issued.max(1) as f64);
    v
}

/// Inputs to the per-layer assembly beyond the traced round itself.
pub struct TraceInputs<'a> {
    /// The untraced reference round.
    pub plain: &'a Round,
    /// Host wall time of the untraced round.
    pub plain_wall_s: f64,
    /// Resource usage of the untraced round.
    pub plain_usage: Usage,
    /// The traced round.
    pub traced: &'a Traced,
    /// Host ns per process yield.
    pub yield_ns: f64,
}

fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counters.get(name).copied().unwrap_or(0) as f64
}

fn merged(s: &MetricsSnapshot, prefix: &str) -> Histogram {
    let mut h = Histogram::new();
    for (_, hist) in s.histograms.iter().filter(|(n, _)| n.starts_with(prefix)) {
        h.merge(hist);
    }
    h
}

/// Queue waits of served requests: the sched extent (admission to reply)
/// minus the startup and invoke spans that served the request.
pub fn queue_waits(round: &Round, forest: &SpanForest) -> Vec<u64> {
    let mut waits: Vec<u64> = round
        .served
        .iter()
        .filter_map(|(func, admitted, done)| {
            let spans = forest.service(func, *admitted, *done);
            let first = forest.span(*spans.first()?);
            Some(first.start - admitted)
        })
        .collect();
    waits.sort_unstable();
    waits
}

/// Per-layer metrics of one traced run, plus the median request's path.
pub fn per_layer(t: &TraceInputs<'_>) -> (Values, Option<Path>) {
    let r = &t.traced.round;
    let s = &t.traced.snapshot;
    let forest = &t.traced.forest;
    let reqs = r.requests.max(1) as f64;
    let mut v = Values::new();
    for d in PER_LAYER {
        v.insert(d.name, 0.0);
    }
    // Host-time facts come from the untraced round: tracing slows the host.
    for (k, x) in r.layer.iter().chain(t.plain.host.iter()) {
        v.insert(k, *x);
    }
    let u = t.plain_usage;
    v.insert("hetsim.events_per_req", t.plain.events as f64 / t.plain.requests.max(1) as f64);
    v.insert("hetsim.host_ns_per_event", t.plain_wall_s * 1e9 / t.plain.events.max(1) as f64);
    v.insert(
        "hetsim.ctx_switches_per_req",
        (u.voluntary + u.involuntary) as f64 / t.plain.requests.max(1) as f64,
    );
    v.insert("hetsim.sys_share", u.sys_s / (u.user_s + u.sys_s).max(1e-9));
    v.insert("hetsim.yield_ns", t.yield_ns);
    v.insert("hetsim.host_handoff_ns", t.plain.handoff_ns);

    let writes = counter(s, "shim.fifo_writes");
    if writes > 0.0 {
        v.insert("xpu-shim.descriptor_share", counter(s, "shim.descriptor_handoffs") / writes);
    }
    // Exact startup-span durations, not the registry's log2 histogram.
    let mut cfork = forest.durations_where(|n| n.starts_with("startup:cfork"));
    cfork.sort_unstable();
    v.insert("vsandbox.cfork_p50_ms", sample::median(&cfork) as f64 / 1e6);
    if let Some((p99, _)) = sample::tail_quantile(&cfork, 0.99) {
        v.insert("vsandbox.cfork_p99_ms", p99 as f64 / 1e6);
    }

    let e2e: u64 = r.out.latencies.iter().sum();
    let exec: u64 =
        forest.durations_where(|n| n.starts_with("invoke ") || n.ends_with(" exec")).iter().sum();
    v.insert("core.exec_share", exec as f64 / e2e.max(1) as f64);
    v.insert("core.executor_calls_per_req", counter(s, "executor.calls") / reqs);
    v.insert("core.executor_call_retries", counter(s, "executor.call_retries"));
    v.insert("core.dag_hop_ms", merged(s, "dag.hop_ns").mean() / 1e6);
    v.insert("core.health_detect_ms", merged(s, "health.detect_ns").mean() / 1e6);

    let waits = queue_waits(r, forest);
    if let Some((w, _)) = sample::tail_quantile(&waits, 0.99) {
        v.insert("sched.queue_wait_p99_ms", w as f64 / 1e6);
    }
    if let Some((p, _)) = sample::tail_quantile(&r.out.victim_latencies, 0.99) {
        v.insert("tenancy.victim_p99_ms", p as f64 / 1e6);
    }

    v.insert("state.commits_per_req", counter(s, "state.commits") / reqs);
    v.insert("state.pulls_per_req", counter(s, "state.pulls") / reqs);
    v.insert("state.cow_breaks", counter(s, "state.cow_breaks"));
    let attempts = counter(s, "state.cas_attempts");
    if attempts > 0.0 {
        v.insert("state.cas_swap_ratio", counter(s, "state.cas_swaps") / attempts);
    }

    v.insert("telemetry.trace_overhead", t.traced.wall_s / t.plain_wall_s.max(1e-9));
    v.insert("telemetry.records_per_req", t.traced.records as f64 / reqs);

    let path = r.median_obs.as_ref().map(|obs| trace::attribute(forest, obs));
    if let (Some(p), Some(obs)) = (&path, &r.median_obs) {
        v.insert("trace.unattributed_share", p.unattributed as f64 / obs.total.max(1) as f64);
        for layer in LAYERS {
            let key = PER_LAYER
                .iter()
                .find(|d| d.name.strip_prefix("trace.self_ms.") == Some(layer))
                .expect("every layer has a self-time metric")
                .name;
            v.insert(key, p.layers.get(layer).copied().unwrap_or(0) as f64 / 1e6);
        }
    }
    (v, path)
}

/// The attribution table of the median request, for people.
pub fn path_table(workload: &str, obs_total: u64, path: &Path) -> String {
    let mut s = format!(
        "attribution of the median request on {workload}: {:.4} ms end to end\n",
        obs_total as f64 / 1e6
    );
    for layer in LAYERS {
        let ns = path.layers.get(layer).copied().unwrap_or(0);
        let _ =
            writeln!(s, "  {layer:<10} {:>10.4} ms  {:>6.1}%", ns as f64 / 1e6, pct(ns, obs_total));
    }
    let _ = writeln!(
        s,
        "  {:<10} {:>10.4} ms  {:>6.1}%",
        "unattrib.",
        path.unattributed as f64 / 1e6,
        pct(path.unattributed, obs_total)
    );
    s
}

fn pct(ns: u64, total: u64) -> f64 {
    100.0 * ns as f64 / total.max(1) as f64
}

/// Renders `{"name": {"value": v, "unit": u}, ...}` for `defs`.
pub fn metrics_json(defs: &[Def], values: &Values) -> String {
    let body: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(0.0);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, num(v), d.unit)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite JSON number with every digit Rust prints.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
