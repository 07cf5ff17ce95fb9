//! `dense_offload`: a DPU holding 10k dense-cfork resident sandboxes with
//! the health checker probing, while invokers scaled to that density send
//! 32 KiB of I/O each through `ProxyPool::offload`. Set-up (the resident
//! fleet) takes seconds here, not milliseconds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hetsim::pu::PuKind;
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::gateway::{ApiGateway, GatewayConfig};
use molecule_core::keepalive::Lru;
use molecule_core::proxy::{ProxyPool, ProxyPoolConfig};
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_core::schedule::Scheduler;
use molecule_core::{HealthChecker, HealthPolicy};
use vsandbox::runc::CforkOpts;
use vsandbox::spec::{LangRuntime, SandboxConfig, SandboxId};

use crate::common;
use crate::round::{Clock, Fate, Ledger, Round, Scale};
use crate::sample::Rng;

/// Body each offload carries: above the 16 KiB zero-copy threshold, so it
/// moves as a descriptor.
const BODY: usize = 32 * 1024;
/// Per-sandbox reservation, MiB: 10k of them fit the DPU's memory.
const SANDBOX_MIB: u64 = 1;
/// Latency limit for goodput.
pub const SLO_NS: u64 = 1_000_000;

fn proxy_config() -> ProxyPoolConfig {
    ProxyPoolConfig {
        proxies_per_dpu: 16,
        window: 8,
        device_service: SimDuration::from_micros(5),
        reply_timeout: SimDuration::from_millis(20),
    }
}

/// Runs one round.
pub fn run(seed: u64, scale: Scale, clock: Clock) -> Round {
    let (sandboxes, per_invoker) = match scale {
        Scale::Full => (10_000u32, 300usize),
        Scale::Smoke => (200, 10),
    };
    // Active invokers scale with resident density: ~0.6% of sandboxes are
    // mid-invoke at once.
    let invokers = (sandboxes as usize / 160).clamp(2, 64);
    // Each request's compute phase before its I/O, drawn per request.
    let generating = Instant::now();
    let mut rng = Rng::new(seed, 11);
    let compute: Vec<Vec<u64>> = (0..invokers)
        .map(|_| (0..per_invoker).map(|_| 200_000 + rng.below(200_000)).collect())
        .collect();
    let clock = clock.excluding(generating.elapsed());

    let (mut round, events) = common::simulate("dense-offload", move |ctx| {
        let mut round = Round { slo_ns: SLO_NS, ..Round::default() };
        let machine = Machine::builder().host_cpu().bluefield2_dpus(2).build();
        let molecule = Molecule::launch(machine.clone(), MoleculeConfig::default());
        molecule.bootstrap(ctx).expect("runtime bootstrap");
        let host = machine.host_cpu();
        let dpu = machine.pus_of_kind(PuKind::Dpu)[0];

        // The resident fleet: one template, `sandboxes` dense cfork children.
        let runc = molecule.runc(dpu).expect("the DPU runs runc");
        let template = runc.prepare_template(ctx, LangRuntime::Python, 64).expect("template");
        let cfg = SandboxConfig::general("dense-fn", LangRuntime::Python, SANDBOX_MIB);
        let mut cfork_host = Duration::ZERO;
        for i in 0..sandboxes {
            let id = SandboxId::new(format!("dense-{i}"));
            let t = Instant::now();
            common::in_span(
                ctx,
                || "startup:cfork dense-fn->dpu".into(),
                |c| {
                    runc.cfork(
                        c,
                        &template,
                        &id,
                        &cfg,
                        CforkOpts { dense: true, ..CforkOpts::default() },
                    )
                },
            )
            .expect("dense cfork");
            common::lap(&mut cfork_host, t);
        }
        // `fleet_pss_bytes` sums per-process floats in hash-map order, so
        // its last bits differ between runs; a thousandth of a KiB is far
        // below anything the model resolves.
        let pss_kib = (runc.fleet_pss_bytes() / f64::from(sandboxes) / 1024.0 * 1e3).round() / 1e3;

        let api = ApiGateway::new(
            molecule.clone(),
            Scheduler::default(),
            GatewayConfig::default(),
            Box::new(Lru::new()),
        );
        let health = HealthChecker::new(api, HealthPolicy::default());
        let pool = ProxyPool::deploy(ctx, molecule.cluster(), proxy_config()).expect("proxy pool");
        let stop = Arc::new(AtomicBool::new(false));
        let probing = {
            let stop = Arc::clone(&stop);
            let interval = health.policy().probe_interval;
            ctx.spawn("health-prober", move |hctx| {
                while !stop.load(Ordering::Relaxed) {
                    health.probe_round(hctx);
                    hctx.sleep(interval);
                }
            })
        };

        let shim0 = molecule.cluster().stats();
        round.setup = clock.since_start();
        let timed = Instant::now();
        let start = ctx.now().as_nanos();
        let mut handles = Vec::new();
        for (w, work) in compute.into_iter().enumerate() {
            let pool = pool.clone();
            handles.push(ctx.spawn(&format!("invoker-{w}"), move |wctx| {
                let mut client = pool.client(wctx, host).expect("proxy client");
                let mut out = Vec::with_capacity(work.len());
                for (k, ns) in work.into_iter().enumerate() {
                    let t0 = wctx.now().as_nanos();
                    let res = common::in_span(
                        wctx,
                        || format!("bench:request {w}.{k}"),
                        |c| {
                            common::in_span(
                                c,
                                || "core:exec".into(),
                                |c| c.sleep(SimDuration::from_nanos(ns)),
                            );
                            common::in_span(
                                c,
                                || "core:offload".into(),
                                |c| pool.offload(c, &mut client, Bytes::from(vec![0u8; BODY])),
                            )
                        },
                    );
                    let done = wctx.now().as_nanos();
                    let name = format!("bench:request {w}.{k}");
                    out.push(match res {
                        Ok(reply) => (
                            Fate::Completed(done - t0),
                            done,
                            reply.bytes_done == BODY as u64,
                            name,
                        ),
                        Err(_) => (Fate::Failed, done, true, name),
                    });
                }
                out
            }));
        }
        let mut last = start;
        let mut roots = Vec::new();
        for h in &handles {
            h.join(ctx);
            for (fate, done, bytes_ok, name) in h.take_result().expect("invoker result") {
                if !bytes_ok {
                    round.out.fail("proxy reply reports a short transfer");
                }
                last = last.max(done);
                if let Fate::Completed(ns) = fate {
                    roots.push((ns, name, done));
                }
                round.out.record(fate, SLO_NS, false);
            }
        }
        round.median_obs = common::median_root(roots);
        round.timed = timed.elapsed();
        round.requests = round.out.ledger.completed;
        round.window_ns = last - start;
        stop.store(true, Ordering::Relaxed);
        probing.join(ctx);

        let stats = pool.stats();
        if stats.double_faults != 0 {
            round.out.fail(format!("proxy ledger: {} double faults", stats.double_faults));
        }
        if stats.issued != stats.completed + stats.reclaimed {
            round.out.fail(format!(
                "proxy ledger: issued {} != completed {} + reclaimed {}",
                stats.issued, stats.completed, stats.reclaimed
            ));
        }
        let stack = Ledger {
            issued: stats.issued,
            completed: stats.completed,
            failed: stats.reclaimed,
            ..Ledger::default()
        };
        round.out.check_conservation(&stack);
        common::shim_facts(&mut round, &shim0, &molecule.cluster().stats());
        round.layer.insert("core.proxy_reclaimed", stats.reclaimed as f64);
        round.layer.insert("core.proxy_late_replies", stats.late_replies as f64);
        round.layer.insert("vsandbox.sandbox_pss_kib", pss_kib);
        round
            .host
            .insert("vsandbox.cfork_host_us", common::mean_us(cfork_host, u64::from(sandboxes)));
        pool.shutdown(ctx);
        round
    });
    round.events = events;
    round
}
