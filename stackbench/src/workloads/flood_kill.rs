//! `flood_kill`: overload and PU death on one paper CPU+DPU server through
//! `SchedGateway::submit`. Three latency-class victim tenants send at a
//! steady rate while one batch antagonist sends at about three times the
//! drain capacity; a seeded `FaultPlan` kills one DPU a third of the way
//! into the run and revives it at two thirds, with the health checker
//! probing throughout.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetsim::pu::PuKind;
use hetsim::time::SimTime;
use hetsim::topology::Machine;
use molecule_chaos::{FaultAction, FaultPlan};
use molecule_core::gateway::{ApiGateway, GatewayConfig};
use molecule_core::keepalive::Lru;
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_core::schedule::Scheduler;
use molecule_core::{HealthChecker, HealthPolicy};
use molecule_sched::{
    RateLimit, SchedConfig, SchedGateway, SubmitOpts, TenantId, TenantRegistry, TenantSpec,
};
use vsandbox::spec::FuncId;
use workloads::tenant_mix;

use crate::common::{self, Issued};
use crate::round::{Clock, Round, Scale};
use crate::sample::{poisson_arrivals, Rng};

/// The antagonist tenant.
const ANTAGONIST: u32 = 1;
/// The latency-class victim tenants.
const VICTIMS: [u32; 3] = [2, 3, 4];
/// Each victim's offered load, requests per virtual second.
const VICTIM_RPS: f64 = 40.0;
/// What the server drains of the antagonist's 12 ms bulk function.
const DRAIN_RPS: f64 = 800.0;
/// The antagonist's offered load: about three times the drain capacity.
const FLOOD_RPS: f64 = 3.0 * DRAIN_RPS;
/// The antagonist's admission rate limit: the drain capacity, so the
/// admitted flood fills the CPU and spills onto the DPUs.
const ANTAGONIST_LIMIT_RPS: f64 = DRAIN_RPS;
/// Dead time between one stream's arrivals (the gateway's submit takes
/// no virtual time, so this only keeps the streams Poisson-like).
const MIN_GAP_NS: u64 = 10_000;
/// Request body, bytes.
const INPUT: u64 = 2048;
/// Latency limit for goodput: the victims' declared SLO.
pub const SLO_NS: u64 = (tenant_mix::VICTIM_SLO_MS * 1e6) as u64;

/// `(due ns, tenant)` of every request, time-sorted.
fn arrivals(seed: u64, seconds: f64) -> Vec<(u64, u32)> {
    let mut all = Vec::new();
    for t in VICTIMS.into_iter().chain([ANTAGONIST]) {
        let rate = if t == ANTAGONIST { FLOOD_RPS } else { VICTIM_RPS };
        let mut rng = Rng::new(seed, 100 + u64::from(t));
        let n = (rate * seconds).round() as usize;
        all.extend(poisson_arrivals(&mut rng, rate, n, MIN_GAP_NS).into_iter().map(|at| (at, t)));
    }
    all.sort_unstable();
    all
}

/// Runs one round.
pub fn run(seed: u64, scale: Scale, clock: Clock) -> Round {
    let seconds = match scale {
        Scale::Full => 12.0,
        Scale::Smoke => 0.3,
    };
    let generating = Instant::now();
    let requests = arrivals(seed, seconds);
    let clock = clock.excluding(generating.elapsed());
    let span_ns = requests.last().map_or(0, |r| r.0);
    let (mut round, events) = common::simulate("flood-kill", move |ctx| {
        let mut round = Round { slo_ns: SLO_NS, ..Round::default() };
        let machine = Machine::paper_cpu_dpu_server();
        let molecule = Molecule::launch(machine.clone(), MoleculeConfig::default());
        let mut funcs: Vec<(u32, FuncId)> = Vec::new();
        let mut execs: Vec<(String, bool, u64)> = Vec::new();
        for t in VICTIMS.into_iter().chain([ANTAGONIST]) {
            let def = if t == ANTAGONIST {
                tenant_mix::antagonist_fn(t)
            } else {
                tenant_mix::victim_fn(t)
            };
            funcs.push((t, def.id.clone()));
            execs.push((def.id.to_string(), t == ANTAGONIST, def.exec.host_time(INPUT).as_nanos()));
            molecule.register_function(def);
        }
        let func_of = |t: u32| {
            funcs.iter().find(|(x, _)| *x == t).map(|(_, f)| f.clone()).expect("tenant fn")
        };

        let tenants = Arc::new(TenantRegistry::new());
        for t in VICTIMS {
            tenants.set(TenantId(t), TenantSpec { weight: 1, rate_limit: None });
        }
        tenants.set(
            TenantId(ANTAGONIST),
            TenantSpec {
                weight: 1,
                rate_limit: Some(RateLimit { rps: ANTAGONIST_LIMIT_RPS, burst: 20.0 }),
            },
        );
        let config =
            SchedConfig { tenants, cpu_tokens: 8, dpu_tokens: 4, ..SchedConfig::default() };
        let api = ApiGateway::new(
            molecule,
            Scheduler::default(),
            GatewayConfig::default(),
            Box::new(Lru::new()),
        );
        let gw = SchedGateway::new(api, config);
        gw.api().molecule().bootstrap(ctx).expect("runtime bootstrap");
        gw.api().prepare_all_templates(ctx).expect("templates");
        gw.start(ctx);
        let health = HealthChecker::new(gw.api().clone(), HealthPolicy::default());
        gw.attach_health(&health);

        // The seeded fault plan: one DPU dies at a third of the run and
        // comes back at two thirds.
        let base = ctx.now().as_nanos();
        let dpus = machine.pus_of_kind(PuKind::Dpu);
        let victim_dpu = dpus[Rng::new(seed, 200).below(dpus.len() as u64) as usize];
        let plan = FaultPlan::new(seed)
            .with(SimTime::from_nanos(base + span_ns / 3), FaultAction::KillPu(victim_dpu))
            .with(SimTime::from_nanos(base + 2 * span_ns / 3), FaultAction::RevivePu(victim_dpu));
        molecule_chaos::install(&machine, &plan);
        let chaos_machine = machine.clone();
        ctx.spawn("chaos-injector", move |cctx| {
            for ev in plan.events() {
                common::sleep_until(cctx, ev.at.as_nanos());
                molecule_chaos::apply(&chaos_machine, cctx.now(), &ev.action);
            }
        });
        let stop = Arc::new(AtomicBool::new(false));
        let probing = {
            let stop = Arc::clone(&stop);
            let interval = health.policy().probe_interval;
            let health = health.clone();
            ctx.spawn("health-prober", move |hctx| {
                while !stop.load(Ordering::Relaxed) {
                    health.probe_round(hctx);
                    hctx.sleep(interval);
                }
            })
        };

        let sched0 = gw.stats();
        let core0 = gw.api().stats();
        let shim0 = gw.api().molecule().cluster().stats();
        round.setup = clock.since_start();
        let timed = Instant::now();
        let mut submit_host = Duration::ZERO;
        let mut issued = Vec::with_capacity(requests.len());
        for &(due, t) in &requests {
            let due = base + due;
            common::sleep_until(ctx, due);
            let submit_at = ctx.now().as_nanos();
            let func = func_of(t);
            let opts = SubmitOpts { tenant: TenantId(t), ..SubmitOpts::default() };
            let h = Instant::now();
            let reply = gw.submit(ctx, &func, INPUT, opts);
            common::lap(&mut submit_host, h);
            issued.push(Issued {
                due,
                submit_at,
                admitted_at: ctx.now().as_nanos(),
                func: func.to_string(),
                reply,
                victim: t != ANTAGONIST,
                front: None,
            });
        }
        let drained = common::drain(ctx, &machine, issued, SLO_NS, &mut round);
        round.timed = timed.elapsed();
        round.requests = round.out.ledger.completed;
        stop.store(true, Ordering::Relaxed);
        probing.join(ctx);

        let sched1 = gw.stats();
        round.out.check_conservation(&common::stack_ledger(&sched1));
        common::shim_facts(&mut round, &shim0, &gw.api().molecule().cluster().stats());
        common::gateway_facts(&mut round, (&sched0, &sched1), (&core0, &gw.api().stats()));
        // Share of delivered service time the antagonist received, from
        // the functions' declared handler times.
        let (mut victim_ns, mut antagonist_ns) = (0u64, 0u64);
        for (func, _, _) in &drained.served {
            let (_, is_antagonist, ns) =
                execs.iter().find(|(f, _, _)| f == func).expect("known function");
            if *is_antagonist {
                antagonist_ns += ns;
            } else {
                victim_ns += ns;
            }
        }
        round.layer.insert(
            "tenancy.antagonist_service_share",
            antagonist_ns as f64 / (victim_ns + antagonist_ns).max(1) as f64,
        );
        round.layer.insert(
            "sched.dpu_share",
            drained.dpu_completions as f64 / round.out.ledger.completed.max(1) as f64,
        );
        round
            .host
            .insert("sched.submit_host_us", common::mean_us(submit_host, requests.len() as u64));
        round.served = drained.served;
        gw.shutdown();
        round
    });
    round.events = events;
    round
}
