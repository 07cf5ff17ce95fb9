//! `rack_zipf`: the steady serving path. An open loop of Poisson arrivals
//! at a fixed rate below capacity enters a 4-node rack through
//! `RackFront::submit`; a few hundred Python and Node.js functions are
//! picked with Zipf popularity, and the keep-alive capacity is smaller
//! than the population, so the tail keeps cold-starting through cfork.

use std::time::{Duration, Instant};

use hetsim::pu::PuKind;
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::function::{ExecModel, FunctionDef};
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_rack::{RackConfig, RackFront};
use molecule_sched::SubmitOpts;
use vsandbox::spec::{FuncId, LangRuntime};

use crate::common::{self, Issued};
use crate::round::{Clock, Round, Scale};
use crate::sample::{poisson_arrivals, Rng, Zipf};

/// Rack nodes (each a host CPU plus one DPU).
const NODES: usize = 4;
/// Offered load, requests per virtual second: 53% of the rate at which
/// admission first refuses a request of this configuration (1300 to 1700
/// req/s over seeds 101 to 105, median 1500). Above this load the queueing
/// tail beyond the cold-start plateau nears 1% of requests on some seeds,
/// and p99 then jumps from seed to seed between the two (README.md).
const RATE: f64 = 800.0;
/// Zipf exponent of function popularity.
const ZIPF_S: f64 = 0.9;
/// Dead time after each arrival: longer than the rack front's fabric
/// probe, so the single load generator never falls behind its schedule.
const MIN_GAP_NS: u64 = 100_000;
/// How often the keep-alive reaper trims idle instances, virtual.
const REAP_EVERY: SimDuration = SimDuration::from_millis(100);
/// Handler cost per request-body byte, ns.
const NS_PER_BYTE: f64 = 40.0;
/// Latency limit for goodput.
pub const SLO_NS: u64 = 20_000_000;

struct Inputs {
    funcs: Vec<FunctionDef>,
    /// `(due ns, function index, input bytes)` per request.
    requests: Vec<(u64, usize, u64)>,
}

fn inputs(seed: u64, scale: Scale) -> Inputs {
    let (nfuncs, n) = match scale {
        Scale::Full => (300, 40_000),
        Scale::Smoke => (24, 400),
    };
    let mut rng = Rng::new(seed, 1);
    let funcs: Vec<FunctionDef> = (0..nfuncs)
        .map(|i| {
            let (lang, tag) = if rng.below(2) == 0 {
                (LangRuntime::Python, "py")
            } else {
                (LangRuntime::NodeJs, "node")
            };
            // Handler time grows with the request body, so latencies are
            // spread rather than stacked on a few popular functions' values.
            let exec = ExecModel::PerByte {
                base: SimDuration::from_micros_f64(rng.range_f64(700.0, 900.0)),
                ns_per_byte: NS_PER_BYTE,
            };
            FunctionDef::builder(format!("zipf-{tag}-{i}"), lang)
                .profiles(&[PuKind::Cpu, PuKind::Dpu])
                .memory_mib(128)
                .exec(exec)
                .init_ms(rng.range_f64(40.0, 160.0))
                .cfork_first_run_ms(rng.range_f64(0.5, 1.5))
                .build()
        })
        .collect();
    let zipf = Zipf::new(nfuncs, ZIPF_S);
    let mut arr = Rng::new(seed, 2);
    let mut pick = Rng::new(seed, 3);
    let requests = poisson_arrivals(&mut arr, RATE, n, MIN_GAP_NS)
        .into_iter()
        .map(|due| (due, zipf.sample(&mut pick), 1024 + pick.below(15 * 1024)))
        .collect();
    Inputs { funcs, requests }
}

/// Runs one round.
pub fn run(seed: u64, scale: Scale, clock: Clock) -> Round {
    let generating = Instant::now();
    let Inputs { funcs, requests } = inputs(seed, scale);
    let clock = clock.excluding(generating.elapsed());
    let (mut round, events) = common::simulate("rack-zipf", move |ctx| {
        let mut round = Round { slo_ns: SLO_NS, ..Round::default() };
        let molecule = Molecule::launch(Machine::rack(NODES, 1), MoleculeConfig::default());
        let ids: Vec<FuncId> = funcs.iter().map(|f| f.id.clone()).collect();
        for def in funcs {
            molecule.register_function(def);
        }
        let front = RackFront::deploy(molecule, RackConfig::default());
        front.bootstrap(ctx).expect("rack bootstrap");
        front.start(ctx);
        let machine = front.machine().clone();

        let base = ctx.now().as_nanos();
        let end = base + requests.last().map_or(0, |r| r.0);
        let reaper = front.clone();
        ctx.spawn("keepalive-reaper", move |rctx| {
            while rctx.now().as_nanos() < end {
                rctx.sleep(REAP_EVERY);
                for gw in reaper.gateways() {
                    gw.api().reap_idle(rctx).expect("keep-alive reap");
                }
            }
        });

        let shim0 = front.molecule().cluster().stats();
        let sched0 = common::sched_stats(front.gateways());
        let core0 = common::gateway_stats(front.gateways());
        let rack0 = front.stats();
        round.setup = clock.since_start();
        let timed = Instant::now();

        let mut submit_host = Duration::ZERO;
        let mut issued = Vec::with_capacity(requests.len());
        for &(due, f, input) in &requests {
            let due = base + due;
            common::sleep_until(ctx, due);
            let submit_at = ctx.now().as_nanos();
            let t = Instant::now();
            let reply = front.submit(ctx, &ids[f], input, SubmitOpts::default());
            common::lap(&mut submit_host, t);
            issued.push(Issued {
                due,
                submit_at,
                admitted_at: ctx.now().as_nanos(),
                func: ids[f].to_string(),
                reply,
                victim: false,
                front: Some("rack"),
            });
        }
        let drained = common::drain(ctx, &machine, issued, SLO_NS, &mut round);
        round.timed = timed.elapsed();
        round.requests = round.out.ledger.completed;

        let sched1 = common::sched_stats(front.gateways());
        let core1 = common::gateway_stats(front.gateways());
        let rack1 = front.stats();
        let stack = common::stack_ledger(&sched1);
        round.out.check_conservation(&stack);
        common::shim_facts(&mut round, &shim0, &front.molecule().cluster().stats());
        common::gateway_facts(&mut round, (&sched0, &sched1), (&core0, &core1));
        let issued_n = round.out.ledger.issued.max(1) as f64;
        round.layer.insert(
            "sched.dpu_share",
            drained.dpu_completions as f64 / round.out.ledger.completed.max(1) as f64,
        );
        round
            .layer
            .insert("rack.forwarded_share", (rack1.forwarded - rack0.forwarded) as f64 / issued_n);
        round
            .host
            .insert("rack.submit_host_us", common::mean_us(submit_host, requests.len() as u64));
        round.served = drained.served;
        front.shutdown();
        round
    });
    round.events = events;
    round
}
