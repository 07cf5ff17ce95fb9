//! End-to-end failover: a PU dies mid-burst and every request queued on it
//! completes on a surviving PU — the scheduling gateway's conservation
//! guarantee wired through the real health checker and the shim cluster's
//! PU-death bus, which every layer over the cluster subscribes to.

use hetsim::engine::Simulation;
use hetsim::pu::{PuId, PuKind};
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::function::FunctionDef;
use molecule_core::gateway::{ApiGateway, GatewayConfig};
use molecule_core::health::{HealthChecker, HealthPolicy};
use molecule_core::keepalive::Lru;
use molecule_core::proxy::{ProxyPool, ProxyPoolConfig};
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_core::schedule::Scheduler;
use molecule_sched::{JobOutcome, SchedConfig, SchedGateway, SubmitOpts};
use molecule_state::{RegionSpec, StateLayer};
use vsandbox::spec::{FuncId, LangRuntime};
use xpu_shim::cluster::RECLAIM_STAGE;

#[test]
fn queued_requests_survive_a_pu_death_mid_burst() {
    let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
    // DPU-only function: a burst spreads over the two DPUs, so killing one
    // strands real queued work that must fail over to the other.
    molecule.register_function(
        FunctionDef::builder("edge-infer", LangRuntime::Python)
            .profiles(&[PuKind::Dpu])
            .exec_ms(8.0)
            .init_ms(5.0)
            .cfork_first_run_ms(1.0)
            .build(),
    );
    let api = ApiGateway::new(
        molecule,
        Scheduler::default(),
        GatewayConfig::default(),
        Box::new(Lru::new()),
    );
    let gw = SchedGateway::new(api, SchedConfig { dpu_tokens: 1, ..SchedConfig::default() });
    let health = HealthChecker::new(gw.api().clone(), HealthPolicy::default());

    let mut sim = Simulation::new();
    let g = gw.clone();
    let hc = health.clone();
    let out = sim.spawn("driver", move |ctx| {
        g.api().molecule().bootstrap(ctx).unwrap();
        g.api().prepare_all_templates(ctx).unwrap();
        g.start(ctx);

        // Burst of 16 before any worker gets a turn: both DPU queues fill.
        let rxs: Vec<_> = (0..16)
            .map(|_| {
                g.submit(ctx, &FuncId::new("edge-infer"), 1024, SubmitOpts::default()).unwrap()
            })
            .collect();

        // Kill one DPU with its queue still loaded, then let the health
        // checker find the corpse and declare it dead on the bus, which
        // drains the queue.
        let machine = g.api().molecule().machine().clone();
        let victim = machine.pus_of_kind(PuKind::Dpu)[0];
        machine.fault_plane().kill_pu(ctx.now(), victim);
        hc.run(ctx, 8);

        let outcomes: Vec<JobOutcome> = rxs.into_iter().map(|rx| rx.recv(ctx).unwrap()).collect();
        g.shutdown();
        (victim, outcomes)
    });
    sim.run().unwrap();
    let (victim, outcomes) = out.take_result().unwrap();

    assert_eq!(outcomes.len(), 16, "every admitted request must resolve");
    for o in &outcomes {
        match o {
            JobOutcome::Completed { pu, .. } => {
                assert_ne!(*pu, victim, "a request completed on the dead PU");
            }
            other => panic!("request lost to the failure: {other:?}"),
        }
    }
    assert!(health.dead_pus().contains(&victim), "health checker should declare the DPU dead");
    let stats = gw.stats();
    assert_eq!(stats.submitted, 16);
    assert_eq!(stats.completed, 16);
    assert!(
        stats.requeued > 0,
        "the victim's queue should have drained into a survivor: {stats:?}"
    );
    assert_eq!(stats.failed, 0, "{stats:?}");
}

/// The FPGA cold-start batch window is the widest in-flight exposure the
/// scheduler has: a miss holds the fabric for the whole window while
/// co-pending requests coalesce behind it. Killing the FPGA inside that
/// window strands not just the queue but the entire in-flight batch — all
/// of it must re-place onto the surviving fabric, none of it may vanish.
#[test]
fn in_flight_cold_start_batch_survives_fpga_death_mid_window() {
    // Two fabrics: one to die with a batch in flight, one to inherit it.
    let machine = Machine::builder().host_cpu().fpgas(2).build();
    let molecule = Molecule::launch(machine, MoleculeConfig::default());
    let mut funcs = Vec::new();
    for i in 0..6 {
        let name = format!("kern{i}");
        molecule.register_function(
            FunctionDef::builder(name.clone(), LangRuntime::OpenCl)
                .profiles(&[PuKind::Fpga])
                .fpga(
                    hetsim::fpga::KernelSpec {
                        name: name.clone(),
                        resources: hetsim::fpga::FpgaResources {
                            luts: 5_000,
                            regs: 8_000,
                            brams: 20,
                            dsps: 36,
                        },
                    },
                    molecule_core::function::ExecModel::Fixed(SimDuration::from_micros(100)),
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
    // A wide batch window so the kill lands while the first miss still
    // holds the fabric coalescing the requests queued behind it.
    let gw = SchedGateway::new(
        api,
        SchedConfig {
            batch_window: SimDuration::from_millis(50),
            batch_max: 8,
            ..SchedConfig::default()
        },
    );
    let health = HealthChecker::new(gw.api().clone(), HealthPolicy::default());

    let mut sim = Simulation::new();
    let g = gw.clone();
    let hc = health.clone();
    let out = sim.spawn("driver", move |ctx| {
        g.api().molecule().bootstrap(ctx).unwrap();
        g.api().prepare_all_templates(ctx).unwrap();
        g.start(ctx);

        // Every kernel is cold, so the first request on each fabric opens a
        // batch window and everything behind it coalesces into the batch.
        let rxs: Vec<_> =
            funcs.iter().map(|f| g.submit(ctx, f, 4096, SubmitOpts::default()).unwrap()).collect();

        // Land the kill inside the 50 ms window: the victim's worker is
        // asleep holding the fabric with its batch already claimed.
        ctx.sleep(SimDuration::from_millis(1));
        let machine = g.api().molecule().machine().clone();
        let victim = machine.pus_of_kind(PuKind::Fpga)[0];
        machine.fault_plane().kill_pu(ctx.now(), victim);
        hc.run(ctx, 8);

        let outcomes: Vec<JobOutcome> = rxs.into_iter().map(|rx| rx.recv(ctx).unwrap()).collect();
        g.shutdown();
        (victim, outcomes)
    });
    sim.run().unwrap();
    let (victim, outcomes) = out.take_result().unwrap();

    assert_eq!(outcomes.len(), 6, "every admitted request must resolve");
    for o in &outcomes {
        match o {
            JobOutcome::Completed { pu, .. } => {
                assert_ne!(*pu, victim, "a request completed on the dead fabric");
            }
            other => panic!("request lost to the mid-window failure: {other:?}"),
        }
    }
    let stats = gw.stats();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.completed, 6, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert!(
        stats.requeued > 0,
        "the victim's batch and queue should have re-placed, not vanished: {stats:?}"
    );
}

/// The full stack over one paper machine: runtime, gateway, scheduler and
/// health checker, plus a state layer on the same cluster.
fn stack() -> (SchedGateway, HealthChecker, StateLayer) {
    let molecule = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
    let api = ApiGateway::new(
        molecule,
        Scheduler::default(),
        GatewayConfig::default(),
        Box::new(Lru::new()),
    );
    let gw = SchedGateway::new(api, SchedConfig::default());
    let layer = StateLayer::new(gw.api().molecule().cluster().clone());
    gw.attach_state_layer(&layer);
    let health = HealthChecker::new(gw.api().clone(), HealthPolicy::default());
    (gw, health, layer)
}

/// A health-declared DPU death reaches every layer on the cluster, not
/// just the runtime and the gateway: the state layer re-masters the region
/// the DPU mastered onto the survivor, and the proxy pool stops routing to
/// the dead DPU. Each layer sees the death exactly once, after the shim's
/// reclaim, in the order the layers subscribed; declaring it again is a
/// no-op.
#[test]
fn health_declared_death_remasters_state_and_retires_proxies() {
    let (gw, health, layer) = stack();
    let mut sim = Simulation::new();
    let (g, hc, l) = (gw.clone(), health.clone(), layer.clone());
    let out = sim.spawn("driver", move |ctx| {
        let cluster = g.api().molecule().cluster().clone();
        g.api().molecule().bootstrap(ctx).unwrap();
        let pool = ProxyPool::deploy(ctx, &cluster, ProxyPoolConfig::default()).unwrap();
        l.create_region(ctx, PuId(1), RegionSpec::new("weights", 4)).unwrap();
        l.attach(ctx, PuId(2), "weights").unwrap();
        assert_eq!(l.hosts("weights"), [PuId(1), PuId(2)]);
        let proxies_before = pool.live_proxies();

        cluster.machine().fault_plane().kill_pu(ctx.now(), PuId(1));
        let recovered = hc.run(ctx, 2);
        assert_eq!(recovered.len(), 1, "the kill is detected as PeerDead at once");
        assert!(cluster.declare_pu_dead(ctx, PuId(1)).is_none(), "a PU dies once");

        let out = (proxies_before, pool.live_proxies(), cluster.death_log());
        pool.shutdown(ctx);
        out
    });
    sim.run().unwrap();
    let (proxies_before, proxies_after, log) = out.take_result().unwrap();

    let region = layer.snapshot().regions.into_iter().find(|r| r.name == "weights").unwrap();
    assert_eq!(region.master, PuId(2), "the region is re-mastered onto the survivor");
    assert_eq!(layer.hosts("weights"), [PuId(2)]);
    assert_eq!(gw.api().region_directory().hosts("weights"), [PuId(2)]);
    assert_eq!(proxies_after, proxies_before - ProxyPoolConfig::default().proxies_per_dpu);
    assert_eq!(
        log,
        [RECLAIM_STAGE, "runtime", "gateway", "sched", "state", "proxy"].map(|s| (PuId(1), s)),
        "every layer sees the death once, after the reclaim, in subscription order"
    );
}

/// The bus holds its subscribers weakly: once every handle of a deployed
/// stack is dropped, the runtime, gateways, state layer and proxy pool are
/// freed, so a later death reaches only the shim's own reclaim.
#[test]
fn dropping_the_stack_frees_every_subscriber() {
    let (gw, health, layer) = stack();
    let cluster = gw.api().molecule().cluster().clone();
    let mut sim = Simulation::new();
    let cl = cluster.clone();
    let deployed = sim.spawn("deploy", move |ctx| {
        let pool = ProxyPool::deploy(ctx, &cl, ProxyPoolConfig::default()).unwrap();
        pool.shutdown(ctx);
        pool
    });
    sim.run().unwrap();
    let pool = deployed.take_result().unwrap();
    drop((sim, gw, health, layer, pool));

    let mut sim = Simulation::new();
    let cl = cluster.clone();
    sim.spawn("declare", move |ctx| cl.declare_pu_dead(ctx, PuId(1)).map(|_| ()));
    sim.run().unwrap();
    assert_eq!(cluster.death_log(), [(PuId(1), RECLAIM_STAGE)], "a subscriber outlived its stack");
}
