//! `chain_state`: a closed loop of a few clients on one paper CPU+DPU
//! server. Each client waits for its reply before sending the next
//! request and alternates two jobs, one chain to every two shuffles (an
//! even mix would put the median on the boundary between the two jobs'
//! latency modes):
//!
//! * the Alexa smart-home chain through `dag::run_chain`, its stages placed
//!   across the CPU and a DPU and wired with `DirectIpc` over nIPC;
//! * a MapReduce shuffle over `molecule-state` regions: mappers write and
//!   commit partitions of 64 KiB on the CPU, reducers on the DPUs
//!   pull and read them, so one client's writes run beside another's reads.
//!
//! The sched, rack and admission layers are bypassed. Every shuffle's
//! output is checked against a reference computed outside the simulation,
//! and the benchmark's ledger against what the stack acknowledged: a chain
//! is served when `run_chain` reports one hop into every stage, a shuffle
//! when every commit returned the next region version and every reducer's
//! pull returned the last.

use std::time::Instant;

use hetsim::pu::{PuId, PuKind};
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::dag::{run_chain, ChainSpec, ChainStage, CommMethod};
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_state::{RegionSpec, StateLayer};
use vsandbox::spec::{FuncId, LangRuntime};
use workloads::serverlessbench;

use crate::common;
use crate::round::{Clock, Fate, Ledger, Round, Scale};
use crate::sample::Rng;

/// Closed-loop clients.
const CLIENTS: usize = 3;
/// Mappers per shuffle (run on the CPU, the region's master).
const MAPPERS: usize = 2;
/// Reducers per shuffle (run on the DPUs).
const REDUCERS: usize = 2;
/// Partition size, bytes.
const PARTITION: u64 = 64 * 1024;
/// Latency limit for goodput.
pub const SLO_NS: u64 = 50_000_000;

/// One client request, generated outside the simulation.
#[derive(Debug, Clone)]
enum Job {
    /// The Alexa chain with this first-hop input size.
    Chain { input: u64 },
    /// A shuffle whose mappers each compute for this long (virtual ns)
    /// over data drawn from this key, plus the reference digest of each
    /// reducer's column.
    Shuffle { map_ns: u64, key: u64, expect: Vec<u64> },
}

/// The partition mapper `m` writes for reducer `r` in the shuffle with
/// data key `key` (`len` is a multiple of 8).
fn partition_bytes(key: u64, m: usize, r: usize, len: u64) -> Vec<u8> {
    let mut rng = Rng::new(key, ((m as u64) << 8) | r as u64);
    (0..len / 8).flat_map(|_| rng.next_u64().to_le_bytes()).collect()
}

/// A reducer's output: a hash of its column, mapper by mapper.
fn reduce<'a>(column: impl Iterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in column {
        for w in part.chunks_exact(8) {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            h = (h ^ w).wrapping_mul(0x0100_0000_01b3).rotate_left(29);
        }
    }
    h
}

fn jobs(seed: u64, per_client: usize) -> Vec<Vec<Job>> {
    (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::new(seed, 300 + c as u64);
            (0..per_client)
                .map(|k| {
                    if k % 3 == 0 {
                        Job::Chain { input: 512 + rng.below(3584) }
                    } else {
                        let map_ns = 150_000 + rng.below(100_000);
                        let key = rng.next_u64();
                        let expect = (0..REDUCERS)
                            .map(|r| {
                                let parts: Vec<Vec<u8>> = (0..MAPPERS)
                                    .map(|m| partition_bytes(key, m, r, PARTITION))
                                    .collect();
                                reduce(parts.iter().map(Vec::as_slice))
                            })
                            .collect();
                        Job::Shuffle { map_ns, key, expect }
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs one shuffle and returns each reducer's output digest, and whether
/// the state layer acknowledged every commit and pull: commit `m` returned
/// version `m + 1`, and every reducer pulled version `MAPPERS`.
fn shuffle(
    ctx: &mut hetsim::engine::ProcCtx,
    layer: &StateLayer,
    master: PuId,
    dpus: &[PuId],
    region: &str,
    map_ns: u64,
    key: u64,
) -> (Vec<u64>, bool) {
    let partition = PARTITION;
    let pages = (MAPPERS * REDUCERS) as u64 * partition / 4096;
    common::in_span(
        ctx,
        || "state:create".into(),
        |c| layer.create_region(c, master, RegionSpec::new(region, pages)).expect("create region"),
    );
    let mut acked = true;
    for m in 0..MAPPERS {
        common::in_span(ctx, || "core:exec".into(), |c| c.sleep(SimDuration::from_nanos(map_ns)));
        for r in 0..REDUCERS {
            let offset = ((m * REDUCERS + r) as u64) * partition;
            let data = partition_bytes(key, m, r, partition);
            common::in_span(
                ctx,
                || "state:write".into(),
                |c| layer.write(c, master, region, offset, &data, None).expect("write partition"),
            );
        }
        let version = common::in_span(
            ctx,
            || "state:commit".into(),
            |c| layer.commit(c, master, region).expect("commit"),
        );
        acked &= version == m as u64 + 1;
    }
    let mut replies = Vec::new();
    for r in 0..REDUCERS {
        let pu = dpus[r % dpus.len()];
        let layer = layer.clone();
        let region = region.to_owned();
        let (tx, rx) = ctx.channel::<(u64, u64)>();
        ctx.spawn(&format!("reducer-{r}"), move |rctx| {
            let version = common::in_span(
                rctx,
                || "state:pull".into(),
                |c| {
                    layer.attach(c, pu, &region).expect("attach");
                    layer.pull(c, pu, &region).expect("pull")
                },
            );
            let parts: Vec<Vec<u8>> = (0..MAPPERS)
                .map(|m| {
                    let offset = ((m * REDUCERS + r) as u64) * partition;
                    common::in_span(
                        rctx,
                        || "state:read".into(),
                        |c| layer.read(c, pu, &region, offset, partition).expect("read partition"),
                    )
                })
                .collect();
            let _ = tx.send((reduce(parts.iter().map(Vec::as_slice)), version));
        });
        replies.push(rx);
    }
    let mut out = Vec::new();
    for rx in replies {
        let (digest, version) = rx.recv(ctx).expect("reducer reply");
        acked &= version == MAPPERS as u64;
        out.push(digest);
    }
    common::in_span(
        ctx,
        || "state:drop".into(),
        |c| layer.drop_region(c, region).expect("drop region"),
    );
    (out, acked)
}

/// Runs one round.
pub fn run(seed: u64, scale: Scale, clock: Clock) -> Round {
    let per_client = match scale {
        Scale::Full => 340,
        Scale::Smoke => 6,
    };
    let generating = Instant::now();
    let plan = jobs(seed, per_client);
    let clock = clock.excluding(generating.elapsed());
    let (mut round, events) = common::simulate("chain-state", move |ctx| {
        let mut round = Round { slo_ns: SLO_NS, ..Round::default() };
        let machine = Machine::paper_cpu_dpu_server();
        let molecule = Molecule::launch(machine.clone(), MoleculeConfig::default());
        let chain: Vec<FuncId> = serverlessbench::alexa_chain()
            .into_iter()
            .map(|def| {
                let id = def.id.clone();
                molecule.register_function(def);
                id
            })
            .collect();
        molecule.bootstrap(ctx).expect("runtime bootstrap");
        for pu in machine.pus().iter().filter(|p| p.kind.is_general_purpose()) {
            molecule.prepare_template(ctx, pu.id, LangRuntime::NodeJs).expect("template");
        }
        let layer = StateLayer::new(molecule.cluster().clone());
        let master = machine.host_cpu();
        let dpus = machine.pus_of_kind(PuKind::Dpu);
        let shim0 = molecule.cluster().stats();
        round.setup = clock.since_start();
        let timed = Instant::now();
        let start = ctx.now().as_nanos();

        let mut clients = Vec::new();
        for (c, jobs) in plan.into_iter().enumerate() {
            let molecule = molecule.clone();
            let layer = layer.clone();
            let dpus = dpus.clone();
            let chain = chain.clone();
            clients.push(ctx.spawn(&format!("client-{c}"), move |cctx| {
                // Chain stages alternate CPU and this client's DPU.
                let dpu = dpus[c % dpus.len()];
                let stages: Vec<ChainStage> = chain
                    .iter()
                    .enumerate()
                    .map(|(i, f)| ChainStage::new(f.clone(), if i % 2 == 0 { master } else { dpu }))
                    .collect();
                let mut out = Vec::new();
                for (k, job) in jobs.into_iter().enumerate() {
                    let t0 = cctx.now().as_nanos();
                    let root = format!("bench:request {c}.{k}");
                    let (ok, acked, words) = common::in_span(
                        cctx,
                        || root.clone(),
                        |rc| match &job {
                            Job::Chain { input } => {
                                let spec = ChainSpec::new(
                                    format!("alexa-{c}-{k}"),
                                    stages.clone(),
                                    CommMethod::DirectIpc,
                                )
                                .input_bytes(*input);
                                let res = common::in_span(
                                    rc,
                                    || "core:run_chain".into(),
                                    |c| run_chain(&molecule, c, &spec),
                                );
                                let acked = match &res {
                                    Ok(o) => {
                                        o.end_to_end.len() == 1
                                            && o.hops.len() == stages.len()
                                            && o.hops.iter().all(|h| h.len() == 1)
                                    }
                                    Err(e) => {
                                        eprintln!("stackbench: chain {c}.{k} failed: {e}");
                                        false
                                    }
                                };
                                (res.is_ok(), acked, Vec::new())
                            }
                            Job::Shuffle { map_ns, key, expect } => {
                                let region = format!("shuffle-{c}-{k}");
                                let (got, acked) =
                                    shuffle(rc, &layer, master, &dpus, &region, *map_ns, *key);
                                (got == *expect, acked, got)
                            }
                        },
                    );
                    let done = cctx.now().as_nanos();
                    out.push((ok, acked, words, done - t0, root, done));
                }
                out
            }));
        }
        let mut last = start;
        let mut roots = Vec::new();
        let mut chains = 0u64;
        let mut stack = Ledger::default();
        for (c, h) in clients.iter().enumerate() {
            h.join(ctx);
            for (k, (ok, acked, words, ns, root, done)) in
                h.take_result().expect("client result").into_iter().enumerate()
            {
                last = last.max(done);
                let shuffle = !words.is_empty();
                if shuffle && !ok {
                    round.out.fail(format!(
                        "shuffle {c}.{k}: reducer output differs from the reference"
                    ));
                }
                chains += u64::from(!shuffle);
                for w in words {
                    round.out.digest_word(w);
                }
                let fate = if ok { Fate::Completed(ns) } else { Fate::Failed };
                if ok {
                    roots.push((ns, root, done));
                }
                round.out.record(fate, SLO_NS, false);
                stack.issued += 1;
                if acked {
                    stack.completed += 1;
                } else {
                    stack.failed += 1;
                }
            }
        }
        round.median_obs = common::median_root(roots);
        round.timed = timed.elapsed();
        round.requests = round.out.ledger.completed;
        round.window_ns = last - start;
        round.out.check_conservation(&stack);
        if chains == 0 {
            round.out.fail("no chain ran");
        }
        common::shim_facts(&mut round, &shim0, &molecule.cluster().stats());
        round
    });
    round.events = events;
    round
}
