//! Differential test of the process backends: random programs run once on
//! coroutines and once on the OS-thread reference must agree on everything
//! the engine reports — resume trace, end time, events fired, tie-break
//! choices, process results and errors.

use std::sync::Once;

use proptest::prelude::*;

use super::{ChoicePoint, ProcHandle, RunReport, SchedulePolicy, SimError, Simulation};
use crate::time::{SimDuration, SimTime};

/// One step of a generated process.
#[derive(Debug, Clone)]
enum Op {
    Sleep(u64),
    Yield,
    /// Send to process `to`'s inbox, after `delay` ns when nonzero.
    Send {
        to: usize,
        delay: u64,
    },
    Recv,
    RecvTimeout(u64),
    /// Hold `count` of the shared semaphore's two permits for `hold` ns.
    Sem {
        count: u64,
        hold: u64,
    },
    /// Spawn a child that sleeps `sleep` ns, yields, then sends to `to`.
    Spawn {
        sleep: u64,
        to: usize,
    },
    /// Join the most recently spawned child and log its result.
    Join,
    Panic,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        15 => (0u64..3_000).prop_map(Op::Sleep),
        10 => Just(Op::Yield),
        20 => (0usize..8, 0u64..2_000).prop_map(|(to, delay)| Op::Send { to, delay }),
        4 => Just(Op::Recv),
        15 => (1u64..4_000).prop_map(Op::RecvTimeout),
        10 => (1u64..3, 0u64..2_000).prop_map(|(count, hold)| Op::Sem { count, hold }),
        10 => (0u64..2_000, 0usize..8).prop_map(|(sleep, to)| Op::Spawn { sleep, to }),
        10 => Just(Op::Join),
        1 => Just(Op::Panic),
    ]
}

/// Seeded xorshift tie-break.
struct RandomPolicy(u64);

impl SchedulePolicy for RandomPolicy {
    fn choose(&mut self, _now: SimTime, arity: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % arity as u64) as usize
    }
}

const PANIC_MARK: &str = "differential test panic";

/// Keeps the deliberate panics of generated programs off the test output;
/// every other panic still reaches the previous hook.
fn quiet_generated_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let ours =
                info.payload().downcast_ref::<String>().is_some_and(|m| m.contains(PANIC_MARK));
            if !ours {
                previous(info);
            }
        }));
    });
}

type Outcome = (Result<RunReport, SimError>, Vec<ChoicePoint>, Vec<Option<Vec<u64>>>);

fn run(programs: &[Vec<Op>], policy_seed: Option<u64>, threads: bool) -> Outcome {
    let mut sim = if threads { Simulation::with_thread_reference() } else { Simulation::new() };
    sim.enable_trace();
    sim.set_event_limit(50_000);
    if let Some(seed) = policy_seed {
        sim.set_schedule_policy(Box::new(RandomPolicy(seed | 1)));
    }
    let sem = super::SimSemaphore::new(&sim, 2);
    let (txs, rxs): (Vec<_>, Vec<_>) = programs.iter().map(|_| sim.channel::<u64>()).unzip();
    let mut handles = Vec::new();
    for (i, (ops, rx)) in programs.iter().cloned().zip(rxs).enumerate() {
        let txs = txs.clone();
        let sem = sem.clone();
        handles.push(sim.spawn(&format!("p{i}"), move |ctx| {
            let mut log = Vec::new();
            let mut children: Vec<ProcHandle<u64>> = Vec::new();
            for (k, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Sleep(ns) => ctx.sleep(SimDuration::from_nanos(ns)),
                    Op::Yield => ctx.yield_now(),
                    Op::Send { to, delay } => {
                        let tx = &txs[to % txs.len()];
                        let v = (i * 100 + k) as u64;
                        let sent = if delay == 0 {
                            tx.send(v)
                        } else {
                            tx.send_delayed(SimDuration::from_nanos(delay), v)
                        };
                        log.push(u64::from(sent.is_ok()));
                    }
                    Op::Recv => log.push(rx.recv(ctx).unwrap_or(u64::MAX)),
                    Op::RecvTimeout(ns) => log.push(
                        rx.recv_timeout(ctx, SimDuration::from_nanos(ns)).unwrap_or(u64::MAX - 1),
                    ),
                    Op::Sem { count, hold } => {
                        let _permit = sem.acquire(ctx, count);
                        ctx.sleep(SimDuration::from_nanos(hold));
                    }
                    Op::Spawn { sleep, to } => {
                        let tx = txs[to % txs.len()].clone();
                        children.push(ctx.spawn(&format!("p{i}c{k}"), move |ctx| {
                            ctx.sleep(SimDuration::from_nanos(sleep));
                            ctx.yield_now();
                            let _ = tx.send(sleep);
                            ctx.now().as_nanos()
                        }));
                    }
                    Op::Join => {
                        if let Some(child) = children.last() {
                            child.join(ctx);
                            log.push(child.take_result().unwrap_or(u64::MAX));
                        }
                    }
                    Op::Panic => panic!("{PANIC_MARK} in p{i} at step {k}"),
                }
                log.push(ctx.now().as_nanos());
            }
            log
        }));
    }
    drop(txs);
    let report = sim.run();
    let choices = sim.take_choice_log();
    let results = handles.iter().map(ProcHandle::take_result).collect();
    (report, choices, results)
}

proptest! {
    /// Coroutine and thread backends run every generated program
    /// identically, with the default tie-break and under a seeded random
    /// schedule policy.
    #[test]
    fn coroutines_match_the_thread_reference(
        programs in proptest::collection::vec(proptest::collection::vec(op(), 0..14), 1..6),
        policy in (any::<bool>(), any::<u64>()),
    ) {
        quiet_generated_panics();
        let policy_seed = policy.0.then_some(policy.1);
        let coro = run(&programs, policy_seed, false);
        let reference = run(&programs, policy_seed, true);
        prop_assert_eq!(coro, reference);
    }
}
