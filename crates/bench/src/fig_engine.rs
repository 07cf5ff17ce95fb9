//! Engine hot-path microbenchmark (beyond the paper's figures): timer-storm
//! throughput of the overhauled event core, against a faithful cost model
//! of the engine it replaced.
//!
//! Part A is wall-clock: a storm of re-arming timers (the allocation-free
//! `Tick` path, sharded over event lanes) against a *legacy emulation* —
//! the pre-overhaul engine's per-event costs reproduced exactly: one global
//! `Mutex` around a `BinaryHeap` of events each carrying a boxed
//! continuation, a name-string clone per dispatch, and a cross-thread
//! rendezvous per event (the old engine could express periodic work only as
//! sleep-looping processes, each resumption waking an OS thread). The
//! emulation's measured rate is exported as the `baseline_eps` the CI gate
//! compares against.
//!
//! Part A also prices a process switch: ns per `ProcCtx::yield_now` with
//! 1, 16 and 256 processes yielding in turn, so all but one are suspended
//! at every switch. The rows follow the storm rows, and `ci.sh` selects
//! them by their config string.
//!
//! Part B is the deterministic *engine probe*: the same storm at a fixed
//! small size, reporting events fired, virtual end time and an order-
//! sensitive checksum of the fire sequence. Those numbers are virtual-time
//! facts — identical on every machine and every run — and double as the
//! cross-process determinism oracle in `tests/determinism.rs`. The probe
//! also cross-checks the legacy emulation: both cores must fire the exact
//! same `(time, seq)` sequence, so their checksums must agree.

use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use hetsim::engine::Simulation;
use hetsim::time::{SimDuration, SimTime};

/// Timers in the wall-clock storm.
pub const STORM_TIMERS: usize = 64;

/// Firings per timer in the new-engine storm.
pub const STORM_TICKS: u64 = 2_000;

/// Firings per timer in the legacy emulation (its per-event rendezvous is
/// thousands of times slower; rates are normalized to events/sec).
pub const LEGACY_TICKS: u64 = 200;

/// Event lanes the storm shards over.
pub const STORM_LANES: u32 = 8;

/// Process counts of the process-switch rows.
pub const YIELD_PROCS: [usize; 3] = [1, 16, 256];

/// `yield_now` calls timed per process-switch row, split evenly over its
/// processes.
pub const YIELD_TOTAL: u64 = 256_000;

/// Untimed `yield_now` calls each process makes first, so every process
/// has started and touched its stack before the clock starts.
const YIELD_WARM: u64 = 4;

/// Timers in the deterministic probe.
pub const PROBE_TIMERS: usize = 16;

/// Firings per timer in the deterministic probe.
pub const PROBE_TICKS: u64 = 64;

/// One measured storm: virtual-time facts plus the wall clock.
#[derive(Debug, Clone)]
pub struct StormStats {
    /// Events fired.
    pub events: u64,
    /// Virtual end time, nanoseconds.
    pub end_ns: u64,
    /// Order-sensitive FNV fold of every `(timer, fire instant)` pair.
    pub checksum: u64,
    /// Wall-clock duration of the run loop only (setup excluded).
    pub wall: Duration,
}

impl StormStats {
    /// Events per wall-clock second.
    pub fn eps(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Re-arm stride of timer `i`, in nanoseconds: co-prime-ish spreads so the
/// storm mixes same-instant ties with staggered firings.
fn stride(i: usize) -> u64 {
    50 + 37 * (i as u64 % 97)
}

/// Order-sensitive checksum fold (FNV-1a over the fire sequence).
fn fold(h: u64, timer: u64, at_ns: u64) -> u64 {
    let h = (h ^ timer).wrapping_mul(0x100_0000_01b3);
    (h ^ at_ns).wrapping_mul(0x100_0000_01b3)
}

/// Runs the timer storm on the overhauled engine: `timers` re-arming
/// engine timers, `ticks` firings each, sharded over `lanes` event lanes.
pub fn run_timer_storm(timers: usize, ticks: u64, lanes: u32) -> StormStats {
    let mut sim = Simulation::new();
    if lanes > 1 {
        // Identity PU→lane plan; lookahead sizes the calendar buckets.
        let plan: Vec<u32> = (0..lanes).collect();
        sim.tune_event_lanes(&plan, SimDuration::from_micros(4));
    }
    // (fired, checksum) accumulator shared by all timer callbacks; they run
    // on the scheduler thread, so no synchronization is needed.
    let acc = Rc::new(std::cell::Cell::new((0u64, 0u64)));
    for i in 0..timers {
        let acc = Rc::clone(&acc);
        let mut left = ticks;
        let id = sim.add_timer(move |tc| {
            let (fired, h) = acc.get();
            acc.set((fired + 1, fold(h, i as u64, tc.now().as_nanos())));
            left -= 1;
            if left > 0 {
                tc.rearm_after(SimDuration::from_nanos(stride(i)));
            }
        });
        sim.arm_timer(id, SimTime::from_nanos(stride(i)));
    }
    let t0 = Instant::now();
    let report = sim.run().expect("timer storm failed");
    let wall = t0.elapsed();
    let (fired, checksum) = acc.get();
    assert_eq!(fired, timers as u64 * ticks, "storm fired a wrong event count");
    StormStats { events: report.events_fired, end_ns: report.end_time.as_nanos(), checksum, wall }
}

/// Runs the wall-clock storm and returns `(events fired, allocations)`,
/// where allocations are measured by the caller-supplied counter (the
/// `fig_engine` binary installs a counting global allocator) across the
/// run loop only — setup, arena growth during arming, and teardown are
/// excluded. The CI gate asserts ≤1 allocation per 100 events: the hot
/// loop reuses arena slots and fires `FnMut` timers in place, so
/// steady-state dispatch does not touch the heap.
pub fn storm_alloc_probe(read_allocs: impl Fn() -> u64) -> (u64, u64) {
    let mut sim = Simulation::new();
    let plan: Vec<u32> = (0..STORM_LANES).collect();
    sim.tune_event_lanes(&plan, SimDuration::from_micros(4));
    let arm = |sim: &mut Simulation, ticks: u64| {
        let base = sim.now();
        for i in 0..STORM_TIMERS {
            let mut left = ticks;
            let id = sim.add_timer(move |tc| {
                left -= 1;
                if left > 0 {
                    tc.rearm_after(SimDuration::from_nanos(stride(i)));
                }
            });
            sim.arm_timer(id, base + SimDuration::from_nanos(stride(i)));
        }
    };
    // Warm-up wave: grows the arena, the per-bucket vectors and the
    // current-bucket heap to steady-state capacity (first-touch growth is
    // setup cost, not per-event cost).
    arm(&mut sim, 64);
    let warm = sim.run().expect("alloc probe warm-up failed").events_fired;
    // Measured wave: the steady-state loop reuses all of it.
    arm(&mut sim, STORM_TICKS);
    let before = read_allocs();
    let report = sim.run().expect("alloc probe storm failed");
    let allocs = read_allocs().saturating_sub(before);
    (report.events_fired - warm, allocs)
}

/// Runs `procs` processes that each call `yield_now` in a loop, all at
/// one virtual instant, so the scheduler switches between them round
/// robin. Returns the yields timed and the wall clock from the first
/// process's first timed yield to the end of the run.
pub fn yield_cost(procs: usize, total: u64) -> (u64, Duration) {
    let per_proc = (total / procs as u64).max(1);
    let mut sim = Simulation::new();
    let started = Arc::new(OnceLock::new());
    for i in 0..procs {
        let started = Arc::clone(&started);
        sim.spawn(&format!("yielder{i}"), move |ctx| {
            for _ in 0..YIELD_WARM {
                ctx.yield_now();
            }
            let _ = started.set(Instant::now());
            for _ in 0..per_proc {
                ctx.yield_now();
            }
        });
    }
    sim.run().expect("yield loop failed");
    let wall = started.get().expect("a yielder started").elapsed();
    (per_proc * procs as u64, wall)
}

// ---- legacy emulation -----------------------------------------------------

/// One pending event of the legacy core: a `(time, seq)` key and a boxed
/// continuation — exactly the fat event the old engine heaped.
struct LegacyEvent {
    time: u64,
    seq: u64,
    timer: u32,
    cont: Box<dyn FnOnce(u64) -> u64 + Send>,
}

impl PartialEq for LegacyEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for LegacyEvent {}
impl PartialOrd for LegacyEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LegacyEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the engine needs the min key.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

struct LegacyState {
    heap: BinaryHeap<LegacyEvent>,
    names: HashMap<u32, String>,
    remaining: HashMap<u32, u64>,
    next_seq: u64,
    now: u64,
}

impl LegacyState {
    fn schedule(&mut self, time: u64, timer: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // The boxed continuation is the point: one allocation per event,
        // dispatched through a fat pointer, like the old engine's
        // heap-of-callbacks design.
        let cont: Box<dyn FnOnce(u64) -> u64 + Send> = Box::new(move |now| u64::from(timer) ^ now);
        self.heap.push(LegacyEvent { time, seq, timer, cont });
    }
}

/// Runs the same storm through the legacy cost model: global mutex, binary
/// heap of boxed events, per-dispatch name clone, and one cross-thread
/// rendezvous per event standing in for the OS-thread process resumption
/// the old engine performed for every firing.
pub fn run_legacy_storm(timers: usize, ticks: u64) -> StormStats {
    let state = Arc::new(Mutex::new(LegacyState {
        heap: BinaryHeap::new(),
        names: HashMap::new(),
        remaining: HashMap::new(),
        next_seq: 0,
        now: 0,
    }));
    {
        let mut st = state.lock().unwrap();
        for i in 0..timers {
            let id = i as u32;
            st.names.insert(id, format!("timer{i}"));
            st.remaining.insert(id, ticks);
        }
        for i in 0..timers {
            st.schedule(stride(i), i as u32);
        }
    }

    type Job = (Box<dyn FnOnce(u64) -> u64 + Send>, u64);
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (done_tx, done_rx) = mpsc::channel::<u64>();
    let worker = std::thread::spawn(move || {
        while let Ok((cont, now)) = job_rx.recv() {
            let _ = done_tx.send(cont(now));
        }
    });

    let (mut fired, mut checksum, mut end_ns) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    loop {
        // Dispatch: lock, pop, clone the process name (the old dispatch
        // cloned it for tracing/telemetry), unlock, rendezvous.
        let (ev, _name) = {
            let mut st = state.lock().unwrap();
            let Some(ev) = st.heap.pop() else { break };
            st.now = ev.time;
            let name = st.names[&ev.timer].clone();
            (ev, name)
        };
        job_tx.send((ev.cont, ev.time)).expect("legacy worker died");
        let _ = done_rx.recv().expect("legacy worker died");
        fired += 1;
        end_ns = ev.time;
        checksum = fold(checksum, u64::from(ev.timer), ev.time);
        // Re-arm under the lock again, like a resumed process scheduling
        // its next sleep.
        let mut st = state.lock().unwrap();
        let rem = st.remaining.get_mut(&ev.timer).unwrap();
        *rem -= 1;
        if *rem > 0 {
            let at = ev.time + stride(ev.timer as usize);
            st.schedule(at, ev.timer);
        }
    }
    let wall = t0.elapsed();
    drop(job_tx);
    worker.join().expect("legacy worker panicked");
    assert_eq!(fired, timers as u64 * ticks, "legacy storm fired a wrong event count");
    StormStats { events: fired, end_ns, checksum, wall }
}

// ---- deterministic probe --------------------------------------------------

/// The deterministic probe: the fixed-size storm on the new engine, single
/// lane. Every field except `wall` is a virtual-time fact.
pub fn engine_probe() -> StormStats {
    run_timer_storm(PROBE_TIMERS, PROBE_TICKS, 1)
}

/// One line of the probe, stable across processes and machines — what the
/// determinism suite compares byte-for-byte.
pub fn probe_line() -> String {
    let p = engine_probe();
    format!("events={} end_ns={} checksum={:016x}", p.events, p.end_ns, p.checksum)
}

/// Runs both parts and exports `BENCH_engine.json` / `BENCH_engine_probe.json`.
pub fn print() {
    // Part B first: it also validates the legacy emulation against the
    // engine — identical (time, seq) fire order, therefore identical
    // checksums — so the Part A speedup compares like with like.
    let probe = engine_probe();
    let probe_sharded = run_timer_storm(PROBE_TIMERS, PROBE_TICKS, STORM_LANES);
    let probe_legacy = run_legacy_storm(PROBE_TIMERS, PROBE_TICKS);
    assert_eq!(
        probe.checksum, probe_legacy.checksum,
        "legacy emulation diverged from the engine's fire order"
    );
    assert_eq!(probe.checksum, probe_sharded.checksum, "lane sharding changed the fire order");
    crate::export_table(
        "engine_probe",
        "Engine determinism probe (virtual-time facts, machine-independent)",
        &["config", "events", "end ns", "fire-order checksum"],
        &[
            vec![
                "engine, 1 lane".into(),
                probe.events.to_string(),
                probe.end_ns.to_string(),
                format!("{:016x}", probe.checksum),
            ],
            vec![
                format!("engine, {STORM_LANES} lanes"),
                probe_sharded.events.to_string(),
                probe_sharded.end_ns.to_string(),
                format!("{:016x}", probe_sharded.checksum),
            ],
            vec![
                "legacy emulation".into(),
                probe_legacy.events.to_string(),
                probe_legacy.end_ns.to_string(),
                format!("{:016x}", probe_legacy.checksum),
            ],
        ],
    );

    // Part A: wall-clock throughput.
    let engine = run_timer_storm(STORM_TIMERS, STORM_TICKS, STORM_LANES);
    let legacy = run_legacy_storm(STORM_TIMERS, LEGACY_TICKS);
    let speedup = engine.eps() / legacy.eps();
    let row = |config: String, events: u64, wall: Duration, speedup: String| {
        let secs = wall.as_secs_f64().max(1e-9);
        vec![
            config,
            events.to_string(),
            format!("{:.2}", secs * 1e3),
            format!("{:.0}", events as f64 / secs),
            speedup,
            format!("{:.1}", secs * 1e9 / events.max(1) as f64),
        ]
    };
    let mut rows = vec![
        row(
            "legacy emulation (mutex+heap+boxed events+thread wake)".into(),
            legacy.events,
            legacy.wall,
            "1.00x".into(),
        ),
        row(
            format!("engine ({STORM_LANES} lanes, event arena, inline timers)"),
            engine.events,
            engine.wall,
            crate::fmt_speedup(speedup),
        ),
    ];
    for procs in YIELD_PROCS {
        let (yields, wall) = yield_cost(procs, YIELD_TOTAL);
        let plural = if procs == 1 { "process" } else { "processes" };
        rows.push(row(format!("yield_now, {procs} {plural}"), yields, wall, "-".into()));
    }
    crate::export_table(
        "engine",
        "Engine throughput: timer storm and process switches (wall clock)",
        &["config", "events", "wall ms", "events/sec", "speedup", "ns/event"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic_and_lane_invariant() {
        let a = engine_probe();
        let b = engine_probe();
        assert_eq!(a.events, b.events);
        assert_eq!(a.end_ns, b.end_ns);
        assert_eq!(a.checksum, b.checksum);
        let sharded = run_timer_storm(PROBE_TIMERS, PROBE_TICKS, STORM_LANES);
        assert_eq!(a.checksum, sharded.checksum);
        assert_eq!(a.end_ns, sharded.end_ns);
    }

    #[test]
    fn yield_cost_counts_every_timed_yield() {
        let (yields, wall) = yield_cost(16, 160);
        assert_eq!(yields, 160);
        assert!(wall > Duration::ZERO);
    }

    #[test]
    fn legacy_emulation_matches_engine_fire_order() {
        let engine = engine_probe();
        let legacy = run_legacy_storm(PROBE_TIMERS, PROBE_TICKS);
        assert_eq!(engine.events, legacy.events);
        assert_eq!(engine.end_ns, legacy.end_ns);
        assert_eq!(engine.checksum, legacy.checksum);
    }
}
