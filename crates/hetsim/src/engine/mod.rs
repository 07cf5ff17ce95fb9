//! Deterministic discrete-event simulation engine.
//!
//! Simulated processes (the Molecule daemons, executors, shims and function
//! instances) are written in straight-line style: each is a stackful
//! coroutine that the scheduler resumes **one at a time**, SimPy-style, on
//! the thread that calls [`Simulation::run`]. Because exactly one process
//! runs between scheduler steps and ties are broken by a monotone sequence
//! number, every run of the same program is bit-for-bit identical.
//!
//! A switch into or out of a process saves and restores a few registers on
//! the calling thread (see `coro.rs`); it costs wall-clock time but zero
//! virtual time, which only advances through the event queue. On targets
//! other than x86_64 Linux each process is instead an OS thread resumed
//! through a channel rendezvous — the same protocol, and in tests the
//! reference the coroutine backend is checked against.
//!
//! # Event core
//!
//! Pending events live in a flat arena and are indexed by per-lane
//! hierarchical calendar queues (see [`queue`]): schedule and pop are O(1)
//! for the near-future common case, with no per-event heap allocation on
//! the [`Resume`](EventAction) and timer paths. Lanes shard the pending set
//! (per node/PU-group when [`Simulation::tune_event_lanes`] is called) but
//! are merged by exact `(time, seq)` order, so the dispatch sequence — and
//! with it every [`SchedulePolicy`] consultation, [`ChoicePoint`] log and
//! `SIMCHECK_REPLAY` blob — is byte-identical to a single global queue.
//!
//! For pure event-driven workloads that don't need a process stack, engine
//! [timers](Simulation::add_timer) fire a reusable callback without waking
//! any OS thread and re-arm without allocating.
//!
//! # Examples
//!
//! ```
//! use hetsim::engine::Simulation;
//! use hetsim::time::SimDuration;
//!
//! let mut sim = Simulation::new();
//! let (tx, rx) = sim.channel::<u32>();
//! sim.spawn("producer", move |ctx| {
//!     ctx.sleep(SimDuration::from_micros(5));
//!     tx.send(42).unwrap();
//! });
//! let got = sim.spawn("consumer", move |ctx| rx.recv(ctx).unwrap());
//! sim.run().unwrap();
//! assert_eq!(got.take_result(), Some(42));
//! ```

mod channel;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod coro;
#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
mod differential;
mod process;
pub mod queue;
mod schedule;
mod semaphore;
#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
mod thread;

pub use channel::{RecvError, RecvTimeoutError, SendError, SimReceiver, SimSender, TryRecvError};
pub use process::{ProcCtx, ProcHandle, ProcId};
pub use schedule::{ChoicePoint, FifoSeqPolicy, SchedulePolicy};
pub use semaphore::{SemPermit, SimSemaphore};

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::time::{SimDuration, SimTime};
use process::{Backend, Runner};
use queue::EventQueue;

/// Why a blocked process is being resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResumeReason {
    /// First activation of the process.
    Start,
    /// A waited-for condition became true (message arrived, timer fired).
    Woken,
    /// A `recv_timeout` deadline elapsed before the condition became true.
    Timeout,
    /// The simulation is being torn down; the process should exit silently.
    Cancel,
}

/// How a running process handed control back to the scheduler.
#[derive(Debug)]
pub(crate) enum YieldKind {
    /// It registered a wake-up and is waiting for it.
    Blocked,
    /// Its body returned.
    Finished,
    /// Its body panicked, with this message.
    Panicked(String),
    /// It was torn down: unwound from where it blocked, or dropped unstarted.
    Cancelled,
}

pub(crate) enum EventAction {
    /// Resume process `proc` if it is still blocked with wait generation `gen`.
    Resume { proc: ProcId, gen: u64, reason: ResumeReason },
    /// Fire engine timer `timer` on the scheduler thread (no OS thread wake,
    /// no allocation: the callback is registered once and re-armed in place).
    Tick { timer: u32 },
    /// Run a closure on the scheduler thread (no engine lock held).
    Call(Box<dyn FnOnce() + Send>),
}

impl fmt::Debug for EventAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventAction::Resume { proc, gen, reason } => f
                .debug_struct("Resume")
                .field("proc", proc)
                .field("gen", gen)
                .field("reason", reason)
                .finish(),
            EventAction::Tick { timer } => f.debug_struct("Tick").field("timer", timer).finish(),
            EventAction::Call(_) => f.write_str("Call(..)"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    Blocked,
    Running,
}

pub(crate) struct ProcSlot {
    pub name: String,
    /// Taken out by the scheduler while the process runs.
    runner: Option<Runner>,
    pub wait_gen: u64,
    pub state: ProcState,
    /// Event lane this process's resume events are filed under (structural
    /// only — never affects dispatch order).
    pub event_lane: u32,
}

/// Generational slab of process slots, indexed directly by [`ProcId`]
/// (`(generation << 32) | index`): O(1) probe with no hashing, iteration in
/// index order so deadlock reports and teardown are deterministic.
pub(crate) struct ProcSlab {
    entries: Vec<ProcEntry>,
    free: Vec<u32>,
    len: usize,
}

struct ProcEntry {
    gen: u32,
    slot: Option<ProcSlot>,
}

impl ProcSlab {
    fn new() -> Self {
        ProcSlab { entries: Vec::new(), free: Vec::new(), len: 0 }
    }

    fn insert(&mut self, slot: ProcSlot) -> ProcId {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            let e = &mut self.entries[idx as usize];
            debug_assert!(e.slot.is_none());
            e.slot = Some(slot);
            ProcId::from_parts(idx, e.gen)
        } else {
            let idx = u32::try_from(self.entries.len()).expect("proc slab overflow");
            self.entries.push(ProcEntry { gen: 0, slot: Some(slot) });
            ProcId::from_parts(idx, 0)
        }
    }

    pub fn get(&self, id: ProcId) -> Option<&ProcSlot> {
        let e = self.entries.get(id.index() as usize)?;
        if e.gen != id.generation() {
            return None;
        }
        e.slot.as_ref()
    }

    pub fn get_mut(&mut self, id: ProcId) -> Option<&mut ProcSlot> {
        let e = self.entries.get_mut(id.index() as usize)?;
        if e.gen != id.generation() {
            return None;
        }
        e.slot.as_mut()
    }

    fn remove(&mut self, id: ProcId) -> Option<ProcSlot> {
        let e = self.entries.get_mut(id.index() as usize)?;
        if e.gen != id.generation() || e.slot.is_none() {
            return None;
        }
        e.gen = e.gen.wrapping_add(1);
        self.free.push(id.index());
        self.len -= 1;
        e.slot.take()
    }

    /// Live slots in index order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &ProcSlot> {
        self.entries.iter().filter_map(|e| e.slot.as_ref())
    }

    /// Ids of the blocked processes, in index order.
    fn blocked(&self) -> Vec<ProcId> {
        let ids = self.entries.iter().enumerate().filter_map(|(idx, e)| {
            let slot = e.slot.as_ref()?;
            (slot.state == ProcState::Blocked).then(|| ProcId::from_parts(idx as u32, e.gen))
        });
        ids.collect()
    }

    fn event_lane(&self, id: ProcId) -> u32 {
        self.get(id).map(|s| s.event_lane).unwrap_or(0)
    }

    /// Reassigns every live process's event lane round-robin by slab index
    /// (used when the lane count changes).
    fn relane(&mut self, lanes: u32) {
        for (idx, e) in self.entries.iter_mut().enumerate() {
            if let Some(slot) = e.slot.as_mut() {
                slot.event_lane = idx as u32 % lanes.max(1);
            }
        }
    }
}

pub(crate) struct EngineState {
    pub now: SimTime,
    events: EventQueue<EventAction>,
    pub procs: ProcSlab,
    pub live: usize,
    trace: Option<Vec<String>>,
    /// Event lane per PU id, installed by `tune_event_lanes`; empty until
    /// a topology is wired (single-lane operation).
    lane_of_pu: Vec<u32>,
}

/// Default log2 of the level-0 calendar bucket width (4.1 µs — the order of
/// the machine's interconnect latencies).
const DEFAULT_BUCKET_BITS: u32 = 12;

/// Derives the calendar bucket width from the topology's conservative
/// lookahead (its minimum link latency): one bucket ≈ one lookahead window,
/// clamped to [512 ns, 65 µs].
fn bucket_bits_for(lookahead: SimDuration) -> u32 {
    let ns = lookahead.as_nanos().max(1);
    (63 - u64::leading_zeros(ns)).clamp(9, 16)
}

impl EngineState {
    /// Event lane an action is filed under. Structural only: lanes never
    /// change pop order, so any mapping here is behavior-neutral.
    fn lane_for(&self, action: &EventAction) -> usize {
        match action {
            EventAction::Resume { proc, .. } => self.procs.event_lane(*proc) as usize,
            EventAction::Tick { timer } => *timer as usize,
            EventAction::Call(_) => 0,
        }
    }

    pub(crate) fn schedule(&mut self, at: SimTime, action: EventAction) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        let lane = self.lane_for(&action);
        self.events.push(lane, at.as_nanos(), action);
    }

    pub(crate) fn bump_gen(&mut self, proc: ProcId) -> u64 {
        let slot = self.procs.get_mut(proc).expect("bump_gen on unknown proc");
        slot.wait_gen += 1;
        slot.wait_gen
    }
}

pub(crate) struct EngineShared {
    pub state: Mutex<EngineState>,
    /// Run this simulation's processes on the OS-thread reference backend.
    #[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
    pub thread_reference: bool,
}

/// Emits the "wake proc#N" engine instant, outside any engine lock and only
/// when the engine telemetry lane is enabled (the format! is never built
/// otherwise).
#[inline]
fn wake_instant(at: SimTime, proc: ProcId) {
    if telemetry::engine_instants() {
        telemetry::with(|r| {
            r.instant(telemetry::ENGINE_LANE, at.as_nanos(), &format!("wake {proc}"), None);
        });
    }
}

impl EngineShared {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.state.lock().now
    }

    /// Schedule a resume for `(proc, gen)` at `at`.
    pub(crate) fn schedule_resume(
        &self,
        at: SimTime,
        proc: ProcId,
        gen: u64,
        reason: ResumeReason,
    ) {
        let at = {
            let mut st = self.state.lock();
            let at = at.max(st.now);
            st.schedule(at, EventAction::Resume { proc, gen, reason });
            at
        };
        wake_instant(at, proc);
    }

    /// Schedule a resume for `(proc, gen)` at the current instant — the
    /// single-lock fast path for channel deliveries and semaphore wakes.
    pub(crate) fn schedule_resume_now(&self, proc: ProcId, gen: u64, reason: ResumeReason) {
        let at = {
            let mut st = self.state.lock();
            let at = st.now;
            st.schedule(at, EventAction::Resume { proc, gen, reason });
            at
        };
        wake_instant(at, proc);
    }

    /// Bumps `proc`'s wait generation and schedules its resume `d` from now
    /// under one lock — the sleep/yield fast path.
    pub(crate) fn bump_resume_after(&self, proc: ProcId, d: SimDuration, reason: ResumeReason) {
        let at = {
            let mut st = self.state.lock();
            let gen = st.bump_gen(proc);
            let at = st.now + d;
            st.schedule(at, EventAction::Resume { proc, gen, reason });
            at
        };
        wake_instant(at, proc);
    }

    /// Schedule a closure to run on the scheduler thread at `at`.
    pub(crate) fn schedule_call(&self, at: SimTime, f: Box<dyn FnOnce() + Send>) {
        let mut st = self.state.lock();
        let at = at.max(st.now);
        st.schedule(at, EventAction::Call(f));
    }

    /// Re-shards the pending-event structure into `max(pu_lanes)+1` lanes
    /// with calendar buckets sized to `lookahead`. Pending events are
    /// re-filed under their original `(time, seq)` keys, so behavior is
    /// unchanged.
    pub(crate) fn tune_event_lanes(&self, pu_lanes: &[u32], lookahead: SimDuration) {
        let mut st = self.state.lock();
        let lanes = pu_lanes.iter().map(|&l| l as usize + 1).max().unwrap_or(1);
        let bucket_bits = bucket_bits_for(lookahead);
        st.lane_of_pu = pu_lanes.to_vec();
        st.procs.relane(lanes as u32);
        let next_seq = st.events.next_seq();
        let mut old =
            std::mem::replace(&mut st.events, EventQueue::new(lanes, bucket_bits, next_seq));
        while let Some((t, seq, _lane, action)) = old.pop() {
            let lane = st.lane_for(&action);
            st.events.push_at(lane, t, seq, action);
        }
    }

    /// Files `proc`'s future resume events under the event lane of PU `pu`
    /// (when a lane plan is installed). Structural only.
    pub(crate) fn set_proc_event_lane(&self, proc: ProcId, pu: u16) {
        let mut st = self.state.lock();
        if let Some(&lane) = st.lane_of_pu.get(pu as usize) {
            if let Some(slot) = st.procs.get_mut(proc) {
                slot.event_lane = lane;
            }
        }
    }

    /// Adds a blocked process whose runner `make_runner` builds from its
    /// id, and schedules its start at the current instant.
    fn register_proc(&self, name: &str, make_runner: impl FnOnce(ProcId) -> Runner) -> ProcId {
        let mut st = self.state.lock();
        let lanes = st.events.lanes() as u32;
        let id = st.procs.insert(ProcSlot {
            name: name.to_owned(),
            runner: None,
            wait_gen: 0,
            state: ProcState::Blocked,
            event_lane: 0,
        });
        if let Some(slot) = st.procs.get_mut(id) {
            slot.event_lane = id.index() % lanes.max(1);
            slot.runner = Some(make_runner(id));
        }
        st.live += 1;
        let now = st.now;
        st.schedule(now, EventAction::Resume { proc: id, gen: 0, reason: ResumeReason::Start });
        id
    }
}

/// Errors produced by [`Simulation::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while processes were still blocked.
    Deadlock {
        /// Names of the processes that can never make progress.
        blocked: Vec<String>,
    },
    /// A simulated process panicked.
    ProcessPanicked {
        /// Name of the panicked process.
        name: String,
        /// Best-effort panic message.
        message: String,
    },
    /// The configured event budget was exhausted (runaway simulation guard).
    EventLimitExceeded {
        /// The budget that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { blocked } => {
                write!(f, "simulation deadlocked with blocked processes: {blocked:?}")
            }
            SimError::ProcessPanicked { name, message } => {
                write!(f, "simulated process '{name}' panicked: {message}")
            }
            SimError::EventLimitExceeded { limit } => {
                write!(f, "simulation exceeded the event budget of {limit}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary of a completed simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time when the event queue drained.
    pub end_time: SimTime,
    /// Total number of events fired.
    pub events_fired: u64,
    /// Resume trace (only populated if tracing was enabled).
    pub trace: Vec<String>,
}

/// Handle to an engine timer registered with [`Simulation::add_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u32);

/// Context handed to a firing engine timer.
///
/// Timers are the allocation-free event path: the callback is registered
/// once, fires on the scheduler thread (no process stack, no OS thread
/// wake-up) and may re-arm itself in place.
#[derive(Debug)]
pub struct TimerCtx {
    now: SimTime,
    rearm: Option<SimTime>,
}

impl TimerCtx {
    /// The virtual instant this timer is firing at.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Re-arms the timer to fire again at `at` (clamped to now).
    pub fn rearm_at(&mut self, at: SimTime) {
        self.rearm = Some(at);
    }

    /// Re-arms the timer to fire again `d` after the current firing.
    pub fn rearm_after(&mut self, d: SimDuration) {
        self.rearm = Some(self.now + d);
    }
}

type TimerCallback = Box<dyn FnMut(&mut TimerCtx)>;

/// A deterministic discrete-event simulation.
///
/// See the [module documentation](self) for an overview and example.
pub struct Simulation {
    shared: Arc<EngineShared>,
    backend: Backend,
    event_limit: u64,
    events_fired: u64,
    policy: Option<Box<dyn SchedulePolicy>>,
    choice_log: Vec<ChoicePoint>,
    step_observer: Option<Box<dyn FnMut()>>,
    timers: Vec<Option<TimerCallback>>,
    /// `!Send`: processes run on the thread that runs the simulation, and
    /// a suspended process's stack must be resumed on that same thread.
    _on_one_thread: PhantomData<*const ()>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at `t = 0`.
    pub fn new() -> Self {
        Simulation {
            shared: Arc::new(EngineShared {
                state: Mutex::new(EngineState {
                    now: SimTime::ZERO,
                    events: EventQueue::new(1, DEFAULT_BUCKET_BITS, 0),
                    procs: ProcSlab::new(),
                    live: 0,
                    trace: None,
                    lane_of_pu: Vec::new(),
                }),
                #[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
                thread_reference: false,
            }),
            backend: Backend::default(),
            event_limit: u64::MAX,
            events_fired: 0,
            policy: None,
            choice_log: Vec::new(),
            step_observer: None,
            timers: Vec::new(),
            _on_one_thread: PhantomData,
        }
    }

    /// A simulation whose processes run as OS threads: the reference the
    /// coroutine backend is tested against.
    #[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
    pub(crate) fn with_thread_reference() -> Self {
        let mut sim = Simulation::new();
        Arc::get_mut(&mut sim.shared).expect("a new simulation is unshared").thread_reference =
            true;
        sim
    }

    /// Process stacks this simulation has mapped. A finished process's
    /// stack is reused by the next one to start, so this follows the peak
    /// number of live processes, not the number spawned. Always 0 where
    /// processes run as OS threads (targets other than x86_64 Linux).
    pub fn mapped_stacks(&self) -> usize {
        self.backend.mapped_stacks()
    }

    /// Caps the number of events a [`run`](Self::run) may fire (runaway guard).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Installs a [`SchedulePolicy`] that breaks same-instant ties.
    ///
    /// Every consulted tie is recorded as a [`ChoicePoint`]; harvest the log
    /// with [`take_choice_log`](Self::take_choice_log) after (or instead of)
    /// a successful run — the log survives an erroring run too.
    pub fn set_schedule_policy(&mut self, policy: Box<dyn SchedulePolicy>) {
        self.policy = Some(policy);
    }

    /// Takes the tie-break decisions recorded so far, leaving the log empty.
    pub fn take_choice_log(&mut self) -> Vec<ChoicePoint> {
        std::mem::take(&mut self.choice_log)
    }

    /// Installs a closure invoked after every fired event, with no engine
    /// lock held and no simulated process running — the safe window for
    /// invariant oracles to snapshot shared state.
    pub fn set_step_observer(&mut self, obs: Box<dyn FnMut()>) {
        self.step_observer = Some(obs);
    }

    /// Records the name of every resumed process; the log is returned in the
    /// [`RunReport`] and is useful for determinism assertions.
    pub fn enable_trace(&mut self) {
        self.shared.state.lock().trace = Some(Vec::new());
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Re-shards pending events into per-PU-group lanes (`pu_lanes[pu]` maps
    /// each PU id to a lane, typically its node) with calendar buckets sized
    /// to the topology's conservative `lookahead` (minimum link latency).
    ///
    /// Purely structural: events are merged by exact `(time, seq)` order, so
    /// results are byte-identical with any lane plan.
    pub fn tune_event_lanes(&mut self, pu_lanes: &[u32], lookahead: SimDuration) {
        self.shared.tune_event_lanes(pu_lanes, lookahead);
    }

    /// Registers an engine timer; it does nothing until
    /// [`arm_timer`](Self::arm_timer) schedules its first firing.
    ///
    /// Timers fire on the scheduler thread with no process stack and re-arm
    /// without allocating — the fast path for clocks, retransmits and other
    /// pure event-driven load.
    pub fn add_timer<F>(&mut self, f: F) -> TimerId
    where
        F: FnMut(&mut TimerCtx) + 'static,
    {
        let id = u32::try_from(self.timers.len()).expect("timer table overflow");
        self.timers.push(Some(Box::new(f)));
        TimerId(id)
    }

    /// Schedules the next firing of `timer` at `at` (clamped to now).
    pub fn arm_timer(&mut self, timer: TimerId, at: SimTime) {
        let mut st = self.shared.state.lock();
        let at = at.max(st.now);
        st.schedule(at, EventAction::Tick { timer: timer.0 });
    }

    /// Creates an unbounded simulated channel.
    pub fn channel<T: Send + 'static>(&self) -> (SimSender<T>, SimReceiver<T>) {
        channel::channel(Arc::clone(&self.shared))
    }

    /// Spawns a simulated process; it first runs when the simulation does.
    ///
    /// The returned handle exposes the process result after it finishes (see
    /// [`ProcHandle::take_result`]) and can be joined from other processes.
    pub fn spawn<T, F>(&self, name: &str, f: F) -> ProcHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
    {
        process::spawn(Arc::clone(&self.shared), name, f)
    }

    /// Runs the simulation until the event queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if processes remain blocked with no
    /// pending events, [`SimError::ProcessPanicked`] if a process panics, and
    /// [`SimError::EventLimitExceeded`] if the event budget is exhausted.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        loop {
            if self.events_fired >= self.event_limit {
                return Err(SimError::EventLimitExceeded { limit: self.event_limit });
            }
            let (now, action) = {
                let mut st = self.shared.state.lock();
                match st.events.pop() {
                    Some((t_ns, seq, lane, action)) => {
                        let t = SimTime::from_nanos(t_ns);
                        debug_assert!(t >= st.now, "event queue went backwards");
                        st.now = t;
                        let action = match self.policy.as_mut() {
                            Some(policy) => {
                                // Gather every event runnable at this instant.
                                // Pops come out in (time, seq) order, so the
                                // batch is already seq-sorted and index 0 is
                                // what the default tie-break would run.
                                let mut batch = vec![(t_ns, seq, lane, action)];
                                while st.events.peek().is_some_and(|(pt, _)| pt == t_ns) {
                                    batch.push(st.events.pop().expect("peeked event vanished"));
                                }
                                let arity = batch.len();
                                let chosen = if arity > 1 {
                                    let c = policy.choose(t, arity).min(arity - 1);
                                    self.choice_log.push(ChoicePoint {
                                        arity: arity as u32,
                                        chosen: c as u32,
                                    });
                                    c
                                } else {
                                    0
                                };
                                let (_, _, _, action) = batch.remove(chosen);
                                // Deferred events keep their original keys.
                                for (bt, bs, blane, baction) in batch {
                                    st.events.push_at(blane, bt, bs, baction);
                                }
                                action
                            }
                            None => action,
                        };
                        (t, action)
                    }
                    None => {
                        if st.live == 0 {
                            let trace = st.trace.take().unwrap_or_default();
                            return Ok(RunReport {
                                end_time: st.now,
                                events_fired: self.events_fired,
                                trace,
                            });
                        }
                        let blocked = st
                            .procs
                            .iter()
                            .filter(|p| p.state == ProcState::Blocked)
                            .map(|p| p.name.clone())
                            .collect();
                        return Err(SimError::Deadlock { blocked });
                    }
                }
            };
            self.events_fired += 1;
            match action {
                EventAction::Call(f) => f(),
                EventAction::Tick { timer } => {
                    let mut tctx = TimerCtx { now, rearm: None };
                    if let Some(Some(cb)) = self.timers.get_mut(timer as usize) {
                        cb(&mut tctx);
                    }
                    if let Some(at) = tctx.rearm {
                        let mut st = self.shared.state.lock();
                        let at = at.max(st.now);
                        st.schedule(at, EventAction::Tick { timer });
                    }
                }
                EventAction::Resume { proc, gen, reason } => {
                    let tele_on = telemetry::engine_instants();
                    let (mut runner, name) = {
                        let mut st = self.shared.state.lock();
                        let trace_on = st.trace.is_some();
                        let Some(slot) = st.procs.get_mut(proc).filter(|slot| {
                            slot.state == ProcState::Blocked && slot.wait_gen == gen
                        }) else {
                            // Stale wake-up (e.g. raced timeout) or finished.
                            continue;
                        };
                        slot.state = ProcState::Running;
                        let runner = slot.runner.take().expect("a blocked process has a runner");
                        let name = (trace_on || tele_on).then(|| slot.name.clone());
                        if trace_on {
                            if let Some(name) = &name {
                                let entry = format!("{now} {name}");
                                st.trace.as_mut().expect("trace enabled").push(entry);
                            }
                        }
                        (runner, name)
                    };
                    // Telemetry runs outside the state lock, and the
                    // "dispatch" string is only built when the engine lane
                    // is actually recording.
                    if tele_on {
                        let name = name.as_deref().unwrap_or("");
                        telemetry::with(|r| {
                            r.instant(
                                telemetry::ENGINE_LANE,
                                now.as_nanos(),
                                &format!("dispatch {name}"),
                                None,
                            );
                        });
                    }
                    telemetry::counter_add("engine.dispatches", 1);
                    let kind = runner.resume(&mut self.backend, reason);
                    let mut st = self.shared.state.lock();
                    match kind {
                        YieldKind::Blocked => {
                            if let Some(slot) = st.procs.get_mut(proc) {
                                slot.state = ProcState::Blocked;
                                slot.runner = Some(runner);
                            }
                        }
                        YieldKind::Finished | YieldKind::Cancelled => {
                            st.procs.remove(proc);
                            st.live -= 1;
                        }
                        YieldKind::Panicked(message) => {
                            // (step observer intentionally skipped: the run is
                            // about to abort and report the panic instead.)
                            let name = st
                                .procs
                                .remove(proc)
                                .map(|s| s.name)
                                .unwrap_or_else(|| "<unknown>".to_owned());
                            st.live -= 1;
                            drop(st);
                            // Surface the last recorded events alongside the
                            // crash so failures are debuggable post-mortem.
                            if let Some(dump) = telemetry::flight_dump() {
                                eprintln!("process '{name}' panicked; {dump}");
                            }
                            return Err(SimError::ProcessPanicked { name, message });
                        }
                    }
                }
            }
            if let Some(obs) = self.step_observer.as_mut() {
                obs();
            }
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Tear down every blocked process in slab order, one at a time and
        // with no lock held: its destructors may wake, spawn or drop other
        // processes, so repeat until none is left. A started process unwinds
        // from where it blocked, so its destructors run exactly once; an
        // unstarted one is dropped unrun.
        loop {
            let blocked = self.shared.state.lock().procs.blocked();
            if blocked.is_empty() {
                break;
            }
            for proc in blocked {
                let runner = {
                    let mut st = self.shared.state.lock();
                    match st.procs.get_mut(proc) {
                        Some(slot) if slot.state == ProcState::Blocked => {
                            slot.state = ProcState::Running;
                            slot.runner.take()
                        }
                        _ => continue,
                    }
                };
                if let Some(runner) = runner {
                    runner.cancel(&mut self.backend);
                }
                let mut st = self.shared.state.lock();
                st.procs.remove(proc);
                st.live -= 1;
            }
        }
    }
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.shared.state.lock();
        f.debug_struct("Simulation")
            .field("now", &st.now)
            .field("live_procs", &st.live)
            .field("pending_events", &st.events.len())
            .field("event_lanes", &st.events.lanes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let mut sim = Simulation::new();
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.events_fired, 0);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Simulation::new();
        let h = sim.spawn("sleeper", |ctx| {
            ctx.sleep(SimDuration::from_millis(3));
            ctx.now()
        });
        let report = sim.run().unwrap();
        assert_eq!(h.take_result(), Some(SimTime::from_nanos(3_000_000)));
        assert_eq!(report.end_time, SimTime::from_nanos(3_000_000));
    }

    #[test]
    fn two_processes_interleave_deterministically() {
        let order = |seed_name: &str| {
            let mut sim = Simulation::new();
            sim.enable_trace();
            for i in 0..4 {
                let name = format!("{seed_name}{i}");
                sim.spawn(&name, move |ctx| {
                    ctx.sleep(SimDuration::from_micros(10 - i));
                });
            }
            sim.run().unwrap().trace
        };
        assert_eq!(order("p"), order("p"));
    }

    #[test]
    fn channel_roundtrip() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<String>();
        sim.spawn("producer", move |ctx| {
            ctx.sleep(SimDuration::from_micros(7));
            tx.send("hello".to_owned()).unwrap();
        });
        let h = sim.spawn("consumer", move |ctx| {
            let msg = rx.recv(ctx).unwrap();
            (msg, ctx.now())
        });
        sim.run().unwrap();
        let (msg, at) = h.take_result().unwrap();
        assert_eq!(msg, "hello");
        assert_eq!(at, SimTime::from_nanos(7_000));
    }

    #[test]
    fn delayed_send_arrives_later() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>();
        sim.spawn("producer", move |_ctx| {
            tx.send_delayed(SimDuration::from_micros(50), 9).unwrap();
        });
        let h = sim.spawn("consumer", move |ctx| {
            rx.recv(ctx).unwrap();
            ctx.now()
        });
        sim.run().unwrap();
        assert_eq!(h.take_result(), Some(SimTime::from_nanos(50_000)));
    }

    #[test]
    fn recv_timeout_fires() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>();
        let h = sim.spawn("consumer", move |ctx| {
            let r = rx.recv_timeout(ctx, SimDuration::from_micros(10));
            (r, ctx.now())
        });
        // Keep the sender alive past the deadline so the timeout (not a
        // disconnect) is what fires.
        sim.spawn("idle-holder", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            drop(tx);
        });
        sim.run().unwrap();
        let (r, at) = h.take_result().unwrap();
        assert_eq!(r, Err(RecvTimeoutError::Timeout));
        assert_eq!(at, SimTime::from_nanos(10_000));
    }

    #[test]
    fn recv_timeout_receives_if_in_time() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>();
        sim.spawn("producer", move |ctx| {
            ctx.sleep(SimDuration::from_micros(3));
            tx.send(1).unwrap();
        });
        let h =
            sim.spawn("consumer", move |ctx| rx.recv_timeout(ctx, SimDuration::from_micros(10)));
        sim.run().unwrap();
        assert_eq!(h.take_result(), Some(Ok(1)));
    }

    #[test]
    fn disconnected_sender_errors_receiver() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>();
        sim.spawn("producer", move |ctx| {
            ctx.sleep(SimDuration::from_micros(2));
            drop(tx);
        });
        let h = sim.spawn("consumer", move |ctx| rx.recv(ctx));
        sim.run().unwrap();
        assert_eq!(h.take_result(), Some(Err(RecvError::Disconnected)));
    }

    #[test]
    fn deadlock_is_reported() {
        let mut sim = Simulation::new();
        let (_tx, rx) = sim.channel::<u8>();
        sim.spawn("stuck", move |ctx| {
            let _ = rx.recv(ctx);
        });
        match sim.run() {
            Err(SimError::Deadlock { blocked }) => assert_eq!(blocked, vec!["stuck".to_owned()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn panic_in_process_is_reported() {
        let mut sim = Simulation::new();
        sim.spawn("bad", |_ctx| panic!("boom {}", 42));
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "bad");
                assert!(message.contains("boom 42"), "message was {message:?}");
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn nested_spawn_and_join() {
        let mut sim = Simulation::new();
        let h = sim.spawn("parent", |ctx| {
            let child = ctx.spawn("child", |ctx| {
                ctx.sleep(SimDuration::from_micros(30));
                7u32
            });
            child.join(ctx);
            (child.take_result().unwrap(), ctx.now())
        });
        sim.run().unwrap();
        let (v, t) = h.take_result().unwrap();
        assert_eq!(v, 7);
        assert_eq!(t, SimTime::from_nanos(30_000));
    }

    #[test]
    fn event_limit_guards_runaway_loops() {
        let mut sim = Simulation::new();
        sim.set_event_limit(100);
        sim.spawn("spinner", |ctx| loop {
            ctx.sleep(SimDuration::from_nanos(1));
        });
        assert_eq!(sim.run(), Err(SimError::EventLimitExceeded { limit: 100 }));
    }

    #[test]
    fn try_recv_never_blocks() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>();
        let h = sim.spawn("consumer", move |ctx| {
            let empty = rx.try_recv();
            ctx.sleep(SimDuration::from_micros(1));
            tx.send(5).unwrap();
            let full = rx.try_recv();
            (empty, full)
        });
        sim.run().unwrap();
        let (empty, full) = h.take_result().unwrap();
        assert_eq!(empty, Err(TryRecvError::Empty));
        assert_eq!(full, Ok(5));
    }

    #[test]
    fn many_messages_preserve_fifo_order() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u32>();
        sim.spawn("producer", move |ctx| {
            for i in 0..100 {
                ctx.sleep(SimDuration::from_nanos(10));
                tx.send(i).unwrap();
            }
        });
        let h = sim.spawn("consumer", move |ctx| {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv(ctx) {
                got.push(v);
            }
            got
        });
        sim.run().unwrap();
        assert_eq!(h.take_result().unwrap(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn timers_fire_in_order_and_rearm_without_procs() {
        let fired = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let f1 = std::rc::Rc::clone(&fired);
        let t1 = sim.add_timer(move |tc| {
            f1.borrow_mut().push(("a", tc.now().as_nanos()));
            if tc.now().as_nanos() < 3_000 {
                tc.rearm_after(SimDuration::from_micros(1));
            }
        });
        let f2 = std::rc::Rc::clone(&fired);
        let t2 = sim.add_timer(move |tc| {
            f2.borrow_mut().push(("b", tc.now().as_nanos()));
        });
        sim.arm_timer(t1, SimTime::from_nanos(1_000));
        sim.arm_timer(t2, SimTime::from_nanos(2_500));
        let report = sim.run().unwrap();
        assert_eq!(*fired.borrow(), vec![("a", 1_000), ("a", 2_000), ("b", 2_500), ("a", 3_000)]);
        assert_eq!(report.end_time, SimTime::from_nanos(3_000));
        assert_eq!(report.events_fired, 4);
    }

    #[test]
    fn lane_tuning_does_not_change_behavior() {
        // The same program with 1 lane and with 8 lanes + retune mid-setup
        // must produce identical traces, end times and event counts.
        let run = |lanes: bool| {
            let mut sim = Simulation::new();
            sim.enable_trace();
            if lanes {
                sim.tune_event_lanes(&[0, 1, 2, 3, 4, 5, 6, 7], SimDuration::from_micros(3));
            }
            let (tx, rx) = sim.channel::<u32>();
            for i in 0..6u32 {
                let tx = tx.clone();
                sim.spawn(&format!("w{i}"), move |ctx| {
                    ctx.sleep(SimDuration::from_micros((i as u64 * 7) % 5));
                    tx.send(i).unwrap();
                    ctx.sleep(SimDuration::from_micros(2));
                });
            }
            drop(tx);
            let h = sim.spawn("reader", move |ctx| {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv(ctx) {
                    got.push(v);
                }
                got
            });
            let report = sim.run().unwrap();
            (report.trace, report.end_time, report.events_fired, h.take_result().unwrap())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn retune_mid_run_preserves_pending_events() {
        let mut sim = Simulation::new();
        let h = sim.spawn("sleeper", |ctx| {
            ctx.sleep(SimDuration::from_millis(5));
            ctx.now()
        });
        // Retune while the sleeper's resume event is pending: it must be
        // re-filed under its original key and still fire at 5 ms.
        let shared = Arc::clone(&sim.shared);
        let lanes = vec![0, 0, 1, 1];
        sim.spawn("tuner", move |ctx| {
            ctx.sleep(SimDuration::from_micros(1));
            let _ = &shared;
            shared.tune_event_lanes(&lanes, SimDuration::from_micros(8));
        });
        sim.run().unwrap();
        assert_eq!(h.take_result(), Some(SimTime::from_nanos(5_000_000)));
    }
}
