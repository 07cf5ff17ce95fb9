//! Simulated processes: spawn, context and join handles.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::Mutex;
use telemetry::SpanContext;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use super::coro;
#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
use super::thread;
use super::{EngineShared, ResumeReason, SimReceiver, SimSender, YieldKind};
use crate::time::{SimDuration, SimTime};

/// Identifier of a simulated process, unique within one [`Simulation`].
///
/// Encoded as `(generation << 32) | slab index`: the engine's process table
/// is a generational slab indexed directly by the low 32 bits, so looking a
/// process up is an array probe (no hashing) and a recycled slot never
/// honors a stale id.
///
/// [`Simulation`]: super::Simulation
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(u64);

impl ProcId {
    pub(crate) fn from_parts(index: u32, generation: u32) -> Self {
        ProcId((u64::from(generation) << 32) | u64::from(index))
    }

    /// Slab index of this process (low 32 bits).
    pub(crate) fn index(self) -> u32 {
        self.0 as u32
    }

    /// Slot generation this id was minted under (high 32 bits).
    pub(crate) fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The raw numeric id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Sentinel panic payload used to unwind a simulated process on teardown.
struct Cancelled;

/// How the scheduler switches into a process: one per process, held in its
/// slot while the process is blocked.
pub(crate) enum Runner {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    Coro(coro::Coroutine),
    #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
    Thread(thread::Resumer),
}

/// What a simulation keeps for its processes between switches: the stack
/// pool on the coroutine backend, nothing on the thread backend.
#[derive(Default)]
pub(crate) struct Backend {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    stacks: coro::StackPool,
}

impl Backend {
    /// Process stacks mapped so far (0 on the thread backend).
    pub(crate) fn mapped_stacks(&self) -> usize {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        return self.stacks.mapped();
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        0
    }
}

impl Runner {
    /// Runs the process until it blocks or ends, and says which.
    pub(crate) fn resume(&mut self, backend: &mut Backend, reason: ResumeReason) -> YieldKind {
        match self {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Runner::Coro(c) => c.resume(&mut backend.stacks, reason),
            #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
            Runner::Thread(t) => {
                let _ = backend;
                t.resume(reason)
            }
        }
    }

    /// Tears the process down: a started process unwinds from the point it
    /// blocked at, running its destructors; one that never started is
    /// dropped unrun. A process that blocks again while unwinding is
    /// abandoned.
    pub(crate) fn cancel(mut self, backend: &mut Backend) {
        match &self {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Runner::Coro(c) if !c.is_started() => {}
            _ => {
                let _ = self.resume(backend, ResumeReason::Cancel);
            }
        }
    }
}

/// A running process's end of its backend: how it blocks.
enum Park {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    Coro(coro::Yielder),
    #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
    Thread(thread::Parker),
}

/// Execution context handed to every simulated process.
///
/// All blocking operations (sleeping, channel receives, joins) go through
/// this context so the scheduler can interleave processes deterministically.
pub struct ProcCtx {
    pub(crate) shared: Arc<EngineShared>,
    pub(crate) proc: ProcId,
    park: Park,
    name: String,
    /// Ambient telemetry span context; inherited by `spawn`ed children and
    /// updated by message receives that carry a piggybacked context.
    trace_ctx: Cell<Option<SpanContext>>,
    /// Telemetry lane (PU id) this process records on. Defaults to the
    /// engine lane until a shim or runtime pins the process to a PU.
    lane: Cell<u16>,
}

impl fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcCtx").field("proc", &self.proc).field("name", &self.name).finish()
    }
}

impl ProcCtx {
    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.proc
    }

    /// This process's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// The ambient telemetry span context, if a trace is active.
    pub fn trace_ctx(&self) -> Option<SpanContext> {
        self.trace_ctx.get()
    }

    /// Sets (or clears) the ambient telemetry span context.
    pub fn set_trace_ctx(&self, ctx: Option<SpanContext>) {
        self.trace_ctx.set(ctx);
    }

    /// The telemetry lane this process records on.
    pub fn lane(&self) -> u16 {
        self.lane.get()
    }

    /// Pins this process's telemetry events to lane `lane` (a PU id). When
    /// an event-lane plan is installed (see
    /// [`tune_event_lanes`](Self::tune_event_lanes)), the process's resume
    /// events also move to that PU's event lane (structural only — lane
    /// placement never changes dispatch order).
    pub fn set_lane(&self, lane: u16) {
        self.lane.set(lane);
        self.shared.set_proc_event_lane(self.proc, lane);
    }

    /// Re-shards the engine's pending-event structure per PU group; see
    /// [`Simulation::tune_event_lanes`](super::Simulation::tune_event_lanes).
    pub fn tune_event_lanes(&self, pu_lanes: &[u32], lookahead: SimDuration) {
        self.shared.tune_event_lanes(pu_lanes, lookahead);
    }

    /// Suspends the process for `d` of virtual time.
    pub fn sleep(&mut self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        self.shared.bump_resume_after(self.proc, d, ResumeReason::Woken);
        let reason = self.yield_and_wait();
        debug_assert_eq!(reason, ResumeReason::Woken);
    }

    /// Yields to the scheduler without advancing time (other events at the
    /// current instant run first).
    pub fn yield_now(&mut self) {
        self.shared.bump_resume_after(self.proc, SimDuration::ZERO, ResumeReason::Woken);
        let _ = self.yield_and_wait();
    }

    /// Spawns a sibling process that starts at the current virtual time.
    ///
    /// The child inherits this process's telemetry lane and span context,
    /// so a trace follows the request across spawns without explicit
    /// plumbing.
    pub fn spawn<T, F>(&self, name: &str, f: F) -> ProcHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
    {
        spawn_with(Arc::clone(&self.shared), name, self.trace_ctx.get(), self.lane.get(), f)
    }

    /// Creates an unbounded simulated channel.
    pub fn channel<T: Send + 'static>(&self) -> (SimSender<T>, SimReceiver<T>) {
        super::channel::channel(Arc::clone(&self.shared))
    }

    /// Creates a counting semaphore bound to this simulation.
    pub fn semaphore(&self, permits: u64) -> super::SimSemaphore {
        super::SimSemaphore::from_shared(Arc::clone(&self.shared), permits)
    }

    /// Parks this process until the scheduler resumes it.
    ///
    /// The caller must already have registered a wake-up (timer, channel
    /// waiter, ...) under the current wait generation.
    pub(crate) fn yield_and_wait(&mut self) -> ResumeReason {
        let reason = match &self.park {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Park::Coro(y) => y.suspend(),
            #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
            Park::Thread(p) => p.suspend(),
        };
        if reason == ResumeReason::Cancel {
            // Teardown: unwind to the body's `catch_unwind` without running
            // the panic hook, so nothing is printed.
            panic::resume_unwind(Box::new(Cancelled));
        }
        reason
    }

    /// Bumps and returns this process's wait generation.
    pub(crate) fn bump_gen(&self) -> u64 {
        self.shared.state.lock().bump_gen(self.proc)
    }
}

/// Handle to a spawned simulated process.
///
/// The handle can be kept outside the simulation (to harvest the result after
/// [`Simulation::run`]) or moved into another process, which may
/// [`join`](ProcHandle::join) it.
///
/// [`Simulation::run`]: super::Simulation::run
pub struct ProcHandle<T> {
    id: ProcId,
    name: String,
    result: Arc<Mutex<Option<T>>>,
    done_rx: SimReceiver<()>,
}

impl<T> fmt::Debug for ProcHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcHandle").field("id", &self.id).field("name", &self.name).finish()
    }
}

impl<T: Send + 'static> ProcHandle<T> {
    /// The process id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The process's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks the calling process until the spawned process finishes.
    pub fn join(&self, ctx: &mut ProcCtx) {
        // Either a completion token arrives, or the sender was dropped at
        // completion — both mean the process is done.
        let _ = self.done_rx.recv(ctx);
    }

    /// Takes the result if the process has finished; `None` otherwise (or if
    /// already taken).
    pub fn take_result(&self) -> Option<T> {
        self.result.lock().take()
    }

    /// True if the process has finished and its result is still available.
    pub fn is_finished(&self) -> bool {
        self.result.lock().is_some()
    }
}

pub(crate) fn spawn<T, F>(shared: Arc<EngineShared>, name: &str, f: F) -> ProcHandle<T>
where
    T: Send + 'static,
    F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
{
    spawn_with(shared, name, None, telemetry::ENGINE_LANE, f)
}

pub(crate) fn spawn_with<T, F>(
    shared: Arc<EngineShared>,
    name: &str,
    trace_ctx: Option<SpanContext>,
    lane: u16,
    f: F,
) -> ProcHandle<T>
where
    T: Send + 'static,
    F: FnOnce(&mut ProcCtx) -> T + Send + 'static,
{
    let result = Arc::new(Mutex::new(None));
    let (done_tx, done_rx) = super::channel::channel(Arc::clone(&shared));
    let body_result = Arc::clone(&result);
    let body_shared = Arc::clone(&shared);
    let body_name = name.to_owned();
    let id = shared.register_proc(name, |id| {
        // Runs on the process's own stack or thread; never unwinds.
        let body = move |park: Park| {
            let mut ctx = ProcCtx {
                shared: body_shared,
                proc: id,
                park,
                name: body_name,
                trace_ctx: Cell::new(trace_ctx),
                lane: Cell::new(lane),
            };
            match panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
                Ok(value) => {
                    *body_result.lock() = Some(value);
                    let _ = done_tx.send(());
                    YieldKind::Finished
                }
                Err(payload) if payload.is::<Cancelled>() => YieldKind::Cancelled,
                Err(payload) => YieldKind::Panicked(panic_message(payload)),
            }
        };
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            #[cfg(test)]
            if shared.thread_reference {
                return Runner::Thread(thread::spawn(name, move |p| body(Park::Thread(p))));
            }
            Runner::Coro(coro::Coroutine::new(Box::new(move |y| body(Park::Coro(y)))))
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        Runner::Thread(thread::spawn(name, move |p| body(Park::Thread(p))))
    });
    ProcHandle { id, name: name.to_owned(), result, done_rx }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_owned())
}
