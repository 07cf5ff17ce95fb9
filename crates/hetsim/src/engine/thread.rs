//! The OS-thread process backend: each simulated process is a thread that
//! the scheduler resumes through a channel rendezvous and that reports back
//! on a second channel. It runs where the coroutine backend is not built,
//! and in tests as the reference the coroutine backend is compared with.

use std::thread::{self, JoinHandle};

use crossbeam::channel as xchan;

use super::{ResumeReason, YieldKind};

/// The scheduler's end of one process thread.
pub(crate) struct Resumer {
    resume_tx: xchan::Sender<ResumeReason>,
    yield_rx: xchan::Receiver<YieldKind>,
    thread: Option<JoinHandle<()>>,
}

/// The process thread's end: how it blocks until resumed.
pub(crate) struct Parker {
    resume_rx: xchan::Receiver<ResumeReason>,
    yield_tx: xchan::Sender<YieldKind>,
}

impl Parker {
    /// Tells the scheduler this process blocked and waits to be resumed. A
    /// closed channel means the scheduler is gone and reads as a cancel.
    pub(crate) fn suspend(&self) -> ResumeReason {
        let _ = self.yield_tx.send(YieldKind::Blocked);
        self.resume_rx.recv().unwrap_or(ResumeReason::Cancel)
    }
}

/// Starts the thread of a process named `name`. It waits for the first
/// resume: `Start` runs `body`, `Cancel` drops it unrun.
pub(crate) fn spawn<B>(name: &str, body: B) -> Resumer
where
    B: FnOnce(Parker) -> YieldKind + Send + 'static,
{
    let (resume_tx, resume_rx) = xchan::unbounded();
    let (yield_tx, yield_rx) = xchan::unbounded();
    let thread = thread::Builder::new()
        .name(format!("sim-{name}"))
        .spawn(move || {
            let kind = match resume_rx.recv() {
                Ok(ResumeReason::Start) => body(Parker { resume_rx, yield_tx: yield_tx.clone() }),
                Ok(ResumeReason::Cancel) | Err(_) => YieldKind::Cancelled,
                Ok(other) => unreachable!("first resume must be Start, got {other:?}"),
            };
            let _ = yield_tx.send(kind);
        })
        .expect("failed to spawn simulation process thread");
    Resumer { resume_tx, yield_rx, thread: Some(thread) }
}

impl Resumer {
    /// Resumes the thread and waits until it blocks or ends; an ended
    /// thread is joined.
    pub(crate) fn resume(&mut self, reason: ResumeReason) -> YieldKind {
        self.resume_tx.send(reason).expect("simulated process vanished while blocked");
        let kind = self.yield_rx.recv().expect("yield channel closed while a process was running");
        if !matches!(kind, YieldKind::Blocked) {
            if let Some(thread) = self.thread.take() {
                thread.join().expect("a process thread panicked outside its body");
            }
        }
        kind
    }
}
