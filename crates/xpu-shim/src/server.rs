//! Multi-threaded XPUcall handling (paper §5).
//!
//! "XPU-Shim also supports multi-threaded handling for XPUcall-intensive
//! scenarios, in which each XPU-Shim thread will handle a dedicated MPSC
//! queue. An alternative implementation is to use the Multi-Producer
//! Multi-Consumer queue to allow work-stealing."
//!
//! [`ShimServer`] implements both disciplines with *real* threads:
//!
//! * [`QueueDiscipline::PerThread`] — producers are statically partitioned
//!   (by `xpu_pid` hash) across dedicated [`NotifyQueue`]s, one shim thread
//!   each — no cross-thread coordination, but a hot producer can overload
//!   its thread;
//! * [`QueueDiscipline::WorkStealing`] — one injector feeding per-thread
//!   crossbeam deques with stealing, which balances skew at the price of
//!   occasional cross-thread traffic.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::deque::{Injector, Stealer, Worker};

use crate::id::XpuPid;
use crate::mpsc::NotifyQueue;

/// How XPUcall notifications are distributed across shim threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// One dedicated MPSC queue per shim thread; producers partition by pid.
    PerThread {
        /// Number of shim threads (and queues).
        threads: usize,
    },
    /// A shared injector with per-thread work-stealing deques.
    WorkStealing {
        /// Number of shim threads.
        threads: usize,
    },
}

enum Backend {
    PerThread(Vec<Arc<NotifyQueue>>),
    WorkStealing(Arc<Injector<XpuPid>>),
}

/// A running multi-threaded XPUcall server.
///
/// Each handled notification invokes the server's handler exactly once;
/// per-thread handled counts are exposed for balance inspection.
pub struct ShimServer {
    backend: Backend,
    stop: Arc<AtomicBool>,
    handled: Arc<Vec<AtomicU64>>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ShimServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShimServer")
            .field("threads", &self.threads.len())
            .field("handled", &self.total_handled())
            .finish()
    }
}

impl ShimServer {
    /// Starts the server with the given discipline. `handler` runs on a shim
    /// thread for every notification (it must be cheap and thread-safe).
    pub fn start<F>(discipline: QueueDiscipline, handler: F) -> ShimServer
    where
        F: Fn(usize, XpuPid) + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        let stop = Arc::new(AtomicBool::new(false));
        match discipline {
            QueueDiscipline::PerThread { threads } => {
                let n = threads.max(1);
                let queues: Vec<Arc<NotifyQueue>> =
                    (0..n).map(|_| Arc::new(NotifyQueue::with_capacity(4096))).collect();
                let handled: Arc<Vec<AtomicU64>> =
                    Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
                let mut joins = Vec::new();
                for (i, queue) in queues.iter().enumerate() {
                    let queue = Arc::clone(queue);
                    let stop = Arc::clone(&stop);
                    let handled = Arc::clone(&handled);
                    let handler = Arc::clone(&handler);
                    joins.push(std::thread::spawn(move || loop {
                        match queue.pop() {
                            Some(pid) => {
                                handler(i, pid);
                                handled[i].fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                if stop.load(Ordering::Relaxed) && queue.is_empty() {
                                    return;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }));
                }
                ShimServer { backend: Backend::PerThread(queues), stop, handled, threads: joins }
            }
            QueueDiscipline::WorkStealing { threads } => {
                let n = threads.max(1);
                let injector = Arc::new(Injector::new());
                let workers: Vec<Worker<XpuPid>> = (0..n).map(|_| Worker::new_fifo()).collect();
                let stealers: Arc<Vec<Stealer<XpuPid>>> =
                    Arc::new(workers.iter().map(Worker::stealer).collect());
                let handled: Arc<Vec<AtomicU64>> =
                    Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
                let mut joins = Vec::new();
                for (i, worker) in workers.into_iter().enumerate() {
                    let injector = Arc::clone(&injector);
                    let stealers = Arc::clone(&stealers);
                    let stop = Arc::clone(&stop);
                    let handled = Arc::clone(&handled);
                    let handler = Arc::clone(&handler);
                    joins.push(std::thread::spawn(move || loop {
                        // Local first, then the injector, then steal.
                        let task = worker.pop().or_else(|| {
                            std::iter::repeat_with(|| {
                                injector.steal_batch_and_pop(&worker).or_else(|| {
                                    stealers
                                        .iter()
                                        .enumerate()
                                        .filter(|(j, _)| *j != i)
                                        .map(|(_, s)| s.steal())
                                        .collect()
                                })
                            })
                            .find(|s| !s.is_retry())
                            .and_then(|s| s.success())
                        });
                        match task {
                            Some(pid) => {
                                handler(i, pid);
                                handled[i].fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                if stop.load(Ordering::Relaxed) && injector.is_empty() {
                                    return;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }));
                }
                ShimServer {
                    backend: Backend::WorkStealing(injector),
                    stop,
                    handled,
                    threads: joins,
                }
            }
        }
    }

    /// Submits a notification from any producer thread.
    ///
    /// Under [`QueueDiscipline::PerThread`] the producer is routed to its
    /// pid's dedicated queue; the call spins briefly when that queue is full.
    pub fn submit(&self, pid: XpuPid) {
        match &self.backend {
            Backend::PerThread(queues) => {
                let idx = (pid.encode() % queues.len() as u64) as usize;
                while queues[idx].push(pid).is_err() {
                    std::hint::spin_loop();
                }
            }
            Backend::WorkStealing(injector) => injector.push(pid),
        }
    }

    /// Submits a coalesced batch of notifications from one producer: the
    /// vectorized-frame analogue of [`submit`](Self::submit). All entries
    /// from one caller ride a single doorbell, so under
    /// [`QueueDiscipline::PerThread`] the batch is offered to each pid's
    /// queue in prefix chunks ([`NotifyQueue::push_batch`]) instead of one
    /// CAS-contended push per entry.
    pub fn submit_batch(&self, pids: &[XpuPid]) {
        match &self.backend {
            Backend::PerThread(queues) => {
                // Group by destination queue, preserving per-producer order.
                let mut by_queue: Vec<Vec<XpuPid>> = vec![Vec::new(); queues.len()];
                for &pid in pids {
                    let idx = (pid.encode() % queues.len() as u64) as usize;
                    by_queue[idx].push(pid);
                }
                for (idx, group) in by_queue.iter().enumerate() {
                    let mut offered = 0;
                    while offered < group.len() {
                        offered += queues[idx].push_batch(&group[offered..]);
                        if offered < group.len() {
                            std::hint::spin_loop();
                        }
                    }
                }
            }
            Backend::WorkStealing(injector) => {
                for &pid in pids {
                    injector.push(pid);
                }
            }
        }
    }

    /// Notifications handled so far, per thread.
    pub fn handled_per_thread(&self) -> Vec<u64> {
        self.handled.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Total notifications handled.
    pub fn total_handled(&self) -> u64 {
        self.handled_per_thread().iter().sum()
    }

    /// Stops the server after draining and joins every thread.
    pub fn shutdown(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.total_handled()
    }
}

impl Drop for ShimServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::pu::PuId;

    fn flood(server: &ShimServer, producers: u16, per_producer: u32) {
        std::thread::scope(|scope| {
            for p in 0..producers {
                scope.spawn(move || {
                    for i in 0..per_producer {
                        server.submit(XpuPid { pu: PuId(p), local: i });
                    }
                });
            }
        });
    }

    #[test]
    fn per_thread_discipline_handles_everything_exactly_once() {
        let server = ShimServer::start(QueueDiscipline::PerThread { threads: 4 }, |_, _| {});
        flood(&server, 8, 2_000);
        let total = server.shutdown();
        assert_eq!(total, 16_000);
    }

    #[test]
    fn work_stealing_handles_everything_exactly_once() {
        let server = ShimServer::start(QueueDiscipline::WorkStealing { threads: 4 }, |_, _| {});
        flood(&server, 8, 2_000);
        let total = server.shutdown();
        assert_eq!(total, 16_000);
    }

    #[test]
    fn work_stealing_balances_a_skewed_producer() {
        // A single hot producer: with stealing, no thread should be left
        // completely idle while others drown.
        let server = ShimServer::start(QueueDiscipline::WorkStealing { threads: 4 }, |_, _| {
            // A tiny bit of work (1 µs) so stealing has time to engage. It
            // is timed, not counted: a constant loop folds away in release
            // builds, and one worker then drains all 20k items before the
            // other threads are even scheduled.
            let start = std::time::Instant::now();
            while start.elapsed() < std::time::Duration::from_micros(1) {
                std::hint::spin_loop();
            }
        });
        for i in 0..20_000u32 {
            server.submit(XpuPid { pu: PuId(0), local: i });
        }
        let per_thread = loop {
            if server.total_handled() == 20_000 {
                break server.handled_per_thread();
            }
            std::thread::yield_now();
        };
        server.shutdown();
        let busy = per_thread.iter().filter(|&&c| c > 0).count();
        assert!(busy >= 2, "stealing should spread a hot producer: {per_thread:?}");
    }

    #[test]
    fn submit_batch_delivers_everything_under_both_disciplines() {
        for discipline in [
            QueueDiscipline::PerThread { threads: 4 },
            QueueDiscipline::WorkStealing { threads: 4 },
        ] {
            let server = ShimServer::start(discipline, |_, _| {});
            let batch: Vec<XpuPid> =
                (0..10_000u32).map(|i| XpuPid { pu: PuId((i % 8) as u16), local: i }).collect();
            server.submit_batch(&batch);
            let total = server.shutdown();
            assert_eq!(total, 10_000, "{discipline:?}");
        }
    }

    #[test]
    fn per_thread_discipline_partitions_by_pid() {
        // All notifications from one pid land on one thread (FIFO per
        // producer is preserved by construction).
        let server = ShimServer::start(QueueDiscipline::PerThread { threads: 4 }, |_, _| {});
        for i in 0..5_000u32 {
            server.submit(XpuPid { pu: PuId(3), local: 7 });
            let _ = i;
        }
        while server.total_handled() < 5_000 {
            std::thread::yield_now();
        }
        let per_thread = server.handled_per_thread();
        server.shutdown();
        assert_eq!(per_thread.iter().filter(|&&c| c > 0).count(), 1, "{per_thread:?}");
    }
}
