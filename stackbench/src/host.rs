//! Host-side probes of the benchmark process: resource usage, peak
//! resident memory and the engine's process-switch cost.

use std::time::Instant;

use hetsim::engine::Simulation;

/// Resource usage of the whole process, every thread included (live and
/// exited), as `getrusage(RUSAGE_SELF)` reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches.
    pub voluntary: u64,
    /// Involuntary context switches.
    pub involuntary: u64,
}

impl Usage {
    /// `self - earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            voluntary: self.voluntary - earlier.voluntary,
            involuntary: self.involuntary - earlier.involuntary,
        }
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the 64-bit Linux ABI (x86_64 and aarch64): two
/// timevals followed by fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

/// Reads `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        counters: [0; 14],
    };
    // SAFETY: `Rusage` matches the kernel's `struct rusage` layout on the
    // 64-bit Linux targets this benchmark builds for, and the pointer is to
    // a live, writable, properly aligned local for the whole call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        voluntary: ru.counters[NVCSW] as u64,
        involuntary: ru.counters[NIVCSW] as u64,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host nanoseconds per `ProcCtx::yield_now` of one simulated process,
/// measured over `yields` back-to-back yields.
pub fn yield_ns(yields: u32) -> f64 {
    let mut sim = Simulation::new();
    let h = sim.spawn("yield-probe", move |ctx| {
        let t0 = Instant::now();
        for _ in 0..yields {
            ctx.yield_now();
        }
        t0.elapsed()
    });
    sim.run().expect("yield probe simulation runs to completion");
    let elapsed = h.take_result().expect("yield probe returns its elapsed time");
    elapsed.as_nanos() as f64 / f64::from(yields.max(1))
}

/// The hand-off cost host-time metrics are normalized to, ns per round
/// trip of [`handoff_ns`]: about what an idle 2-vCPU container shows.
pub const REFERENCE_HANDOFF_NS: f64 = 4000.0;

/// Host nanoseconds per round trip of a plain OS-thread ping-pong over
/// `std::sync::mpsc` — the kernel hand-off path the engine's process
/// switches also take, measured without any of this repository's code.
pub fn handoff_ns(trips: u32) -> f64 {
    let (to_peer, peer_rx) = std::sync::mpsc::channel::<u32>();
    let (to_main, main_rx) = std::sync::mpsc::channel::<u32>();
    let peer = std::thread::spawn(move || {
        while let Ok(v) = peer_rx.recv() {
            if to_main.send(v).is_err() {
                break;
            }
        }
    });
    let t = Instant::now();
    for i in 0..trips {
        to_peer.send(i).expect("peer alive");
        main_rx.recv().expect("peer replies");
    }
    let ns = t.elapsed().as_nanos() as f64 / f64::from(trips.max(1));
    drop(to_peer);
    peer.join().expect("ping-pong peer exits cleanly");
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_is_monotone_and_rss_is_read() {
        let a = usage();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = usage();
        assert!(b.user_s + b.sys_s >= a.user_s + a.sys_s);
        assert!(peak_rss_mib() > 0.0);
        assert!(yield_ns(100) > 0.0);
        assert!(handoff_ns(100) > 0.0);
    }
}
