//! What one round of a workload produces, and the correctness gate every
//! round must pass.
//!
//! A round is one fresh simulation of the workload's generated inputs:
//! set-up (launch, registration, bootstrap, templates, pre-warm or
//! resident fleet) followed by the timed phase. Rounds of one seed are
//! identical in virtual time, so a run repeats them to fill its host-time
//! window and checks that every repeat reproduces the first bit for bit.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::sample::{self, Digest};
use crate::trace::Observed;

/// How large a round is: the benchmark size, or a smoke size for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few hundred requests: exercises every path, for tests.
    Smoke,
}

/// What happened to one issued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Served; end-to-end virtual latency from its due time, ns.
    Completed(u64),
    /// Dropped by load shedding after admission.
    Shed,
    /// Refused at admission (queue full, deadline unmeetable).
    Rejected,
    /// Refused by the tenant's rate limit.
    RateDenied,
    /// Failed by the runtime.
    Failed,
}

impl Fate {
    fn code(self) -> u64 {
        match self {
            Fate::Completed(ns) => ns << 3,
            Fate::Shed => 1,
            Fate::Rejected => 2,
            Fate::RateDenied => 3,
            Fate::Failed => 4,
        }
    }
}

/// Per-fate request counts. `issued` counts requests handed to the stack;
/// any issued request with no fate is lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Requests issued.
    pub issued: u64,
    /// Served to completion.
    pub completed: u64,
    /// Shed after admission.
    pub shed: u64,
    /// Refused at admission.
    pub rejected: u64,
    /// Refused by a tenant rate limit.
    pub rate_denied: u64,
    /// Failed by the runtime.
    pub failed: u64,
}

impl Ledger {
    /// Issued requests without a fate.
    pub fn lost(&self) -> u64 {
        self.issued.saturating_sub(
            self.completed + self.shed + self.rejected + self.rate_denied + self.failed,
        )
    }

    /// Requests that did not complete, over those issued.
    pub fn fail_share(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        (self.issued - self.completed) as f64 / self.issued as f64
    }
}

/// The outcomes of one round's requests, in issue order, plus the gate's
/// findings.
#[derive(Debug, Default)]
pub struct Outcomes {
    /// Ledger the benchmark keeps from the fates it saw.
    pub ledger: Ledger,
    /// End-to-end latencies of completed requests, ns.
    pub latencies: Vec<u64>,
    /// Completed requests of the latency-class tenants, ns.
    pub victim_latencies: Vec<u64>,
    /// Completed within the workload's latency limit.
    pub within_slo: u64,
    digest: Digest,
    /// Correctness-gate violations.
    pub errors: Vec<String>,
}

impl Outcomes {
    /// Records one request's fate. `slo_ns` is its latency limit; `victim`
    /// marks latency-class tenants.
    pub fn record(&mut self, fate: Fate, slo_ns: u64, victim: bool) {
        self.ledger.issued += 1;
        self.digest.push(fate.code());
        match fate {
            Fate::Completed(ns) => {
                self.ledger.completed += 1;
                self.latencies.push(ns);
                if victim {
                    self.victim_latencies.push(ns);
                }
                if ns <= slo_ns {
                    self.within_slo += 1;
                }
            }
            Fate::Shed => self.ledger.shed += 1,
            Fate::Rejected => self.ledger.rejected += 1,
            Fate::RateDenied => self.ledger.rate_denied += 1,
            Fate::Failed => self.ledger.failed += 1,
        }
    }

    /// Folds an extra word (e.g. a verified output checksum) into the
    /// digest.
    pub fn digest_word(&mut self, word: u64) {
        self.digest.push(word);
    }

    /// Adds a gate violation.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Checks the stack's own ledger against the benchmark's: every request
    /// the stack took has exactly one fate there, and both sides agree.
    pub fn check_conservation(&mut self, stack: &Ledger) {
        let mine = self.ledger;
        if stack.lost() != 0 {
            self.fail(format!(
                "conservation: stack issued {} but accounts for {}",
                stack.issued,
                stack.issued - stack.lost()
            ));
        }
        if *stack != mine {
            self.fail(format!("conservation: stack ledger {stack:?} != observed {mine:?}"));
        }
    }
}

/// Everything one round reports.
#[derive(Debug, Default)]
pub struct Round {
    /// Host time from the round's start to its first timed request.
    pub setup: Duration,
    /// Host wall time of the timed phase.
    pub timed: Duration,
    /// Host cost of one plain OS-thread hand-off around the round, ns
    /// ([`crate::host::handoff_ns`]).
    pub handoff_ns: f64,
    /// Top-level requests the timed phase completed.
    pub requests: u64,
    /// Per-request outcomes and the gate's findings.
    pub out: Outcomes,
    /// Latency limit used for goodput, ns.
    pub slo_ns: u64,
    /// Virtual length of the timed phase, ns.
    pub window_ns: u64,
    /// Worst lateness of an open-loop submit against its due time, ns.
    pub max_lag_ns: u64,
    /// Engine events of the whole round.
    pub events: u64,
    /// Deterministic per-layer facts (counter deltas, virtual times).
    pub layer: BTreeMap<&'static str, f64>,
    /// Host-time facts measured around calls (vary run to run).
    pub host: BTreeMap<&'static str, f64>,
    /// The median request's observed path, for attribution.
    pub median_obs: Option<Observed>,
    /// Served requests as `(function, sched admission ns, completion ns)`,
    /// for matching against the stack's `gateway:request` spans.
    pub served: Vec<(String, u64, u64)>,
}

impl Round {
    /// The per-request digest.
    pub fn digest(&self) -> u64 {
        self.out.digest.value()
    }

    /// Sorts the latency samples (call once, after the round).
    pub fn finish(&mut self) {
        self.out.latencies.sort_unstable();
        self.out.victim_latencies.sort_unstable();
    }

    /// Median end-to-end latency, ns.
    pub fn p50_ns(&self) -> u64 {
        sample::median(&self.out.latencies)
    }

    /// Tail latency (p99, or the highest percentile with ten samples
    /// beyond), ns, and the percentile used.
    pub fn tail_ns(&self) -> (u64, f64) {
        sample::tail_quantile(&self.out.latencies, 0.99).unwrap_or((0, 0.0))
    }

    /// The virtual-time facts that must repeat bit for bit for one seed.
    pub fn fingerprint(&self) -> (u64, u64, u64, u64, u64, Vec<(&'static str, u64)>) {
        let layer = self.layer.iter().map(|(k, v)| (*k, v.to_bits())).collect();
        (self.digest(), self.p50_ns(), self.tail_ns().0, self.out.within_slo, self.window_ns, layer)
    }
}

/// Host-time stopwatch for a round's set-up: started when the round
/// starts (or at process start for the first round), read at the first
/// timed request. Time the benchmark spends generating its own inputs and
/// references is not set-up and is excluded.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
    excluded: Duration,
}

impl Clock {
    /// A stopwatch started at `start`.
    pub fn new(start: Instant) -> Clock {
        Clock { start, excluded: Duration::ZERO }
    }

    /// The same stopwatch, not counting `d` of input generation.
    #[must_use]
    pub fn excluding(self, d: Duration) -> Clock {
        Clock { excluded: self.excluded + d, ..self }
    }

    /// Set-up host time so far.
    pub fn since_start(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.excluded)
    }
}
