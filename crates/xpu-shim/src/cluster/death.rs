//! The PU-death bus: the one path a PU death takes through the stack.
//!
//! [`ShimCluster::declare_pu_dead`] runs the shim's own recovery first —
//! [`ShimCluster::reclaim_pu`], the paper's lazy reclamation (§5) — and then
//! hands the death to every subscriber in registration order. Each layer
//! above the shim (runtime, gateways, schedulers, state layer, proxy pool)
//! subscribes once, when it is built over the cluster; a layer is built
//! after the layers it sits on, so registration order is dependency order.
//! A PU dies once: later declarations of the same PU — the health checker
//! and the rack front may both notice it — return `None` and deliver
//! nothing.
//!
//! Subscribers are held weakly. Every layer holds the cluster, so a
//! subscription that owned its layer would close a reference cycle through
//! the cluster and no deployment would ever be freed. A subscription is a
//! `Weak` to the owner's shared state plus a plain `fn` — no closure, so it
//! cannot capture a strong handle by accident — and it is skipped once the
//! owner is gone.

use std::collections::HashSet;
use std::sync::Arc;

use hetsim::engine::ProcCtx;
use hetsim::pu::PuId;

use super::{ReclaimReport, ShimCluster};

/// A weak subscription: delivers the death and returns true, or returns
/// false once its owner is gone.
type Subscriber = Arc<dyn Fn(&mut ProcCtx, PuId) -> bool + Send + Sync>;

/// The bus state one cluster keeps: its subscribers in registration order,
/// the PUs already declared dead, and the delivery log.
#[derive(Default)]
pub(super) struct DeathBus {
    subscribers: Vec<(&'static str, Subscriber)>,
    dead: HashSet<PuId>,
    log: Vec<(PuId, &'static str)>,
}

/// The stage name the shim's own reclaim is logged under.
pub const RECLAIM_STAGE: &str = "shim";

impl ShimCluster {
    /// Subscribes `owner` to PU deaths: `deliver` runs once per dead PU,
    /// after the shim's reclaim and after every earlier subscriber, for as
    /// long as some strong handle of `owner` lives. `name` labels the
    /// subscriber in the [`death_log`](Self::death_log).
    pub fn on_pu_death<T: Send + Sync + 'static>(
        &self,
        name: &'static str,
        owner: &Arc<T>,
        deliver: fn(Arc<T>, &mut ProcCtx, PuId),
    ) {
        let owner = Arc::downgrade(owner);
        let sub: Subscriber =
            Arc::new(move |ctx, pu| owner.upgrade().map(|o| deliver(o, ctx, pu)).is_some());
        self.inner.deaths.lock().subscribers.push((name, sub));
    }

    /// Declares `pu` dead: the shim reclaims everything it left behind
    /// ([`reclaim_pu`](Self::reclaim_pu)), then every live subscriber sees
    /// the death in registration order. Subscribers run outside the
    /// cluster's locks and may sleep.
    ///
    /// Exactly once per PU: returns the reclaim report on the first
    /// declaration and `None` on every later one, which delivers nothing.
    pub fn declare_pu_dead(&self, ctx: &mut ProcCtx, pu: PuId) -> Option<ReclaimReport> {
        if !self.inner.deaths.lock().dead.insert(pu) {
            return None;
        }
        let report = self.reclaim_pu(ctx, pu);
        let subscribers = {
            let mut bus = self.inner.deaths.lock();
            bus.log.push((pu, RECLAIM_STAGE));
            bus.subscribers.clone()
        };
        for (name, sub) in subscribers {
            if sub(ctx, pu) {
                self.inner.deaths.lock().log.push((pu, name));
            }
        }
        Some(report)
    }

    /// Every stage the bus has run, in order: `(pu, stage)` with the
    /// shim's reclaim logged as [`RECLAIM_STAGE`] and each subscriber under
    /// its name.
    pub fn death_log(&self) -> Vec<(PuId, &'static str)> {
        self.inner.deaths.lock().log.clone()
    }
}

#[cfg(test)]
mod tests {
    use hetsim::engine::Simulation;
    use hetsim::topology::Machine;
    use parking_lot::Mutex;

    use super::*;
    use crate::cluster::ShimConfig;

    fn record(seen: Arc<Mutex<Vec<PuId>>>, _ctx: &mut ProcCtx, pu: PuId) {
        seen.lock().push(pu);
    }

    #[test]
    fn reclaim_then_live_subscribers_in_order_exactly_once() {
        let cluster = ShimCluster::deploy(Machine::paper_cpu_dpu_server(), ShimConfig::default());
        let (a, gone, b) = (Arc::default(), Arc::default(), Arc::default());
        cluster.on_pu_death("a", &a, record);
        cluster.on_pu_death("gone", &gone, record);
        cluster.on_pu_death("b", &b, record);
        drop(gone);
        let mut sim = Simulation::new();
        let cl = cluster.clone();
        sim.spawn("declarer", move |ctx| {
            assert!(cl.declare_pu_dead(ctx, PuId(1)).is_some());
            assert!(cl.declare_pu_dead(ctx, PuId(1)).is_none(), "a PU dies once");
            assert!(cl.declare_pu_dead(ctx, PuId(2)).is_some());
        });
        sim.run().unwrap();
        assert_eq!(*a.lock(), [PuId(1), PuId(2)]);
        assert_eq!(*b.lock(), [PuId(1), PuId(2)]);
        let order = [RECLAIM_STAGE, "a", "b"];
        assert_eq!(
            cluster.death_log(),
            [PuId(1), PuId(2)].map(|pu| order.map(|s| (pu, s))).concat()
        );
        assert_eq!(cluster.stats().pu_reclaims, 2);
    }
}
