//! Invariant oracles over the cross-PU control plane.
//!
//! The snapshot-based checks run against [`ClusterSnapshot`] — either after
//! every engine step (install via [`ClusterOracle::install`], which uses the
//! engine's step observer: no engine lock held, no simulated process
//! mid-syscall) or once at quiescence. Evidence-based checks
//! ([`FifoOrderTracker`]) are fed by the scenario's own processes as
//! messages are consumed.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use hetsim::engine::Simulation;
use hetsim::pu::PuId;
use xpu_shim::cap::Perm;
use xpu_shim::cluster::RECLAIM_STAGE;
use xpu_shim::{ClusterSnapshot, ObjId, ShimCluster, TenantId, XpuPid};

/// Which invariants [`check_snapshot`] enforces.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Require at most one OWNER capability per object. True for scenarios
    /// that never grant `Perm::OWNER` onwards (ownership *is* transferable
    /// and shareable by design — `grant(.., Perm::OWNER)` is legal — so
    /// scenarios that exercise ownership hand-off turn this off).
    pub owner_partition: bool,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig { owner_partition: true }
    }
}

/// Checks every snapshot invariant, returning the first violation:
///
/// * every capability references a live object (no dangling grants after
///   `revoke_cap` / `close` / `reclaim_pu`);
/// * tenant isolation: every capability's holder and object live in the
///   same tenant domain, and every live FIFO's owner / region's master
///   shares its guard object's tenant (no schedule leaks a handle across
///   tenants through spawn, failover or reclaim);
/// * (optional) object ownership is a partition — at most one OWNER each;
/// * every live FIFO's guard object is live, and its owner — while still a
///   registered process — holds OWNER (a dead owner mid-`reclaim_pu` is a
///   legal transient);
/// * every live shared-state region satisfies the same guard/owner/UUID
///   discipline as a FIFO (region caps never leak across reclaim);
/// * no UUID is both live and reclaimed, and none is reclaimed while its
///   free is still parked in the lazy queue (exactly-once reclamation);
/// * the `reclaimed_uuids` counter equals the reclaimed set's size;
/// * every parked zero-copy segment slot belongs to a live FIFO or a live
///   region (no leaked slots after close/reclaim).
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn check_snapshot(snap: &ClusterSnapshot, cfg: &OracleConfig) -> Result<(), String> {
    let objects: HashSet<ObjId> = snap.objects.iter().copied().collect();
    let proc_tenant: HashMap<XpuPid, TenantId> = snap.tenants.iter().copied().collect();
    let obj_tenant: HashMap<ObjId, TenantId> = snap.object_tenants.iter().copied().collect();
    let tenant_of = |pid: XpuPid| proc_tenant.get(&pid).copied().unwrap_or(TenantId::SYSTEM);
    let tenant_of_obj = |obj: ObjId| obj_tenant.get(&obj).copied().unwrap_or(TenantId::SYSTEM);
    let mut owners: HashMap<ObjId, XpuPid> = HashMap::new();
    for &(pid, obj, perm) in &snap.caps {
        if !objects.contains(&obj) {
            return Err(format!("dangling capability: {pid} holds {perm} on destroyed {obj}"));
        }
        // Tenant isolation: a capability never crosses a tenant boundary.
        // `grant` refuses cross-tenant handouts by construction, so any
        // violation here means a schedule leaked a handle through spawn,
        // failover or reclaim.
        let (pt, ot) = (tenant_of(pid), tenant_of_obj(obj));
        if pt != ot {
            return Err(format!(
                "tenant isolation violated: {pid} ({pt}) holds {perm} on {obj} owned by {ot}"
            ));
        }
        if cfg.owner_partition && perm.contains(Perm::OWNER) {
            if let Some(prev) = owners.insert(obj, pid) {
                return Err(format!("ownership not a partition: {obj} owned by {prev} and {pid}"));
            }
        }
    }
    let live: HashSet<_> = snap.fifos.iter().map(|f| &f.uuid).collect();
    let reclaimed: HashSet<_> = snap.reclaimed.iter().collect();
    for f in &snap.fifos {
        if !objects.contains(&f.obj) {
            return Err(format!("live FIFO {} guarded by destroyed object {}", f.uuid, f.obj));
        }
        // Only demand OWNER while the owner is still a registered process:
        // `reclaim_pu` tears down dead pids' CAP groups first, then yields
        // per-UUID while their FIFOs are still being reclaimed — that
        // transient (dead owner, live FIFO) is legal.
        if snap.procs.binary_search(&f.owner).is_ok() {
            let owner_ok = snap
                .caps
                .iter()
                .any(|&(p, o, perm)| p == f.owner && o == f.obj && perm.contains(Perm::OWNER));
            if !owner_ok {
                return Err(format!("FIFO {} owner {} lost OWNER on {}", f.uuid, f.owner, f.obj));
            }
            if tenant_of(f.owner) != tenant_of_obj(f.obj) {
                return Err(format!(
                    "FIFO {} crossed tenants: owner {} is {} but {} is {}",
                    f.uuid,
                    f.owner,
                    tenant_of(f.owner),
                    f.obj,
                    tenant_of_obj(f.obj)
                ));
            }
        }
        if reclaimed.contains(&f.uuid) {
            return Err(format!("UUID {} is both live and reclaimed", f.uuid));
        }
    }
    for r in &snap.regions {
        if !objects.contains(&r.obj) {
            return Err(format!("live region {} guarded by destroyed object {}", r.uuid, r.obj));
        }
        // Same dead-owner transient tolerance as the FIFO check above:
        // `reclaim_pu` drops the master's CAP group before the region sweep
        // re-masters or parks its regions.
        if snap.procs.binary_search(&r.owner).is_ok() {
            let owner_ok = snap
                .caps
                .iter()
                .any(|&(p, o, perm)| p == r.owner && o == r.obj && perm.contains(Perm::OWNER));
            if !owner_ok {
                return Err(format!(
                    "region {} master {} lost OWNER on {}",
                    r.uuid, r.owner, r.obj
                ));
            }
            if tenant_of(r.owner) != tenant_of_obj(r.obj) {
                return Err(format!(
                    "region {} crossed tenants: master {} is {} but {} is {}",
                    r.uuid,
                    r.owner,
                    tenant_of(r.owner),
                    r.obj,
                    tenant_of_obj(r.obj)
                ));
            }
        }
        if reclaimed.contains(&r.uuid) {
            return Err(format!("region UUID {} is both live and reclaimed", r.uuid));
        }
    }
    let live_regions: HashSet<_> = snap.regions.iter().map(|r| &r.uuid).collect();
    for uuid in &snap.lazy_pending {
        if live.contains(uuid) || live_regions.contains(uuid) {
            return Err(format!("UUID {uuid} live while its free is parked in the lazy queue"));
        }
    }
    if snap.reclaimed_count != snap.reclaimed.len() as u64 {
        return Err(format!(
            "reclamation not exactly-once: counter {} vs {} reclaimed UUIDs",
            snap.reclaimed_count,
            snap.reclaimed.len()
        ));
    }
    for (uuid, n) in &snap.parked_segments {
        if !live.contains(uuid) && !live_regions.contains(uuid) {
            return Err(format!("{n} leaked segment slot(s) parked for dead UUID {uuid}"));
        }
    }
    Ok(())
}

/// Checks the cluster's PU-death bus log: each PU in `dead` reached the
/// shim's reclaim and then every stage in `subscribers`, exactly once and
/// in that order, and no other PU was declared dead.
///
/// # Errors
///
/// The first PU whose deliveries differ, with what it saw.
pub fn check_deaths(
    cluster: &ShimCluster,
    dead: &[PuId],
    subscribers: &[&str],
) -> Result<(), String> {
    let log = cluster.death_log();
    if let Some((pu, _)) = log.iter().find(|(pu, _)| !dead.contains(pu)) {
        return Err(format!("{pu} was declared dead but never died"));
    }
    let want: Vec<&str> =
        std::iter::once(RECLAIM_STAGE).chain(subscribers.iter().copied()).collect();
    for &pu in dead {
        let seen: Vec<&str> = log.iter().filter(|(p, _)| *p == pu).map(|(_, s)| *s).collect();
        if seen != want {
            return Err(format!("death of {pu} delivered as {seen:?}, want {want:?}"));
        }
    }
    Ok(())
}

/// A per-step cluster watchdog: snapshots the cluster after every engine
/// event and records the first invariant violation. Ask it for the final
/// [`verdict`](Self::verdict) from the scenario's check closure.
pub struct ClusterOracle {
    cluster: ShimCluster,
    cfg: OracleConfig,
    violation: Rc<RefCell<Option<String>>>,
}

impl ClusterOracle {
    /// Installs the oracle as `sim`'s step observer (replacing any previous
    /// observer) and returns the handle the check closure consults.
    pub fn install(
        sim: &mut Simulation,
        cluster: &ShimCluster,
        cfg: OracleConfig,
    ) -> ClusterOracle {
        let violation = Rc::new(RefCell::new(None));
        let watched = cluster.clone();
        let sink = Rc::clone(&violation);
        sim.set_step_observer(Box::new(move || {
            if sink.borrow().is_some() {
                return;
            }
            if let Err(v) = check_snapshot(&watched.snapshot(), &cfg) {
                *sink.borrow_mut() = Some(v);
            }
        }));
        ClusterOracle { cluster: cluster.clone(), cfg, violation }
    }

    /// The verdict: the first per-step violation if one was recorded, else a
    /// final quiescence check. `require_empty_arena` additionally demands
    /// zero parked segment slots (every descriptor resolved or reclaimed) —
    /// pass true when the scenario drains all its FIFOs.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a human-readable message.
    pub fn verdict(&self, require_empty_arena: bool) -> Result<(), String> {
        if let Some(v) = self.violation.borrow().as_ref() {
            return Err(format!("[step] {v}"));
        }
        let snap = self.cluster.snapshot();
        check_snapshot(&snap, &self.cfg).map_err(|v| format!("[quiescence] {v}"))?;
        if require_empty_arena && snap.outstanding_segments != 0 {
            return Err(format!(
                "[quiescence] arena holds {} unresolved slot(s): {:?}",
                snap.outstanding_segments, snap.parked_segments
            ));
        }
        Ok(())
    }
}

/// Per-writer FIFO-order oracle fed with `(writer, seqno)` pairs in delivery
/// order. Writers number their messages 0, 1, 2, …; the tracker demands
/// that each writer's *first occurrences* appear in strictly increasing
/// seqno order. Losses (missing seqnos) and duplicates (repeats of an
/// already-seen seqno, in any position) are tolerated — the fault plane
/// injects both legally — but an unseen seqno arriving before a smaller
/// unseen one is a reorder, which the FIFO contract forbids.
#[derive(Debug, Default)]
pub struct FifoOrderTracker {
    last_first: HashMap<u64, u64>,
    seen: HashSet<(u64, u64)>,
    violation: Option<String>,
}

impl FifoOrderTracker {
    /// An empty tracker.
    pub fn new() -> FifoOrderTracker {
        FifoOrderTracker::default()
    }

    /// Records that `writer`'s message `seq` was just consumed.
    pub fn note(&mut self, writer: u64, seq: u64) {
        if self.violation.is_some() || !self.seen.insert((writer, seq)) {
            return; // already failed, or a tolerated duplicate
        }
        match self.last_first.get(&writer) {
            Some(&prev) if seq <= prev => {
                self.violation = Some(format!(
                    "per-writer FIFO order violated: writer {writer} seq {seq} first seen after seq {prev}"
                ));
            }
            _ => {
                self.last_first.insert(writer, seq);
            }
        }
    }

    /// The verdict so far.
    ///
    /// # Errors
    ///
    /// The first recorded reorder.
    pub fn verdict(&self) -> Result<(), String> {
        match &self.violation {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_tracker_tolerates_loss_and_dups_but_not_reorders() {
        let mut t = FifoOrderTracker::new();
        for (w, s) in [(1, 0), (2, 0), (1, 2), (1, 1), (2, 1)] {
            t.note(w, s); // writer 1: 0, then 2 (loss of 1 ok) — but then 1 surfaces late: reorder
        }
        assert!(t.verdict().unwrap_err().contains("writer 1 seq 1"));

        let mut ok = FifoOrderTracker::new();
        for (w, s) in [(1, 0), (1, 0), (1, 1), (2, 5), (1, 3), (1, 1), (2, 9)] {
            ok.note(w, s); // dups of already-seen seqnos are fine anywhere
        }
        ok.verdict().unwrap();
    }
}
