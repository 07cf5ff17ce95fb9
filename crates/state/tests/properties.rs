//! Property tests of the shared-state tier against a byte-exact reference
//! model. Random scripts of `write` / `commit` / `pull` ops across all
//! three PUs of the paper machine are interpreted twice — once by the real
//! [`StateLayer`], once by a flat in-memory model of the version protocol —
//! and must agree after *every* op:
//!
//! * reads see the local COW overlay on the cached committed version,
//!   byte-for-byte — whole-region reads and partial reads at arbitrary
//!   `(offset, len)` over a mix of dirty and clean pages, after writes of
//!   1 byte to two pages long that straddle page boundaries;
//! * COW never mutates a published version — every replica's committed
//!   cache digest matches the model even while working sets are dirty;
//! * interleavings converge: once everyone pulls after a final commit,
//!   all replicas read the owner's committed bytes;
//! * the arena balances: dropping the region leaves zero parked slots.
//!
//! Regions are 8 pages (32 KiB), so every pull crosses the interconnect on
//! the zero-copy descriptor path and the slot-balance property is
//! exercised by every script that pulls. A deterministic test at the end
//! pins the in-flight rule: a page re-dirtied while its commit is in flight
//! stays in the working set.

use std::collections::BTreeMap;

use hetsim::engine::Simulation;
use hetsim::pu::PuId;
use hetsim::topology::Machine;
use molecule_state::{digest, RegionSpec, StateLayer};
use proptest::prelude::*;
use xpu_shim::cluster::{ShimCluster, ShimConfig};

const PAGES: u64 = 8;
const PAGE: u64 = 4096;
const SIZE: usize = (PAGES * PAGE) as usize;
const MAX_WRITE: u64 = 2 * PAGE;

/// One scripted op: `kind` 0 = write, 1 = commit, 2 = pull, on `pu`, with
/// an `offset` and a `len` that shape the write and the partial read after
/// the op.
type Op = (u8, u16, u64, u64);

/// `len` distinct-ish bytes, so a write landing at the wrong offset within
/// its page (or in the wrong page) shows.
fn pattern(stamp: u8, len: u64) -> Vec<u8> {
    (0..len).map(|j| stamp.wrapping_add((j % 251) as u8)).collect()
}

/// The reference model: the master's committed store plus, per PU, the
/// cached committed version and the COW working set (whole-page copies,
/// seeded from the cache on first touch — exactly the layer's contract).
struct Model {
    committed: Vec<u8>,
    floor: u64,
    caches: BTreeMap<u16, (Vec<u8>, u64)>,
    dirty: BTreeMap<u16, BTreeMap<u64, Vec<u8>>>,
}

impl Model {
    fn new() -> Model {
        Model {
            committed: vec![0; SIZE],
            floor: 0,
            caches: (0..3).map(|pu| (pu, (vec![0; SIZE], 0))).collect(),
            dirty: (0..3).map(|pu| (pu, BTreeMap::new())).collect(),
        }
    }

    fn write(&mut self, pu: u16, offset: u64, data: &[u8]) {
        let cache = &self.caches[&pu].0;
        let dirty = self.dirty.get_mut(&pu).unwrap();
        let first = offset / PAGE;
        let last = (offset + data.len() as u64).div_ceil(PAGE).max(first + 1);
        for page in first..last {
            let lo = (page * PAGE) as usize;
            let copy = dirty.entry(page).or_insert_with(|| cache[lo..lo + PAGE as usize].to_vec());
            let from = offset.max(page * PAGE);
            let to = (offset + data.len() as u64).min((page + 1) * PAGE);
            for i in from..to {
                copy[(i - page * PAGE) as usize] = data[(i - offset) as usize];
            }
        }
    }

    /// Returns the version number the layer must report.
    fn commit(&mut self, pu: u16) -> u64 {
        let dirty = std::mem::take(self.dirty.get_mut(&pu).unwrap());
        if dirty.is_empty() {
            return self.caches[&pu].1;
        }
        for (page, copy) in dirty {
            let lo = (page * PAGE) as usize;
            self.committed[lo..lo + copy.len()].copy_from_slice(&copy);
        }
        self.floor += 1;
        // The master replica *is* the committed store; a remote committer's
        // cache stays on its old version (lazy write-back).
        let master = self.caches.get_mut(&0).unwrap();
        master.0 = self.committed.clone();
        master.1 = self.floor;
        self.floor
    }

    /// Returns the version the replica holds after the pull.
    fn pull(&mut self, pu: u16) -> u64 {
        let master_version = self.caches[&0].1;
        let cache = self.caches.get_mut(&pu).unwrap();
        if cache.1 < master_version {
            cache.0 = self.committed.clone();
            cache.1 = master_version;
        }
        cache.1
    }

    /// What a whole-region read on `pu` must return: working set overlaid
    /// on the cached committed version.
    fn read(&self, pu: u16) -> Vec<u8> {
        let mut out = self.caches[&pu].0.clone();
        for (page, copy) in &self.dirty[&pu] {
            let lo = (page * PAGE) as usize;
            out[lo..lo + copy.len()].copy_from_slice(copy);
        }
        out
    }
}

/// Interprets the script in the real layer and the model side by side,
/// checking agreement after every op, then convergence, then the arena
/// balance after the drop.
fn execute(ops: Vec<Op>) -> Result<(), String> {
    let cluster = ShimCluster::deploy(Machine::paper_cpu_dpu_server(), ShimConfig::default());
    let layer = StateLayer::new(cluster.clone());
    let mut sim = Simulation::new();
    let l = layer.clone();
    let cl = cluster.clone();
    let h = sim.spawn("script", move |ctx| -> Result<(), String> {
        l.create_region(ctx, PuId(0), RegionSpec::new("prop", PAGES))
            .map_err(|e| format!("create: {e}"))?;
        for pu in 1..3u16 {
            l.attach(ctx, PuId(pu), "prop").map_err(|e| format!("attach {pu}: {e}"))?;
        }
        let mut model = Model::new();

        for (i, &(kind, pu, offset, len)) in ops.iter().enumerate() {
            match kind % 3 {
                0 => {
                    let len = 1 + len % MAX_WRITE;
                    let offset = offset.min(SIZE as u64 - len);
                    let data = pattern((i as u8).wrapping_mul(31).wrapping_add(7), len);
                    l.write(ctx, PuId(pu), "prop", offset, &data, None)
                        .map_err(|e| format!("op {i} write: {e}"))?;
                    model.write(pu, offset, &data);
                }
                1 => {
                    let got = l
                        .commit(ctx, PuId(pu), "prop")
                        .map_err(|e| format!("op {i} commit: {e}"))?;
                    let want = model.commit(pu);
                    if got != want {
                        return Err(format!("op {i}: commit returned v{got}, model v{want}"));
                    }
                }
                _ => {
                    let got =
                        l.pull(ctx, PuId(pu), "prop").map_err(|e| format!("op {i} pull: {e}"))?;
                    let want = model.pull(pu);
                    if got != want {
                        return Err(format!("op {i}: pull returned v{got}, model v{want}"));
                    }
                }
            }
            // The op's PU reads exactly the model's overlay, whole...
            let want = model.read(pu);
            let bytes = l
                .read(ctx, PuId(pu), "prop", 0, SIZE as u64)
                .map_err(|e| format!("op {i} read: {e}"))?;
            if bytes != want {
                return Err(format!("op {i}: read on {pu} diverged from the model"));
            }
            // ...and in part, at an arbitrary (possibly empty) window.
            let at = offset % SIZE as u64;
            let n = len % (SIZE as u64 - at + 1);
            let part = l
                .read(ctx, PuId(pu), "prop", at, n)
                .map_err(|e| format!("op {i} partial read: {e}"))?;
            if part[..] != want[at as usize..(at + n) as usize] {
                return Err(format!("op {i}: read of [{at}, +{n}) on {pu} diverged"));
            }
            // ...and no published version moved: every replica's committed
            // cache digest still matches the model's cache for that PU —
            // dirty working sets notwithstanding (COW isolation).
            for r in &l.snapshot().regions {
                for rep in &r.replicas {
                    let (cache, version) = &model.caches[&rep.pu.0];
                    if rep.version != *version || rep.digest != digest(cache) {
                        return Err(format!(
                            "op {i}: replica {} cache (v{}) diverged from model v{version}",
                            rep.pu, rep.version
                        ));
                    }
                }
            }
        }

        // Convergence: a final commit of every working set (master last, so
        // the owner has the last word), then everyone pulls and must read
        // the owner's committed bytes.
        for pu in [1, 2, 0u16] {
            l.commit(ctx, PuId(pu), "prop").map_err(|e| format!("final commit {pu}: {e}"))?;
            model.commit(pu);
        }
        for pu in 0..3u16 {
            l.pull(ctx, PuId(pu), "prop").map_err(|e| format!("final pull {pu}: {e}"))?;
            model.pull(pu);
            let bytes = l
                .read(ctx, PuId(pu), "prop", 0, SIZE as u64)
                .map_err(|e| format!("final read {pu}: {e}"))?;
            if bytes != model.committed {
                return Err(format!("replica {pu} did not converge to the committed bytes"));
            }
        }

        l.drop_region(ctx, "prop").map_err(|e| format!("drop: {e}"))?;
        let snap = cl.snapshot();
        if snap.outstanding_segments != 0 {
            return Err(format!(
                "{} arena slot(s) leaked after drop: {:?}",
                snap.outstanding_segments, snap.parked_segments
            ));
        }
        if !snap.regions.is_empty() {
            return Err(format!("{} region(s) survived the drop", snap.regions.len()));
        }
        Ok(())
    });
    sim.run().map_err(|e| format!("sim: {e}"))?;
    h.take_result().ok_or("script lost")?
}

proptest! {
    #[test]
    fn random_interleavings_agree_with_the_model(
        ops in collection::vec(
            (0u8..=2, 0u16..=2, 0u64..(SIZE as u64), 0u64..(SIZE as u64)),
            1..40,
        )
    ) {
        prop_assert_eq!(execute(ops), Ok(()));
    }

    #[test]
    fn write_heavy_scripts_never_mutate_published_versions(
        ops in collection::vec(
            (0u8..=0, 0u16..=2, 0u64..(SIZE as u64), 0u64..(SIZE as u64)),
            1..40,
        ),
        commits in collection::vec((1u8..=1, 0u16..=2, 0u64..(SIZE as u64), 0u64..1), 1..4)
    ) {
        // All-write prefix keeps three dirty working sets live at once —
        // the digest check inside `execute` is the property — then a few
        // commits so convergence still has something to publish.
        let mut script = ops;
        script.extend(commits);
        prop_assert_eq!(execute(script), Ok(()));
    }

    #[test]
    fn sync_heavy_scripts_balance_the_arena(
        ops in collection::vec((1u8..=2, 0u16..=2, 0u64..(SIZE as u64), 0u64..(SIZE as u64)), 1..40)
    ) {
        // Commit/pull-only scripts maximize descriptor traffic through the
        // segment arena; `execute` asserts zero slots survive the drop.
        prop_assert_eq!(execute(ops), Ok(()));
    }
}

/// Regions live in one tenant's capability domain: same-tenant replicas
/// attach normally, a foreign tenant's attach dies at grant time with a
/// typed denial and leaves no half-built replica behind.
#[test]
fn cross_tenant_region_attach_is_denied_at_grant_time() {
    use molecule_state::StateError;
    use xpu_shim::{ShimError, TenantId};

    let machine = Machine::paper_cpu_dpu_server();
    let cluster = ShimCluster::deploy(machine, ShimConfig::default());
    let layer = StateLayer::new(cluster);
    let l = layer.clone();
    let mut sim = Simulation::new();
    let h = sim.spawn("p", move |ctx| {
        l.create_region(ctx, PuId(0), RegionSpec::new("weights", PAGES).tenant(TenantId(1)))
            .unwrap();
        // A foreign tenant bounces off the guard object's domain...
        let denied = l.attach_as(ctx, PuId(1), "weights", TenantId(2)).unwrap_err();
        // ...leaving no replica residue on the PU...
        let leaked = l.block_of(PuId(1), "weights").is_some();
        // ...while the region's own tenant (the default) attaches fine.
        l.attach(ctx, PuId(1), "weights").unwrap();
        (denied, leaked)
    });
    sim.run().unwrap();
    let (denied, leaked) = h.take_result().unwrap();
    assert!(
        matches!(
            denied,
            StateError::Shim(ShimError::TenantDenied { owner: TenantId(1), to: TenantId(2), .. })
        ),
        "got {denied:?}"
    );
    assert!(!leaked, "denied attach left a replica behind");
}

/// A commit pushes the working set it sampled when it started. A page the
/// committer's PU writes again while that push is in flight was not pushed
/// in its new form, so it must stay in the working set — and go out with
/// the next commit — while the pages pushed unchanged leave it. Checked for
/// a remote committer (tier-2 push) and for the master (local publish).
#[test]
fn a_page_redirtied_while_its_commit_is_in_flight_stays_dirty() {
    use hetsim::engine::ProcCtx;

    const TWO: usize = 2 * PAGE as usize;
    /// What an observer (PU 2) and the committer read of the first two
    /// pages, after both pull.
    fn look(ctx: &mut ProcCtx, l: &StateLayer, committer: PuId) -> (Vec<u8>, Vec<u8>) {
        l.pull(ctx, PuId(2), "race").unwrap();
        l.pull(ctx, committer, "race").unwrap();
        (
            l.read(ctx, PuId(2), "race", 0, TWO as u64).unwrap(),
            l.read(ctx, committer, "race", 0, TWO as u64).unwrap(),
        )
    }

    let (a, b1, b2) = (pattern(0x10, PAGE), pattern(0x20, PAGE), pattern(0x30, PAGE));
    let ab1 = [a.clone(), b1.clone()].concat();
    let ab2 = [a.clone(), b2.clone()].concat();
    for committer in [PuId(1), PuId(0)] {
        let cluster = ShimCluster::deploy(Machine::paper_cpu_dpu_server(), ShimConfig::default());
        let layer = StateLayer::new(cluster);
        let mut sim = Simulation::new();

        let (l, data) = (layer.clone(), ab1.clone());
        sim.spawn("setup", move |ctx| {
            l.create_region(ctx, PuId(0), RegionSpec::new("race", PAGES)).unwrap();
            for pu in [1, 2] {
                l.attach(ctx, PuId(pu), "race").unwrap();
            }
            l.write(ctx, committer, "race", 0, &data, None).unwrap();
        });
        sim.run().unwrap();

        // The committer and a writer on the same PU start together; the
        // write lands while the push is still in flight.
        let l = layer.clone();
        let commit = sim.spawn("commit", move |ctx| (l.commit(ctx, committer, "race"), ctx.now()));
        let (l, data) = (layer.clone(), b2.clone());
        let rewrite = sim.spawn("rewrite", move |ctx| {
            l.write(ctx, committer, "race", PAGE, &data, None).unwrap();
            ctx.now()
        });
        sim.run().unwrap();
        let (version, committed_at) = commit.take_result().unwrap();
        assert_eq!(version, Ok(1), "committer {committer}");
        assert!(rewrite.take_result().unwrap() < committed_at, "the rewrite must race the push");

        let l = layer.clone();
        let observe = sim.spawn("observe", move |ctx| {
            let first = look(ctx, &l, committer);
            let next = l.commit(ctx, committer, "race");
            (first, next, look(ctx, &l, committer))
        });
        sim.run().unwrap();
        let ((published, local), next, (republished, relocal)) = observe.take_result().unwrap();
        // The push carried the page as sampled; the committer still reads
        // its rewrite over the published version...
        assert_eq!((published, local), (ab1.clone(), ab2.clone()), "committer {committer}");
        // ...and the next commit publishes it.
        assert_eq!(next, Ok(2), "committer {committer}");
        assert_eq!((republished, relocal), (ab2.clone(), ab2.clone()), "committer {committer}");
    }
}
