//! DPU I/O offload: a pool of DPU-resident proxy processes (paper §6.4,
//! "offloading the I/O path").
//!
//! At 10k+ resident sandboxes per PU the host CPU's time goes to I/O
//! shepherding — staging request bodies in and out of sandboxes — not to
//! function compute. Molecule's answer is the same one the paper gives for
//! the data plane generally: move the byte-pushing to the DPU. A
//! [`ProxyPool`] xSpawns `proxies_per_dpu` long-lived proxy processes on
//! every DPU in the machine. Host-side functions hand their I/O to a proxy
//! over existing nIPC — bodies at or above the zero-copy threshold (16 KiB,
//! [`SegmentCosts::min_payload`]) travel as capability-guarded descriptors,
//! never staged through the host kernel — and the proxy performs the device
//! I/O on the DPU, replying on a per-client reply FIFO.
//!
//! Three properties the density suite leans on:
//!
//! * **Per-proxy multiplexing.** One proxy serves many clients: requests
//!   from any client interleave on the proxy's single request FIFO, and each
//!   reply routes back over the reply FIFO named in the request frame.
//! * **Bounded in-flight windows.** Each proxy carries a client-side
//!   admission window ([`ProxyPoolConfig::window`]); an offload blocks (in
//!   virtual time) for a window slot before writing, so a slow DPU
//!   back-pressures callers instead of growing an unbounded queue.
//! * **Fault-plane-shaped failure.** A proxy dies exactly the way any nIPC
//!   peer dies: writes surface [`ShimError::PeerDead`], replies stop and the
//!   client's timeout fires. Every issued request is then *reclaimed exactly
//!   once* — the [ledger](ProxyStats) transitions each request id
//!   `InFlight → Completed` xor `InFlight → Reclaimed`, and any double
//!   transition is counted in [`ProxyStats::double_faults`] (asserted zero
//!   by the simcheck suite under DPU-kill fault plans).
//!
//! [`SegmentCosts::min_payload`]: hetsim::calib::SegmentCosts

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use hetsim::engine::{ProcCtx, SimSemaphore};
use hetsim::pu::{PuId, PuKind};
use hetsim::time::SimDuration;
use parking_lot::Mutex;
use xpu_shim::cap::Perm;
use xpu_shim::cluster::ShimCluster;
use xpu_shim::error::ShimError;
use xpu_shim::fifo::{XpuFifoReader, XpuFifoWriter};
use xpu_shim::id::{GlobalUuid, ObjId, XpuPid};

/// Tuning knobs for a [`ProxyPool`].
#[derive(Debug, Clone, Copy)]
pub struct ProxyPoolConfig {
    /// Proxy processes xSpawned on each DPU.
    pub proxies_per_dpu: usize,
    /// Client-side in-flight window per proxy: offloads beyond this block
    /// for a slot instead of queueing unboundedly on the request FIFO.
    pub window: u64,
    /// Simulated device service time the proxy spends per request (the
    /// storage/NIC work that offload moves off the host CPU).
    pub device_service: SimDuration,
    /// How long a client waits for a reply before reclaiming the request.
    pub reply_timeout: SimDuration,
}

impl Default for ProxyPoolConfig {
    fn default() -> ProxyPoolConfig {
        ProxyPoolConfig {
            proxies_per_dpu: 2,
            window: 32,
            device_service: SimDuration::from_micros(3),
            reply_timeout: SimDuration::from_millis(2),
        }
    }
}

/// Why an offload failed.
#[derive(Debug)]
pub enum ProxyError {
    /// Every proxy's DPU is marked dead — nothing to route to.
    NoProxy,
    /// No reply within [`ProxyPoolConfig::reply_timeout`]; the request was
    /// reclaimed.
    Timeout,
    /// The shim layer failed the hand-off (typically
    /// [`ShimError::PeerDead`] when the proxy's DPU died mid-write).
    Shim(ShimError),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::NoProxy => write!(f, "no live proxy to offload to"),
            ProxyError::Timeout => write!(f, "proxy reply timed out; request reclaimed"),
            ProxyError::Shim(e) => write!(f, "proxy hand-off failed: {e}"),
        }
    }
}

impl std::error::Error for ProxyError {}

impl From<ShimError> for ProxyError {
    fn from(e: ShimError) -> ProxyError {
        ProxyError::Shim(e)
    }
}

/// A completed offload, as reported by the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProxyReply {
    /// Bytes of body the proxy pushed to the device.
    pub bytes_done: u64,
}

/// Exactly-once ledger counters. Invariant the density suites assert:
/// `issued == completed + reclaimed` once quiescent, and `double_faults`
/// is always zero — no request is ever completed *and* reclaimed, or
/// either twice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Requests handed a fresh id (the only entry point).
    pub issued: u64,
    /// Requests whose reply reached their issuer.
    pub completed: u64,
    /// Requests abandoned — write failed or reply timed out.
    pub reclaimed: u64,
    /// Replies that arrived after their request was reclaimed. Legal (the
    /// DPU finished the work; the client had given up) and counted once.
    pub late_replies: u64,
    /// Attempted double transitions. Must stay zero.
    pub double_faults: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqState {
    InFlight,
    Completed,
    Reclaimed,
}

/// The exactly-once request ledger. Terminal states are retained so a
/// duplicate or late transition is *detected* (as a `late_replies` or
/// `double_faults` count) rather than silently re-admitted.
#[derive(Debug, Default)]
struct Ledger {
    next_id: u64,
    states: HashMap<u64, ReqState>,
    stats: ProxyStats,
}

impl Ledger {
    fn issue(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.states.insert(id, ReqState::InFlight);
        self.stats.issued += 1;
        id
    }

    fn complete(&mut self, id: u64) {
        match self.states.get_mut(&id) {
            Some(s @ ReqState::InFlight) => {
                *s = ReqState::Completed;
                self.stats.completed += 1;
            }
            Some(ReqState::Reclaimed) => self.stats.late_replies += 1,
            Some(ReqState::Completed) | None => self.stats.double_faults += 1,
        }
    }

    fn reclaim(&mut self, id: u64) {
        match self.states.get_mut(&id) {
            Some(s @ ReqState::InFlight) => {
                *s = ReqState::Reclaimed;
                self.stats.reclaimed += 1;
            }
            _ => self.stats.double_faults += 1,
        }
    }
}

/// One DPU-resident proxy endpoint.
struct ProxyEndpoint {
    pid: XpuPid,
    pu: PuId,
    req_uuid: GlobalUuid,
    req_obj: ObjId,
    window: SimSemaphore,
}

struct PoolInner {
    cluster: ShimCluster,
    config: ProxyPoolConfig,
    proxies: Vec<ProxyEndpoint>,
    ledger: Mutex<Ledger>,
    rr: Mutex<usize>,
    dead: Mutex<HashSet<PuId>>,
}

/// A pool of DPU-resident I/O proxy processes. Cheap to clone; all clones
/// share the ledger and routing state.
#[derive(Clone)]
pub struct ProxyPool {
    inner: Arc<PoolInner>,
}

impl fmt::Debug for ProxyPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProxyPool")
            .field("proxies", &self.inner.proxies.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// A host-side client registered with the pool: owns its reply FIFO and a
/// connected writer to every proxy's request FIFO.
pub struct ProxyClient {
    pid: XpuPid,
    reply_fifo: XpuFifoReader,
    reply_uuid: GlobalUuid,
    writers: Vec<XpuFifoWriter>,
}

impl ProxyClient {
    /// The client's process identity.
    pub fn pid(&self) -> XpuPid {
        self.pid
    }
}

// Wire format. Request: req_id u64 LE | uuid_len u16 LE | reply-uuid bytes
// | body. Reply: req_id u64 LE | bytes_done u64 LE. The body rides the
// frame itself, so a ≥16 KiB body pushes the whole frame over the
// zero-copy threshold and the shim hands off a descriptor instead of
// staging bytes.
//
// `u64::MAX` is reserved as the shutdown sentinel: the ledger counter would
// need ~10^19 requests to collide with it.
const SHUTDOWN_ID: u64 = u64::MAX;
fn encode_request(req_id: u64, reply_uuid: &GlobalUuid, body: &Bytes) -> Bytes {
    let uuid = reply_uuid.as_str().as_bytes();
    let mut buf = BytesMut::with_capacity(8 + 2 + uuid.len() + body.len());
    buf.put_u64_le(req_id);
    buf.put_u16_le(uuid.len() as u16);
    buf.put_slice(uuid);
    buf.put_slice(body);
    buf.freeze()
}

fn decode_request(mut raw: Bytes) -> Option<(u64, GlobalUuid, u64)> {
    if raw.len() < 10 {
        return None;
    }
    let req_id = raw.get_u64_le();
    let uuid_len = raw.get_u16_le() as usize;
    if raw.len() < uuid_len {
        return None;
    }
    let uuid = String::from_utf8(raw.split_to(uuid_len).to_vec()).ok()?;
    Some((req_id, GlobalUuid::new(uuid), raw.len() as u64))
}

fn encode_reply(req_id: u64, bytes_done: u64) -> Bytes {
    let mut buf = BytesMut::with_capacity(16);
    buf.put_u64_le(req_id);
    buf.put_u64_le(bytes_done);
    buf.freeze()
}

fn decode_reply(mut raw: Bytes) -> Option<(u64, u64)> {
    if raw.len() < 16 {
        return None;
    }
    Some((raw.get_u64_le(), raw.get_u64_le()))
}

impl ProxyPool {
    /// Deploys the pool: xSpawns `proxies_per_dpu` proxy processes on every
    /// DPU in the machine, each blocked on its own request FIFO. Mirrors the
    /// executor wiring: the proxy pid is attached *before* the xSpawn so the
    /// request FIFO can be created under its ownership, and the serving body
    /// acts as that pid.
    ///
    /// # Errors
    ///
    /// Shim failures (no DPUs is not an error — the pool is just empty and
    /// every offload returns [`ProxyError::NoProxy`]).
    pub fn deploy(
        ctx: &mut ProcCtx,
        cluster: &ShimCluster,
        config: ProxyPoolConfig,
    ) -> Result<ProxyPool, ShimError> {
        let host = cluster.machine().host_cpu();
        let host_shim = cluster.shim_on(host)?;
        let manager = host_shim.attach_process();
        let mut proxies = Vec::new();
        for pu in cluster.machine().pus_of_kind(PuKind::Dpu) {
            let dpu_shim = cluster.shim_on(pu)?;
            for i in 0..config.proxies_per_dpu {
                let pid = dpu_shim.attach_process();
                let req_fifo =
                    dpu_shim.xfifo_init(ctx, pid, format!("proxy-req-{}-{}", pu.raw(), i))?;
                let req_uuid = req_fifo.uuid().clone();
                let req_obj = req_fifo.obj();
                let cluster_for_proxy = cluster.clone();
                let service = config.device_service;
                host_shim.xspawn(
                    ctx,
                    manager,
                    pu,
                    "dpu-io-proxy",
                    &[],
                    move |ectx, _spawned| {
                        serve_proxy(ectx, &cluster_for_proxy, pid, &req_fifo, service);
                    },
                )?;
                proxies.push(ProxyEndpoint {
                    pid,
                    pu,
                    req_uuid,
                    req_obj,
                    window: ctx.semaphore(config.window),
                });
            }
        }
        let pool = ProxyPool {
            inner: Arc::new(PoolInner {
                cluster: cluster.clone(),
                config,
                proxies,
                ledger: Mutex::new(Ledger::default()),
                rr: Mutex::new(0),
                dead: Mutex::new(HashSet::new()),
            }),
        };
        cluster.on_pu_death("proxy", &pool.inner, |inner, _ctx, pu| {
            ProxyPool { inner }.fail_pu(pu);
        });
        Ok(pool)
    }

    /// Registers a host-side client: creates its reply FIFO, grants every
    /// proxy WRITE on it, grants the client WRITE on every request FIFO, and
    /// connects the request writers.
    ///
    /// # Errors
    ///
    /// Shim failures (capability or FIFO errors).
    pub fn client(&self, ctx: &mut ProcCtx, on: PuId) -> Result<ProxyClient, ShimError> {
        let shim = self.inner.cluster.shim_on(on)?;
        let pid = shim.attach_process();
        let reply_fifo =
            shim.xfifo_init(ctx, pid, format!("proxy-reply-{}-{}", on.raw(), pid.local))?;
        let reply_uuid = reply_fifo.uuid().clone();
        let reply_obj = reply_fifo.obj();
        let mut writers = Vec::with_capacity(self.inner.proxies.len());
        for proxy in &self.inner.proxies {
            shim.grant_cap(ctx, pid, proxy.pid, reply_obj, Perm::WRITE)?;
            let dpu_shim = self.inner.cluster.shim_on(proxy.pu)?;
            dpu_shim.grant_cap(ctx, proxy.pid, pid, proxy.req_obj, Perm::WRITE)?;
            writers.push(shim.xfifo_connect(ctx, pid, &proxy.req_uuid)?);
        }
        Ok(ProxyClient { pid, reply_fifo, reply_uuid, writers })
    }

    /// Offloads one I/O body to a proxy and waits for its reply.
    ///
    /// Routing is round-robin over proxies on live DPUs. The call blocks (in
    /// virtual time) for a window slot, writes the request frame — ≥16 KiB
    /// bodies go as zero-copy descriptors — then reads the reply FIFO until
    /// the matching reply arrives. Replies for *other* requests of the same
    /// client (stragglers from a timed-out earlier offload) are fed to the
    /// ledger as late replies and skipped.
    ///
    /// # Errors
    ///
    /// [`ProxyError::NoProxy`] with no live proxies; [`ProxyError::Shim`]
    /// when the write fails (the proxy's DPU is marked dead on
    /// [`ShimError::PeerDead`]); [`ProxyError::Timeout`] when no reply lands
    /// within the configured window. On every error path the request is
    /// reclaimed exactly once.
    pub fn offload(
        &self,
        ctx: &mut ProcCtx,
        client: &mut ProxyClient,
        body: Bytes,
    ) -> Result<ProxyReply, ProxyError> {
        let idx = self.pick().ok_or(ProxyError::NoProxy)?;
        let proxy = &self.inner.proxies[idx];
        let _slot = proxy.window.acquire(ctx, 1);
        let req_id = self.inner.ledger.lock().issue();
        let frame = encode_request(req_id, &client.reply_uuid, &body);
        if let Err(e) = client.writers[idx].write(ctx, frame) {
            self.inner.ledger.lock().reclaim(req_id);
            if matches!(e, ShimError::PeerDead(_)) {
                self.fail_pu(proxy.pu);
            }
            return Err(ProxyError::Shim(e));
        }
        loop {
            match client.reply_fifo.read_timeout(ctx, self.inner.config.reply_timeout) {
                Ok(raw) => {
                    let Some((id, bytes_done)) = decode_reply(raw) else { continue };
                    let mut ledger = self.inner.ledger.lock();
                    ledger.complete(id);
                    if id == req_id {
                        return Ok(ProxyReply { bytes_done });
                    }
                }
                Err(ShimError::FifoTimeout) => {
                    self.inner.ledger.lock().reclaim(req_id);
                    return Err(ProxyError::Timeout);
                }
                Err(e) => {
                    self.inner.ledger.lock().reclaim(req_id);
                    return Err(ProxyError::Shim(e));
                }
            }
        }
    }

    /// Marks a DPU dead for routing: its proxies stop receiving new
    /// offloads. In-flight requests to them are reclaimed by their waiting
    /// clients (write error or reply timeout) — there is exactly one
    /// reclaimer per request, which is what makes reclaim exactly-once
    /// trivial to enforce. Runs on [`ShimError::PeerDead`] and as the
    /// pool's PU-death subscriber.
    fn fail_pu(&self, pu: PuId) {
        self.inner.dead.lock().insert(pu);
    }

    /// Number of proxies currently eligible for routing.
    pub fn live_proxies(&self) -> usize {
        let dead = self.inner.dead.lock();
        self.inner.proxies.iter().filter(|p| !dead.contains(&p.pu)).count()
    }

    /// Total proxies deployed (live or not).
    pub fn proxy_count(&self) -> usize {
        self.inner.proxies.len()
    }

    /// Snapshot of the exactly-once ledger.
    pub fn stats(&self) -> ProxyStats {
        self.inner.ledger.lock().stats
    }

    /// Stops every proxy: writes the shutdown sentinel on each request FIFO,
    /// acting as the proxy's own pid (a same-PU write, so it reaches even
    /// proxies whose DPU the fault plane already marked dead — they drain
    /// the sentinel and exit instead of blocking the simulation forever).
    pub fn shutdown(&self, ctx: &mut ProcCtx) {
        for proxy in &self.inner.proxies {
            let Ok(shim) = self.inner.cluster.shim_on(proxy.pu) else { continue };
            let Ok(w) = shim.xfifo_connect(ctx, proxy.pid, &proxy.req_uuid) else { continue };
            let _ = w.write(ctx, encode_request(SHUTDOWN_ID, &GlobalUuid::new(""), &Bytes::new()));
        }
    }

    /// Round-robin over live proxies; `None` when everything is dead.
    fn pick(&self) -> Option<usize> {
        let n = self.inner.proxies.len();
        if n == 0 {
            return None;
        }
        let dead = self.inner.dead.lock();
        let mut rr = self.inner.rr.lock();
        for _ in 0..n {
            let idx = *rr % n;
            *rr = (*rr + 1) % n;
            if !dead.contains(&self.inner.proxies[idx].pu) {
                return Some(idx);
            }
        }
        None
    }
}

/// The proxy serving loop: read a request frame, spend the device service
/// time, write the reply to the client's reply FIFO (connecting lazily, one
/// cached writer per distinct client). Any read error — FIFO reclaimed,
/// DPU killed — ends the loop; reply-write errors are tolerated (the client
/// may have timed out and gone away).
fn serve_proxy(
    ectx: &mut ProcCtx,
    cluster: &ShimCluster,
    pid: XpuPid,
    req_fifo: &XpuFifoReader,
    service: SimDuration,
) {
    let Ok(shim) = cluster.shim_on(pid.pu) else { return };
    let mut reply_writers: HashMap<GlobalUuid, XpuFifoWriter> = HashMap::new();
    loop {
        let Ok(raw) = req_fifo.read(ectx) else { return };
        let Some((req_id, reply_uuid, body_len)) = decode_request(raw) else { continue };
        if req_id == SHUTDOWN_ID {
            return;
        }
        // The offloaded device I/O itself — the work that no longer burns
        // host-CPU cycles.
        ectx.sleep(service);
        if !reply_writers.contains_key(&reply_uuid) {
            match shim.xfifo_connect(ectx, pid, &reply_uuid) {
                Ok(w) => {
                    reply_writers.insert(reply_uuid.clone(), w);
                }
                Err(_) => continue,
            }
        }
        let writer = reply_writers.get(&reply_uuid).expect("just inserted");
        if writer.write(ectx, encode_reply(req_id, body_len)).is_err() {
            reply_writers.remove(&reply_uuid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::engine::Simulation;
    use hetsim::time::SimTime;
    use hetsim::topology::Machine;
    use xpu_shim::cluster::ShimConfig;

    fn two_dpu_machine() -> Machine {
        Machine::builder().host_cpu().bluefield2_dpus(2).build()
    }

    #[test]
    fn frames_roundtrip() {
        let body = Bytes::from(vec![7u8; 1000]);
        let frame = encode_request(42, &GlobalUuid::new("proxy-reply-0-9"), &body);
        let (id, uuid, len) = decode_request(frame).unwrap();
        assert_eq!((id, uuid.as_str(), len), (42, "proxy-reply-0-9", 1000));
        assert_eq!(decode_reply(encode_reply(42, 1000)), Some((42, 1000)));
        assert_eq!(decode_request(Bytes::from_static(b"short")), None);
        assert_eq!(decode_reply(Bytes::from_static(b"short")), None);
    }

    #[test]
    fn offloads_complete_exactly_once_across_concurrent_clients() {
        let mut sim = Simulation::new();
        // Default config keeps zero-copy on, so large bodies go as
        // descriptors.
        let cluster = ShimCluster::deploy(two_dpu_machine(), ShimConfig::default());
        let host = cluster.machine().host_cpu();
        let cl = cluster.clone();
        let driver = sim.spawn("driver", move |ctx| {
            let pool = ProxyPool::deploy(ctx, &cl, ProxyPoolConfig::default()).unwrap();
            assert_eq!(pool.proxy_count(), 4, "2 DPUs x 2 proxies");
            let mut handles = Vec::new();
            for c in 0..3u8 {
                let pool = pool.clone();
                handles.push(ctx.spawn(&format!("client-{c}"), move |cctx| {
                    let mut client = pool.client(cctx, host).unwrap();
                    let mut done = 0u64;
                    for i in 0..20 {
                        // Mix small (inline) and large (descriptor) bodies.
                        let size = if i % 2 == 0 { 512 } else { 64 * 1024 };
                        let reply =
                            pool.offload(cctx, &mut client, Bytes::from(vec![c; size])).unwrap();
                        assert_eq!(reply.bytes_done, size as u64);
                        done += 1;
                    }
                    done
                }));
            }
            let mut total = 0u64;
            for h in &handles {
                h.join(ctx);
                total += h.take_result().unwrap();
            }
            pool.shutdown(ctx);
            (total, pool.stats())
        });
        sim.run().unwrap();
        let (total, stats) = driver.take_result().unwrap();
        assert_eq!(total, 60);
        assert_eq!(stats.issued, 60);
        assert_eq!(stats.completed, 60);
        assert_eq!(stats.reclaimed, 0);
        assert_eq!(stats.double_faults, 0);
        // Half the bodies were ≥ the 16 KiB zero-copy threshold, so the
        // shim must have moved them as descriptors, not staged copies.
        assert!(cluster.stats().descriptor_handoffs >= 30);
    }

    #[test]
    fn dead_dpu_fails_over_and_reclaims_exactly_once() {
        let mut sim = Simulation::new();
        let cluster = ShimCluster::deploy(two_dpu_machine(), ShimConfig::pinned());
        let host = cluster.machine().host_cpu();
        let dead_pu = cluster.machine().pus_of_kind(PuKind::Dpu)[0];
        let cl = cluster.clone();
        let driver = sim.spawn("driver", move |ctx| {
            let pool = ProxyPool::deploy(ctx, &cl, ProxyPoolConfig::default()).unwrap();
            let mut client = pool.client(ctx, host).unwrap();
            for _ in 0..4 {
                pool.offload(ctx, &mut client, Bytes::from(vec![1u8; 512])).unwrap();
            }
            // Kill one DPU; from now on offloads routed there fail with
            // PeerDead (or time out) and must fail over to the survivor.
            cl.machine().fault_plane().kill_pu(ctx.now(), dead_pu);
            let mut failures = 0u32;
            let mut served = 0u32;
            while served < 8 {
                match pool.offload(ctx, &mut client, Bytes::from(vec![2u8; 512])) {
                    Ok(_) => served += 1,
                    Err(ProxyError::Shim(ShimError::PeerDead(pu))) => {
                        assert_eq!(pu, dead_pu);
                        failures += 1;
                    }
                    Err(ProxyError::Timeout) => failures += 1,
                    Err(e) => panic!("unexpected offload error: {e}"),
                }
                assert!(failures < 16, "failover never converged");
            }
            // Declaring the death reclaims the dead DPU's FIFOs, which is
            // what unblocks its proxy processes; live proxies drain the
            // shutdown sentinel.
            cl.declare_pu_dead(ctx, dead_pu);
            pool.shutdown(ctx);
            (served, failures, pool.live_proxies(), pool.stats())
        });
        sim.run().unwrap();
        let (served, failures, live, stats) = driver.take_result().unwrap();
        assert_eq!(served, 8);
        assert!(failures >= 1, "the dead DPU was never even tried");
        assert_eq!(live, 2, "the dead DPU's proxies left rotation");
        assert_eq!(stats.issued, stats.completed + stats.reclaimed);
        assert_eq!(stats.reclaimed, failures as u64);
        assert_eq!(stats.double_faults, 0, "no request completed and reclaimed");
    }

    #[test]
    fn window_bounds_in_flight_requests() {
        // One proxy, window 2, a slow device, and 6 concurrent clients:
        // the 3rd..6th offloads must wait for a window slot, so the makespan
        // is ceil(6/2) service rounds, not 1.
        let mut sim = Simulation::new();
        let machine = Machine::builder().host_cpu().bluefield2_dpus(1).build();
        let cluster = ShimCluster::deploy(machine, ShimConfig::pinned());
        let host = cluster.machine().host_cpu();
        let config = ProxyPoolConfig {
            proxies_per_dpu: 1,
            window: 2,
            device_service: SimDuration::from_micros(100),
            reply_timeout: SimDuration::from_millis(50),
        };
        let cl = cluster.clone();
        let driver = sim.spawn("driver", move |ctx| {
            let pool = ProxyPool::deploy(ctx, &cl, config).unwrap();
            let mut handles = Vec::new();
            for c in 0..6 {
                let pool = pool.clone();
                handles.push(ctx.spawn(&format!("client-{c}"), move |cctx| {
                    let mut client = pool.client(cctx, host).unwrap();
                    pool.offload(cctx, &mut client, Bytes::from(vec![0u8; 256])).unwrap();
                    cctx.now()
                }));
            }
            let mut finish = Vec::new();
            for h in &handles {
                h.join(ctx);
                finish.push(h.take_result().unwrap());
            }
            pool.shutdown(ctx);
            (finish, pool.stats())
        });
        sim.run().unwrap();
        let (finish, stats) = driver.take_result().unwrap();
        let makespan = finish.iter().max().unwrap();
        // 6 requests through a window of 2 at 100 us service each: the last
        // pair cannot finish before 3 service times have elapsed.
        assert!(
            *makespan >= SimTime::ZERO + SimDuration::from_micros(300),
            "window did not serialize: makespan {makespan:?}"
        );
        assert_eq!(stats.completed, 6);
    }
}
