//! A real localhost deployment of the Price $heriff over TCP.
//!
//! This is the "does it actually run on sockets" proof — and since the
//! protocol refactor it is a *thin transport adapter*: every role
//! (Coordinator, Aggregator, Measurement servers, Database server, IPCs,
//! PPC add-ons) is one of the sans-IO state machines from
//! [`sheriff_core::protocol`], exactly the ones the discrete-event
//! simulation drives.
//!
//! Since the reactor refactor the transport tier is *sharded*: the node
//! roster is hashed over a small set of single-threaded event loops
//! (see [`crate::reactor`]), each owning its nodes' nonblocking
//! listeners, live connections and a virtual-time timer queue. Thread
//! count is `O(shards)` instead of `O(nodes)`, which is what lets the
//! TCP backend host rosters past the paper's 1265-peer deployment.
//! Sends are still one [`Envelope`] per connection (connect–write–close)
//! and time is still real elapsed milliseconds since deployment start —
//! the protocol machines cannot tell the backends apart, and the
//! `backend_parity` test pins both to identical observation sets.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sheriff_core::coordinator::{Coordinator, PeerId};
use sheriff_core::durability::recover;
use sheriff_core::pollution::PollutionLedger;
use sheriff_core::protocol::{
    Address, AggregatorProto, Channel, CompletedProtoCheck, CoordinatorProto, DbProto, DefenseBook,
    IpcProto, MeasurementParams, MeasurementProto, PeerProto, ProtoMsg, ReliableConfig,
};
use sheriff_core::proxy::{IpcEngine, PpcEngine};
use sheriff_core::records::PriceCheck;
use sheriff_core::system::{PpcSpec, SheriffConfig, SystemVersion};
use sheriff_core::{BrowserProfile, Whitelist};
use sheriff_geo::{Country, GeoLocator, Granularity, IpAllocator};
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::{ByzStats, FaultPlan, FaultStats};
use sheriff_telemetry::Registry;

use crate::proto::{rows_from_check, Envelope, ResultRow};
use crate::reactor::reactor::Reactor;
use crate::reactor::shard::{
    default_shard_count, ring_owner, shard_of, ByzShim, Doorbell, FaultShim, NodeSlot, Role,
    ShardCtx,
};
use crate::reactor::DeployOptions;
use crate::storage::FileStorage;
use crate::telemetry::WireTelemetry;

/// How long [`MiniDeployment::run_check`] waits before declaring a check
/// lost.
const CHECK_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything the initiating add-ons surface to the outside world.
#[derive(Default)]
pub(crate) struct SinkState {
    pub(crate) completed: Vec<CompletedProtoCheck>,
    /// `(local_tag, reason)`.
    pub(crate) rejected: Vec<(u64, String)>,
    /// `(server_index, removed)` acks.
    pub(crate) removals: Vec<(usize, bool)>,
}

/// The sink uses `std::sync` primitives (the vendored `parking_lot` has
/// no condvar); the world stays behind `parking_lot::Mutex` to match the
/// core crate's types.
pub(crate) struct Sink {
    pub(crate) state: std::sync::Mutex<SinkState>,
    pub(crate) cv: std::sync::Condvar,
}

impl Sink {
    /// Blocks on the sink until `pick` yields, or `deadline` passes.
    fn wait_for<T>(
        &self,
        deadline: Instant,
        mut pick: impl FnMut(&mut SinkState) -> Option<T>,
    ) -> Option<T> {
        let mut st = self.state.lock().expect("sink poisoned");
        loop {
            if let Some(v) = pick(&mut st) {
                return Some(v);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (guard, _) = self.cv.wait_timeout(st, remaining).expect("sink poisoned");
            st = guard;
        }
    }
}

/// The running deployment.
pub struct MiniDeployment {
    dir: Arc<HashMap<Address, SocketAddr>>,
    /// One join handle per reactor shard (not per node).
    handles: Vec<JoinHandle<()>>,
    world: Arc<Mutex<World>>,
    telemetry: Arc<Registry>,
    wire: Arc<WireTelemetry>,
    sink: Arc<Sink>,
    next_tag: AtomicU64,
    shim: Option<Arc<FaultShim>>,
    byz: Option<Arc<ByzShim>>,
    /// Fault-plan node indices (bind order — the DES numbering) grouped
    /// by owning reactor shard.
    shards: Vec<Vec<usize>>,
    /// One wake-up line per reactor shard; rung after every injected
    /// frame so the owning shard does not sit out its idle wait.
    bells: Arc<[Doorbell]>,
    /// Local tags of checks begun but not yet completed or rejected.
    in_flight: Mutex<Vec<u64>>,
    /// On-disk home of the Database server's WAL + snapshot (v2 only);
    /// removed on shutdown unless recovered first.
    db_dir: Option<PathBuf>,
}

impl MiniDeployment {
    /// Starts a minimal deployment: v1 ($heriff) configuration, one
    /// Measurement server, no IPCs — peer fan-out only, with timings
    /// shrunk to wall-clock test scale. The full configuration surface is
    /// [`MiniDeployment::start_with`].
    pub fn start(world: World, peers: &[(u64, Country)]) -> io::Result<MiniDeployment> {
        let cfg = Self::start_config();
        let specs: Vec<PpcSpec> = peers
            .iter()
            .map(|&(peer_id, country)| PpcSpec {
                peer_id,
                country,
                city_idx: 0,
                user_agent: UserAgent {
                    os: Os::Linux,
                    browser: Browser::Firefox,
                },
                affluence: 0.3,
                logged_in_domains: vec![],
            })
            .collect();
        Self::start_with(world, cfg, &specs)
    }

    /// The configuration [`MiniDeployment::start`] runs.
    fn start_config() -> SheriffConfig {
        let mut cfg = SheriffConfig::v1(7);
        cfg.ipc_locations.clear();
        cfg.proc_per_reply_ms = 2.0;
        cfg.context_switch_alpha = 0.0;
        cfg.job_deadline_ms = 8_000;
        // In effect no beacons — so the staleness threshold must move
        // with the period (the defaults' 3× ratio), or the Coordinator
        // writes every server off 30 s in.
        cfg.heartbeat_every_ms = 3_600_000;
        cfg.heartbeat_timeout_ms = 3 * cfg.heartbeat_every_ms;
        cfg
    }

    /// Starts the full system over TCP with the *same* configuration type
    /// the discrete-event backend takes. Fetch-latency knobs are ignored
    /// (loopback fetches are real); everything protocol-visible —
    /// version, server count, IPC roster, PPCs per request, currency,
    /// doppelganger switch, heartbeat policy — behaves identically.
    pub fn start_with(
        world: World,
        cfg: SheriffConfig,
        peers: &[PpcSpec],
    ) -> io::Result<MiniDeployment> {
        Self::start_with_faults(world, cfg, peers, FaultPlan::new(0))
    }

    /// Like [`MiniDeployment::start_with`], with a deterministic fault
    /// schedule applied at the reactor's socket edges — the very
    /// [`FaultPlan`] type the DES engine consumes, against the same node
    /// numbering, so one schedule exercises both backends identically. An
    /// inactive (all-zero) plan is bypassed entirely: a strict no-op.
    pub fn start_with_faults(
        world: World,
        cfg: SheriffConfig,
        peers: &[PpcSpec],
        plan: FaultPlan,
    ) -> io::Result<MiniDeployment> {
        Self::start_with_options(world, cfg, peers, plan, DeployOptions::default())
    }

    /// The full-surface constructor: fault schedule plus reactor tuning.
    /// `opts.shards == 0` sizes the shard set from the roster.
    pub fn start_with_options(
        world: World,
        cfg: SheriffConfig,
        peers: &[PpcSpec],
        plan: FaultPlan,
        opts: DeployOptions,
    ) -> io::Result<MiniDeployment> {
        let whitelist = Whitelist::with_domains(world.domains().map(str::to_string));
        let world = Arc::new(Mutex::new(world));
        let rates = world.lock().rates.clone();
        let mut alloc = IpAllocator::new();
        let locator = GeoLocator::new(Granularity::City);
        let telemetry = Arc::new(Registry::new());
        let wire = Arc::new(WireTelemetry::new(&telemetry));
        let sink = Arc::new(Sink {
            state: std::sync::Mutex::new(SinkState::default()),
            cv: std::sync::Condvar::new(),
        });

        let n_servers = if cfg.version == SystemVersion::V1 {
            1
        } else {
            cfg.n_measurement_servers
        };
        let has_db = cfg.version == SystemVersion::V2;
        // Per-deployment on-disk home for the Database server's WAL +
        // snapshot; the pid/sequence pair keeps concurrent test binaries
        // and repeated deployments in one process apart.
        let db_dir = has_db.then(|| {
            static DB_DIR_SEQ: AtomicU64 = AtomicU64::new(0);
            std::env::temp_dir().join(format!(
                "sheriff-db-{}-{}",
                std::process::id(),
                DB_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });

        // Coordinator state. IP allocation order matches the DES backend
        // exactly (peers first, then IPCs) so both produce identical
        // observation sets under the same world seed.
        let mut coordinator = Coordinator::with_telemetry(whitelist, Arc::clone(&telemetry));
        coordinator.heartbeat_timeout_ms = cfg.heartbeat_timeout_ms;
        for i in 0..n_servers {
            coordinator.register_server(&format!("ms-{i}"), 80, 0);
        }
        let mut peer_setups = Vec::new();
        for spec in peers {
            let ip = alloc.allocate(spec.country, spec.city_idx);
            let location = locator.locate(ip).expect("allocated IPs always geolocate");
            coordinator.peer_online(PeerId(spec.peer_id), ip, location.clone());
            peer_setups.push((spec.clone(), ip, location));
        }

        // Bind every listener up front so the address directory is
        // complete before any shard runs.
        let mut listeners: Vec<(Address, TcpListener)> = Vec::new();
        let mut dir = HashMap::new();
        let bind = |addr: Address,
                    listeners: &mut Vec<(Address, TcpListener)>,
                    dir: &mut HashMap<Address, SocketAddr>|
         -> io::Result<()> {
            let l = TcpListener::bind("127.0.0.1:0")?;
            dir.insert(addr, l.local_addr()?);
            listeners.push((addr, l));
            Ok(())
        };
        bind(Address::Coordinator, &mut listeners, &mut dir)?;
        bind(Address::Aggregator, &mut listeners, &mut dir)?;
        if has_db {
            bind(Address::Database, &mut listeners, &mut dir)?;
        }
        for index in 0..n_servers {
            bind(Address::Server { index }, &mut listeners, &mut dir)?;
        }
        for index in 0..cfg.ipc_locations.len() {
            bind(Address::Ipc { index }, &mut listeners, &mut dir)?;
        }
        for spec in peers {
            bind(Address::Peer { id: spec.peer_id }, &mut listeners, &mut dir)?;
        }
        let dir = Arc::new(dir);
        let epoch = Instant::now();

        // Bind order above is exactly the DES node layout, so enumerating
        // it yields the index the fault and Byzantine plans are phrased
        // against.
        let index: HashMap<Address, usize> = listeners
            .iter()
            .enumerate()
            .map(|(i, (addr, _))| (*addr, i))
            .collect();
        let shim = plan
            .is_active()
            .then(|| Arc::new(FaultShim::new(plan, index.clone(), &telemetry)));
        let byz = opts
            .byzantine
            .clone()
            .filter(sheriff_netsim::ByzantinePlan::is_active)
            .map(|p| Arc::new(ByzShim::new(p, index)));
        let reliable_cfg = ReliableConfig {
            base_backoff_ms: cfg.retransmit_base_ms,
            ..ReliableConfig::default()
        };

        let ipc_addrs: Vec<Address> = (0..cfg.ipc_locations.len())
            .map(|index| Address::Ipc { index })
            .collect();
        let mut ipc_engines: HashMap<usize, (IpcEngine, Option<String>)> = HashMap::new();
        for (i, &(country, city_idx)) in cfg.ipc_locations.iter().enumerate() {
            let ip = alloc.allocate(country, city_idx);
            let city = locator.locate(ip).and_then(|l| l.city);
            ipc_engines.insert(
                i,
                (
                    IpcEngine {
                        id: i as u64,
                        country,
                        city_idx,
                        ip,
                        user_agent: UserAgent {
                            os: Os::Linux,
                            browser: Browser::Firefox,
                        },
                    },
                    city,
                ),
            );
        }
        let mut peer_setups: HashMap<u64, _> = peer_setups
            .into_iter()
            .map(|(spec, ip, loc)| (spec.peer_id, (spec, ip, loc)))
            .collect();
        let mut coordinator = Some(coordinator);

        // Instantiate every role machine in bind order.
        let mut roster: Vec<(Address, TcpListener, Role)> = Vec::new();
        for (addr, listener) in listeners {
            let role = match addr {
                Address::Coordinator => {
                    let mut proto = CoordinatorProto::new(
                        coordinator.take().expect("one coordinator"),
                        cfg.ppc_per_request,
                    );
                    proto.sweep_every_ms = cfg.coord_sweep_every_ms;
                    proto.defense = DefenseBook::new(cfg.defense).with_telemetry(&telemetry);
                    Role::Coordinator {
                        proto: Box::new(proto),
                        rng: StdRng::seed_from_u64(cfg.seed),
                        sweep_every_ms: cfg.coord_sweep_every_ms,
                    }
                }
                Address::Aggregator => Role::Aggregator {
                    proto: AggregatorProto::new(),
                },
                Address::Database => {
                    let dir = db_dir.as_ref().expect("database role implies a db dir");
                    Role::Database {
                        proto: Box::new(DbProto::with_storage(
                            cfg.db_cost,
                            Box::new(FileStorage::open(dir)),
                            cfg.db_snapshot_every,
                        )),
                    }
                }
                Address::Server { index } => {
                    let mut proto = MeasurementProto::new(MeasurementParams {
                        index,
                        ipcs: ipc_addrs.clone(),
                        rates: rates.clone(),
                        target_currency: cfg.target_currency.clone(),
                        proc_per_reply_ms: cfg.proc_per_reply_ms,
                        context_switch_alpha: cfg.context_switch_alpha,
                        job_deadline_ms: cfg.job_deadline_ms,
                        db_cost: cfg.db_cost,
                        integrated_db: cfg.version == SystemVersion::V1,
                        heartbeat_every_ms: cfg.heartbeat_every_ms,
                        ipc_countries: cfg.ipc_locations.iter().map(|&(c, _)| c).collect(),
                        defense: cfg.defense,
                    });
                    proto.defense = DefenseBook::new(cfg.defense).with_telemetry(&telemetry);
                    Role::Measurement {
                        proto: Box::new(proto),
                        beacon_every_ms: cfg.heartbeat_every_ms,
                    }
                }
                Address::Ipc { index } => {
                    let (engine, city) = ipc_engines.remove(&index).expect("ipc engine");
                    Role::Ipc {
                        proto: Box::new(IpcProto { engine, city }),
                    }
                }
                Address::Peer { id } => {
                    let (spec, ip, location) = peer_setups.remove(&id).expect("peer spec");
                    Role::Peer {
                        proto: Box::new(PeerProto::new(
                            PpcEngine {
                                peer_id: spec.peer_id,
                                browser: BrowserProfile::new(),
                                ledger: PollutionLedger::new(),
                                ip,
                                country: spec.country,
                                city_idx: spec.city_idx,
                                user_agent: spec.user_agent,
                                affluence: spec.affluence,
                                logged_in_domains: spec.logged_in_domains.clone(),
                            },
                            location.city,
                            cfg.target_currency.clone(),
                            cfg.enable_doppelgangers,
                        )),
                    }
                }
            };
            roster.push((addr, listener, role));
        }

        // Partition the roster over the reactor shards and spawn one
        // event-loop thread per shard.
        let n_nodes = roster.len();
        let n_shards = if opts.shards == 0 {
            default_shard_count(n_nodes)
        } else {
            opts.shards.clamp(1, n_nodes.max(1))
        };
        let bells: Arc<[Doorbell]> = (0..n_shards).map(|_| Doorbell::new()).collect();
        let ctx = ShardCtx {
            dir: Arc::clone(&dir),
            wire: Arc::clone(&wire),
            world: Arc::clone(&world),
            epoch,
            sink: Arc::clone(&sink),
            shim: shim.clone(),
            byz: byz.clone(),
            unknown_timers: telemetry.counter("protocol.unknown_timers"),
            wakeups: telemetry.counter("wire.reactor_wakeups"),
            queue_depth: telemetry.gauge("wire.shard_queue_depth"),
            doorbell_wakes: telemetry.counter("wire.reactor_doorbell_wakes"),
            idle_timeouts: telemetry.counter("wire.reactor_idle_timeouts"),
            bells: Arc::clone(&bells),
            shard: 0,
        };
        let mut groups: Vec<Vec<(NodeSlot, TcpListener)>> =
            (0..n_shards).map(|_| Vec::new()).collect();
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (fault_idx, (addr, listener, role)) in roster.into_iter().enumerate() {
            let chan = Channel::new(reliable_cfg).with_telemetry(&telemetry);
            let s = shard_of(addr, n_shards);
            groups[s].push((NodeSlot::new(addr, role, chan), listener));
            shards[s].push(fault_idx);
        }
        let handles = groups
            .into_iter()
            .enumerate()
            .map(|(shard, nodes)| {
                let ctx = ShardCtx {
                    shard,
                    ..ctx.clone()
                };
                std::thread::spawn(move || Reactor::new(ctx, nodes).run())
            })
            .collect();

        Ok(MiniDeployment {
            dir,
            handles,
            world,
            telemetry,
            wire,
            sink,
            next_tag: AtomicU64::new(1),
            shim,
            byz,
            shards,
            bells,
            in_flight: Mutex::new(Vec::new()),
            db_dir,
        })
    }

    /// The deployment's telemetry registry (wire.* counters). Clone the
    /// `Arc` before [`MiniDeployment::shutdown`] to inspect final counts.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Coordinator address (exposed so tests can poke the socket
    /// directly, e.g. with rude or malformed clients).
    pub fn coordinator_addr(&self) -> SocketAddr {
        self.dir[&Address::Coordinator]
    }

    /// The shared world (tests inspect ground truth through it).
    pub fn world(&self) -> Arc<Mutex<World>> {
        Arc::clone(&self.world)
    }

    /// Number of reactor shards (event-loop threads) this deployment
    /// runs on.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The fault-plan node indices (bind order — the DES numbering)
    /// owned by reactor shard `shard`. Tests use this to phrase crash
    /// schedules against a *whole shard*: every node here shares one
    /// event-loop thread.
    pub fn shard_members(&self, shard: usize) -> &[usize] {
        self.shards.get(shard).map_or(&[], Vec::as_slice)
    }

    /// Runs one full §3.2 price check initiated by `peer`'s add-on and
    /// returns the completed check.
    pub fn run_check(
        &self,
        peer: u64,
        domain: &str,
        product: ProductId,
    ) -> Result<PriceCheck, String> {
        let tag = self.begin_check(peer, domain, product)?;
        self.await_check(tag)
    }

    /// Injects a §3.2 check and returns its local tag without waiting.
    /// Pair with [`MiniDeployment::await_check`], or let
    /// [`MiniDeployment::shutdown_with_report`] tell you it was aborted.
    pub fn begin_check(&self, peer: u64, domain: &str, product: ProductId) -> Result<u64, String> {
        let me = Address::Peer { id: peer };
        if !self.dir.contains_key(&me) {
            return Err(format!("unknown peer {peer}"));
        }
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        self.in_flight.lock().push(tag);
        self.inject(
            me,
            me,
            ProtoMsg::StartCheck {
                domain: domain.to_string(),
                product,
                local_tag: tag,
            },
        )?;
        Ok(tag)
    }

    /// Blocks until the check behind `tag` completes or is rejected.
    pub fn await_check(&self, tag: u64) -> Result<PriceCheck, String> {
        let deadline = Instant::now() + CHECK_TIMEOUT;
        match self.sink.wait_for(deadline, |st| {
            if let Some(pos) = st.completed.iter().position(|c| c.local_tag == tag) {
                return Some(Ok(st.completed.swap_remove(pos).check));
            }
            if let Some(pos) = st.rejected.iter().position(|(t, _)| *t == tag) {
                let (_, reason) = st.rejected.swap_remove(pos);
                return Some(Err(format!("rejected: {reason}")));
            }
            None
        }) {
            Some(res) => {
                self.in_flight.lock().retain(|t| *t != tag);
                res
            }
            None => Err("price check timed out".into()),
        }
    }

    /// Running totals of the installed fault plan (`None` without one).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.shim.as_ref().map(|s| s.stats())
    }

    /// Running totals of the installed Byzantine plan (`None` without
    /// an active one).
    pub fn byz_stats(&self) -> Option<ByzStats> {
        self.byz.as_ref().map(|s| s.stats())
    }

    /// Like [`MiniDeployment::run_check`] but rendered as Fig. 2 result
    /// rows.
    pub fn run_price_check(
        &self,
        peer: u64,
        domain: &str,
        product: ProductId,
    ) -> Result<Vec<ResultRow>, String> {
        Ok(rows_from_check(&self.run_check(peer, domain, product)?))
    }

    /// Asks the Coordinator (as `via_peer`) to decommission Measurement
    /// server `index`; returns whether it was removed. The Coordinator
    /// refuses while the server still has pending jobs.
    pub fn remove_server(&self, via_peer: u64, index: usize) -> Result<bool, String> {
        let from = Address::Peer { id: via_peer };
        let before = self
            .sink
            .state
            .lock()
            .expect("sink poisoned")
            .removals
            .len();
        self.inject(from, Address::Coordinator, ProtoMsg::RemoveServer { index })?;
        let deadline = Instant::now() + CHECK_TIMEOUT;
        self.sink
            .wait_for(deadline, |st| {
                st.removals[before.min(st.removals.len())..]
                    .iter()
                    .find(|&&(i, _)| i == index)
                    .map(|&(_, removed)| removed)
            })
            .ok_or_else(|| "remove_server timed out".into())
    }

    /// Sends one envelope into the deployment from the outside.
    fn inject(&self, from: Address, to: Address, msg: ProtoMsg) -> Result<(), String> {
        let addr = self.dir.get(&to).ok_or_else(|| format!("unknown {to:?}"))?;
        let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        Envelope { from, msg }
            .send_counted(&mut s, &self.wire)
            .map_err(|e| e.to_string())?;
        ring_owner(&self.bells, to);
        Ok(())
    }

    fn shutdown_impl(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        // Let in-flight frames drain first: a client unblocks when the
        // completion sink is updated, which can happen *before* the
        // reactor's trailing Ack hits the wire — so a shard that reads
        // its Shutdown frames ahead of that Ack would exit without ever
        // counting it. Momentary balance is not enough (the Ack may not
        // have been written yet); require the books to balance and stay
        // still across several polls. Bounded wait, since a frame to a
        // node that already vanished (crash tests) never arrives.
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut last = (u64::MAX, u64::MAX);
        let mut stable = 0u32;
        while stable < 10 && Instant::now() < deadline {
            let now = (self.wire.frames_out.get(), self.wire.frames_in.get());
            if now.0 == now.1 && now == last {
                stable += 1;
            } else {
                stable = 0;
                last = now;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // One Shutdown frame per node: its shard stops accepting on that
        // listener and discards the node; a shard exits once every node
        // it owns is down and its write queues drained.
        for to in self.dir.keys() {
            let _ = self.inject(Address::Coordinator, *to, ProtoMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        if let Some(dir) = self.db_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Shuts down like [`MiniDeployment::shutdown`], then re-opens the
    /// Database server's on-disk storage and replays snapshot + WAL —
    /// exactly what a freshly restarted Database process would recover.
    /// Returns the recovered checks (empty for v1 deployments, which run
    /// no Database node). The storage directory is removed afterwards.
    pub fn shutdown_and_recover_db(mut self) -> Vec<PriceCheck> {
        let dir = self.db_dir.take();
        self.shutdown_impl();
        let Some(dir) = dir else {
            return Vec::new();
        };
        let storage = FileStorage::open(&dir);
        let recovered = recover(&storage);
        let _ = std::fs::remove_dir_all(&dir);
        recovered.records.into_iter().map(|r| r.check).collect()
    }

    /// Orderly shutdown: every node receives a Shutdown frame, every
    /// reactor shard thread is joined. Also runs on [`Drop`], so a
    /// deployment can never leak its threads.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    /// Shuts down like [`MiniDeployment::shutdown`], then reports the
    /// local tags of checks that were begun but never completed nor
    /// rejected — work aborted mid-flight. Every thread is joined either
    /// way; an in-flight check must never wedge the teardown.
    pub fn shutdown_with_report(mut self) -> Vec<u64> {
        self.shutdown_impl();
        // Snapshot each book under its own guard, never both at once:
        // the report path imposes no ordering between the sink and
        // in-flight locks, so the wire lock-order graph stays
        // edge-free (SL201).
        let (completed, rejected): (Vec<u64>, Vec<u64>) = {
            let st = self.sink.state.lock().expect("sink poisoned");
            (
                st.completed.iter().map(|c| c.local_tag).collect(),
                st.rejected.iter().map(|&(r, _)| r).collect(),
            )
        };
        let tags: Vec<u64> = self.in_flight.lock().clone();
        tags.into_iter()
            .filter(|t| !completed.contains(t) && !rejected.contains(t))
            .collect()
    }
}

impl Drop for MiniDeployment {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sheriff_market::world::WorldConfig;
    use sheriff_netsim::LinkFaults;

    /// Four same-country peers (PPC fan-out is location-local, §6.1) and
    /// two far-away IPC vantages for cross-country rows.
    fn deployment_with(plan: FaultPlan) -> MiniDeployment {
        let world = World::build(&WorldConfig::small(), 77);
        let mut cfg = MiniDeployment::start_config();
        cfg.ipc_locations = vec![(Country::US, 0), (Country::JP, 0)];
        let specs: Vec<PpcSpec> = [10u64, 11, 12, 13]
            .iter()
            .map(|&peer_id| PpcSpec {
                peer_id,
                country: Country::ES,
                city_idx: 0,
                user_agent: UserAgent {
                    os: Os::Linux,
                    browser: Browser::Firefox,
                },
                affluence: 0.3,
                logged_in_domains: vec![],
            })
            .collect();
        MiniDeployment::start_with_faults(world, cfg, &specs, plan).expect("deployment starts")
    }

    fn deployment() -> MiniDeployment {
        deployment_with(FaultPlan::new(0))
    }

    #[test]
    fn end_to_end_over_tcp() {
        let d = deployment();
        let rows = d
            .run_price_check(10, "steampowered.com", ProductId(0))
            .expect("check succeeds");
        // Initiator + 2 IPCs + 3 same-country PPCs.
        assert_eq!(rows.len(), 6, "{rows:?}");
        assert!(rows.iter().all(|r| r.converted > 0.0));
        assert!(rows.iter().any(|r| r.label == "You"));
        assert!(rows.iter().any(|r| r.label.starts_with("IPC ")));
        assert!(rows.iter().any(|r| r.label.starts_with("peer ")));
        // Steam discriminates by country: the IPC vantages differ from ES.
        let min = rows
            .iter()
            .map(|r| r.converted)
            .fold(f64::INFINITY, f64::min);
        let max = rows
            .iter()
            .map(|r| r.converted)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max / min > 1.05, "spread {min}..{max}");
        d.shutdown();
    }

    #[test]
    fn unknown_domain_rejected_over_tcp() {
        let d = deployment();
        let err = d
            .run_price_check(10, "evil.example", ProductId(0))
            .unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        d.shutdown();
    }

    #[test]
    fn uniform_store_agrees_across_peers() {
        let d = deployment();
        let w = d.world();
        let domain = w
            .lock()
            .domains()
            .find(|x| x.starts_with("store-"))
            .unwrap()
            .to_string();
        let rows = d.run_price_check(11, &domain, ProductId(0)).expect("check");
        let confident: Vec<f64> = rows
            .iter()
            .filter(|r| !r.low_confidence)
            .map(|r| r.converted)
            .collect();
        if confident.len() >= 2 {
            let min = confident.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            let max = confident.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            assert!(max / min < 1.01, "uniform store spread {min}..{max}");
        }
        d.shutdown();
    }

    #[test]
    fn sequential_checks_reuse_deployment() {
        let d = deployment();
        for p in 0..3 {
            let rows = d
                .run_price_check(12, "amazon.com", ProductId(p))
                .expect("check");
            assert!(rows.len() >= 4, "{rows:?}");
        }
        d.shutdown();
    }

    #[test]
    fn shutdown_mid_flight_reports_aborted_check_and_joins() {
        // Node layout of this deployment: coordinator 0, aggregator 1
        // (v1 → no db), measurement server 2, IPCs 3–4, peers 5–8.
        // Every IPC FetchReply is eaten, so the job stays open until its
        // 8s deadline — far beyond the shutdown below.
        let dead = LinkFaults {
            drop: 1.0,
            ..LinkFaults::NONE
        };
        let d = deployment_with(
            FaultPlan::new(5)
                .with_link(3, 2, dead)
                .with_link(4, 2, dead),
        );
        let tag = d
            .begin_check(10, "amazon.com", ProductId(0))
            .expect("begins");
        // Let the fan-out happen, then pull the plug mid-flight.
        std::thread::sleep(Duration::from_millis(400));
        let aborted = d.shutdown_with_report();
        assert_eq!(
            aborted,
            vec![tag],
            "mid-flight check must report as aborted"
        );
    }

    #[test]
    fn drop_without_shutdown_joins_all_threads() {
        let d = deployment();
        let rows = d
            .run_price_check(10, "amazon.com", ProductId(0))
            .expect("check");
        assert!(!rows.is_empty());
        drop(d); // Drop must shut the shard threads down, not leak them.
    }

    /// `start()` all but switches beacons off, so its staleness threshold
    /// has to move with the period: at the 30 s default the Coordinator
    /// wrote its only server off and every later check failed
    /// `NoServerAvailable`. Machine-level and in virtual time — the
    /// sweep is handed the clock reading, nobody waits 31 s.
    #[test]
    fn start_config_keeps_its_server_past_thirty_seconds() {
        use sheriff_core::protocol::{Output, TimerKind};

        let cfg = MiniDeployment::start_config();
        let mut coordinator = Coordinator::new(Whitelist::with_domains(Vec::<String>::new()));
        coordinator.heartbeat_timeout_ms = cfg.heartbeat_timeout_ms;
        coordinator.register_server("ms-0", 80, 0);
        let mut proto = CoordinatorProto::new(coordinator, cfg.ppc_per_request);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut out: Vec<Output> = Vec::new();
        proto.on_timer(31_000, TimerKind::CoordSweep, &mut rng, &mut out);
        assert!(
            proto.coordinator.servers()[0].online,
            "server written off {} ms into a deployment that beacons every {} ms",
            31_000,
            cfg.heartbeat_every_ms
        );
    }

    #[test]
    fn shard_layout_is_deterministic_and_total() {
        // Same roster → same placement, every node owned exactly once,
        // and explicit shard counts are honored.
        let d1 = deployment();
        let d2 = deployment();
        assert_eq!(d1.shard_count(), d2.shard_count());
        let mut owned: Vec<usize> = (0..d1.shard_count())
            .flat_map(|s| d1.shard_members(s).to_vec())
            .collect();
        owned.sort_unstable();
        assert_eq!(
            owned,
            (0..9).collect::<Vec<_>>(),
            "9 nodes, each owned once"
        );
        for s in 0..d1.shard_count() {
            assert_eq!(d1.shard_members(s), d2.shard_members(s));
        }
        d1.shutdown();
        d2.shutdown();

        let world = World::build(&WorldConfig::small(), 77);
        let d3 = MiniDeployment::start_with_options(
            world,
            SheriffConfig::v1(7),
            &[],
            FaultPlan::new(0),
            DeployOptions {
                shards: 2,
                ..DeployOptions::default()
            },
        )
        .expect("deployment starts");
        assert_eq!(d3.shard_count(), 2);
        d3.shutdown();
    }
}
