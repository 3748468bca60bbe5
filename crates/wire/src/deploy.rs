//! A real localhost deployment of the Price $heriff over TCP.
//!
//! This is the "does it actually run on sockets" proof — and a *thin
//! transport adapter*: the roster comes from
//! [`sheriff_core::roster::build_roster`], every node in it is a
//! [`sheriff_core::protocol::RoleNode`], and the reactor steps those
//! through the same three entry points the discrete-event simulation
//! uses. What is built here is only what sockets need: listeners, the
//! address directory, the shard threads.
//!
//! Since the reactor refactor the transport tier is *sharded*: the node
//! roster is hashed over a small set of single-threaded event loops
//! (see [`crate::reactor`]), each owning its nodes' nonblocking
//! listeners, streams and a time-ordered agenda. Thread
//! count is `O(shards)` instead of `O(nodes)`, which is what lets the
//! TCP backend host rosters past the paper's 1265-peer deployment.
//! Between nodes, each shard keeps one long-lived stream per destination
//! and writes [`Envelope`] frames back to back on it; what the deployment
//! injects from outside (a check's start, a server removal, Shutdown)
//! still takes one connection per frame. Time is real elapsed
//! milliseconds since deployment start — the protocol machines cannot
//! tell the backends apart, and the `backend_parity` test pins both to
//! identical observation sets.

#![expect(
    clippy::disallowed_methods,
    reason = "the TCP adapter turns real elapsed time into virtual milliseconds and bounds its waits"
)]

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use sheriff_core::durability::{recover, MemStorage, Storage};
use sheriff_core::protocol::{Address, CompletedProtoCheck, NodeTelemetry, ProtoMsg, TimerKind};
use sheriff_core::records::PriceCheck;
use sheriff_core::roster::build_roster;
use sheriff_core::system::{PpcSpec, SheriffConfig, SystemVersion};
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::{ByzStats, ByzantinePlan, FaultGate, FaultPlan, FaultStats};
use sheriff_telemetry::Registry;

use crate::proto::{rows_from_check, Envelope, ResultRow};
use crate::reactor::reactor::{Reactor, Seat};
use crate::reactor::shard::{default_shard_count, ring_owner, shard_of, Doorbell, ShardCtx};
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
    gate: Option<Arc<Mutex<FaultGate>>>,
    byz: Option<Arc<Mutex<ByzantinePlan>>>,
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
    /// schedule applied by the reactor — the very [`FaultPlan`] type the
    /// DES engine consumes, behind the same [`FaultGate`], against the
    /// same node numbering, so one schedule exercises both backends
    /// identically. An inactive (all-zero) plan is bypassed entirely: a
    /// strict no-op.
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
        let world = Arc::new(Mutex::new(world));
        let telemetry = Arc::new(Registry::new());
        let wire = Arc::new(WireTelemetry::new(&telemetry));
        let sink = Arc::new(Sink {
            state: std::sync::Mutex::new(SinkState::default()),
            cv: std::sync::Condvar::new(),
        });

        // Per-deployment on-disk home for the Database server's WAL +
        // snapshot; the pid/sequence pair keeps concurrent test binaries
        // and repeated deployments in one process apart.
        let db_dir = (cfg.version == SystemVersion::V2).then(|| {
            static DB_DIR_SEQ: AtomicU64 = AtomicU64::new(0);
            std::env::temp_dir().join(format!(
                "sheriff-db-{}-{}",
                std::process::id(),
                DB_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });
        let db_storage: Box<dyn Storage> = match &db_dir {
            Some(dir) => Box::new(FileStorage::open(dir)),
            None => Box::new(MemStorage::new()),
        };
        // The same roster, in the same order, as the DES backend: same
        // machines, same IP allocation, same node numbering.
        let roster = build_roster(&cfg, &world, peers, &telemetry, db_storage);
        let node_telemetry = Arc::new(NodeTelemetry::new(&telemetry, &roster));

        // Bind every listener up front so the address directory is
        // complete before any shard runs.
        let mut listeners = Vec::with_capacity(roster.len());
        let mut dir = HashMap::new();
        for node in &roster {
            let l = TcpListener::bind("127.0.0.1:0")?;
            dir.insert(node.me, l.local_addr()?);
            listeners.push(l);
        }
        let dir = Arc::new(dir);
        let epoch = Instant::now();

        // Roster order is the index the fault and Byzantine plans are
        // phrased against.
        let index: HashMap<Address, usize> = roster
            .iter()
            .enumerate()
            .map(|(i, node)| (node.me, i))
            .collect();
        let gate = plan.is_active().then(|| {
            let mut gate = FaultGate::default();
            gate.install(plan);
            gate.publish_to(&telemetry);
            Arc::new(Mutex::new(gate))
        });
        let byz = opts
            .byzantine
            .clone()
            .filter(ByzantinePlan::is_active)
            .map(|p| Arc::new(Mutex::new(p)));

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
            epoch,
            sink: Arc::clone(&sink),
            index: Arc::new(index),
            gate: gate.clone(),
            byz: byz.clone(),
            telemetry: node_telemetry,
            seed: cfg.seed,
            wakeups: telemetry.counter("wire.reactor_wakeups"),
            queue_depth: telemetry.gauge("wire.shard_queue_depth"),
            doorbell_wakes: telemetry.counter("wire.reactor_doorbell_wakes"),
            idle_timeouts: telemetry.counter("wire.reactor_idle_timeouts"),
            bells: Arc::clone(&bells),
            shard: 0,
        };
        let mut groups: Vec<Vec<Seat>> = (0..n_shards).map(|_| Vec::new()).collect();
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (fault_idx, (node, listener)) in roster.into_iter().zip(listeners).enumerate() {
            // Both self-sustaining timers first fire one period in.
            let first_timer = match node.me {
                Address::Coordinator => Some((cfg.coord_sweep_every_ms, TimerKind::CoordSweep)),
                Address::Server { .. } => Some((cfg.heartbeat_every_ms, TimerKind::Heartbeat)),
                _ => None,
            };
            let s = shard_of(node.me, n_shards);
            groups[s].push((node, fault_idx, listener, first_timer));
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
            gate,
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
        self.gate.as_ref().and_then(|g| g.lock().stats())
    }

    /// Running totals of the installed Byzantine plan (`None` without
    /// an active one).
    pub fn byz_stats(&self) -> Option<ByzStats> {
        self.byz.as_ref().map(|p| p.lock().stats)
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
        // it owns is down, its links are flushed and half-closed, and
        // every stream toward it has ended.
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
        use rand::{rngs::StdRng, SeedableRng};
        use sheriff_core::protocol::{CoordinatorProto, Output};
        use sheriff_core::{Coordinator, Whitelist};

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
