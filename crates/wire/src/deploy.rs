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
//! and writes [`Envelope`] frames back to back on it. The deployment
//! itself never dials a node: what it injects from outside (a check's
//! start, a server removal) is posted into the owning shard's doorbell
//! and taken by the step an arrived frame takes — what
//! `Simulator::inject` is on the DES — and its stop is one flag per
//! shard in the same doorbell. Sockets carry only node-to-node links and
//! outside clients. Time is real elapsed milliseconds since deployment
//! start — the protocol machines cannot tell the backends apart, and the
//! `backend_parity` test pins both to identical observation sets.

#![expect(
    clippy::disallowed_methods,
    reason = "the TCP adapter turns real elapsed time into virtual milliseconds and bounds its waits"
)]

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
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

use crate::leaf::LeafLock;
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
    /// Remote fetches whose sandbox left a trace (§3.6.1; must stay 0).
    pub(crate) sandbox_violations: usize,
}

/// The completion sink. Leaf: its guard only moves finished checks in
/// (`drain_peer`) or out (the deployment's callers).
pub(crate) type Sink = LeafLock<SinkState>;

/// The running deployment.
pub struct MiniDeployment {
    dir: Arc<HashMap<Address, SocketAddr>>,
    /// Logical address → (owning shard, slot in that shard's roster).
    seats: HashMap<Address, (usize, usize)>,
    /// One join handle per reactor shard (not per node).
    handles: Vec<JoinHandle<()>>,
    /// Locked only inside `sheriff_core` (see DESIGN.md "Concurrency
    /// invariants in the wire layer"); this crate hands the `Arc` on.
    world: Arc<Mutex<World>>,
    telemetry: Arc<Registry>,
    sink: Arc<Sink>,
    next_tag: AtomicU64,
    /// Leaf: its guard asks the gate, plain data, one question.
    gate: Option<Arc<LeafLock<FaultGate>>>,
    /// Leaf: its guard runs the pure `sheriff_core::byzantine::outbound`.
    byz: Option<Arc<LeafLock<ByzantinePlan>>>,
    /// Fault-plan node indices (bind order — the DES numbering) grouped
    /// by owning reactor shard.
    shards: Vec<Vec<usize>>,
    /// One doorbell per reactor shard: the deployment posts its inputs
    /// and raises its stop there.
    bells: Arc<[Doorbell]>,
    /// Local tags of checks begun but not yet completed or rejected.
    /// Leaf: its guard pushes, removes or copies a tag.
    in_flight: LeafLock<Vec<u64>>,
    /// On-disk home of the Database server's WAL + snapshot (v2 only);
    /// removed on shutdown unless recovered first.
    db_dir: Option<PathBuf>,
    /// The Database's WAL flusher, for tests that pause it.
    #[cfg(test)]
    db_flusher: Option<crate::storage::FlushHandle>,
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
        let sink = Arc::new(Sink::default());

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
        let mut db_flusher = None;
        let db_storage: Box<dyn Storage> = match &db_dir {
            Some(dir) => {
                let storage = FileStorage::open_published(dir, &telemetry);
                db_flusher = Some(storage.flush_handle());
                Box::new(storage)
            }
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
            Arc::new(LeafLock::new(gate))
        });
        let byz = opts
            .byzantine
            .clone()
            .filter(ByzantinePlan::is_active)
            .map(|p| Arc::new(LeafLock::new(p)));

        // Partition the roster over the reactor shards and spawn one
        // event-loop thread per shard.
        let n_nodes = roster.len();
        let n_shards = if opts.shards == 0 {
            default_shard_count(n_nodes)
        } else {
            opts.shards.clamp(1, n_nodes.max(1))
        };
        let bells: Arc<[Doorbell]> = (0..n_shards).map(|_| Doorbell::default()).collect();
        // A durable flush releases the Database's held acks: wake its
        // shard for them.
        if let Some(flusher) = &db_flusher {
            let bells = Arc::clone(&bells);
            flusher.ring_with(move || ring_owner(&bells, Address::Database));
        }
        let ctx = ShardCtx {
            dir: Arc::clone(&dir),
            wire: Arc::new(WireTelemetry::new(&telemetry)),
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
            finished: Arc::default(),
            shard: 0,
        };
        let mut groups: Vec<Vec<Seat>> = (0..n_shards).map(|_| Vec::new()).collect();
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        let mut seats = HashMap::with_capacity(n_nodes);
        for (fault_idx, (node, listener)) in roster.into_iter().zip(listeners).enumerate() {
            // Both self-sustaining timers first fire one period in.
            let first_timer = match node.me {
                Address::Coordinator => Some((cfg.coord_sweep_every_ms, TimerKind::CoordSweep)),
                Address::Server { .. } => Some((cfg.heartbeat_every_ms, TimerKind::Heartbeat)),
                _ => None,
            };
            let s = shard_of(node.me, n_shards);
            if let (Some(group), Some(members)) = (groups.get_mut(s), shards.get_mut(s)) {
                seats.insert(node.me, (s, group.len()));
                group.push((node, fault_idx, listener, first_timer));
                members.push(fault_idx);
            }
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
            seats,
            handles,
            world,
            telemetry,
            sink,
            next_tag: AtomicU64::new(1),
            gate,
            byz,
            shards,
            bells,
            in_flight: LeafLock::new(Vec::new()),
            db_dir,
            #[cfg(test)]
            db_flusher,
        })
    }

    /// The deployment's telemetry registry (wire.* counters). Clone the
    /// `Arc` before [`MiniDeployment::shutdown`] to inspect final counts.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Coordinator address (exposed so tests can poke the socket
    /// directly, e.g. with rude or malformed clients).
    #[expect(clippy::indexing_slicing, reason = "every roster has a Coordinator")]
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
        let seat = self.seat(me)?;
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        self.in_flight.with(|tags| tags.push(tag));
        self.inject(
            seat,
            me,
            ProtoMsg::StartCheck {
                domain: domain.to_string(),
                product,
                local_tag: tag,
            },
        );
        Ok(tag)
    }

    /// Blocks until the check behind `tag` completes or is rejected.
    pub fn await_check(&self, tag: u64) -> Result<PriceCheck, String> {
        match self.sink.wait_timeout(CHECK_TIMEOUT, |st| {
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
                self.in_flight.with(|tags| tags.retain(|t| *t != tag));
                res
            }
            None => Err("price check timed out".into()),
        }
    }

    /// Remote fetches, across every peer, whose sandbox left a trace
    /// (must be 0 — the §3.6.1 validation). The DES twin is
    /// `PriceSheriff::sandbox_violations`.
    pub fn sandbox_violations(&self) -> usize {
        self.sink.with(|st| st.sandbox_violations)
    }

    /// Every `ServerRemoved` answer an add-on received so far, as
    /// `(server_index, removed)` in arrival order — also answers to
    /// requests sent from outside the deployment.
    pub fn server_removals(&self) -> Vec<(usize, bool)> {
        self.sink.with(|st| st.removals.clone())
    }

    /// Running totals of the installed fault plan (`None` without one).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.gate.as_ref().and_then(|g| g.with(|g| g.stats()))
    }

    /// Running totals of the installed Byzantine plan (`None` without
    /// an active one).
    pub fn byz_stats(&self) -> Option<ByzStats> {
        self.byz.as_ref().map(|p| p.with(|p| p.stats))
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
        let seat = self.seat(Address::Coordinator)?;
        let before = self.sink.with(|st| st.removals.len());
        self.inject(seat, from, ProtoMsg::RemoveServer { index });
        self.sink
            .wait_timeout(CHECK_TIMEOUT, |st| {
                st.removals
                    .iter()
                    .skip(before)
                    .find(|&&(i, _)| i == index)
                    .map(|&(_, removed)| removed)
            })
            .ok_or_else(|| "remove_server timed out".into())
    }

    /// Where node `to` sits: its shard and its slot there.
    fn seat(&self, to: Address) -> Result<(usize, usize), String> {
        self.seats
            .get(&to)
            .copied()
            .ok_or_else(|| format!("unknown {to:?}"))
    }

    /// Posts one input from outside into the shard at `seat`, whose next
    /// sweep delivers it as if it had arrived as a frame from `from`.
    fn inject(&self, (shard, local): (usize, usize), from: Address, msg: ProtoMsg) {
        if let Some(bell) = self.bells.get(shard) {
            bell.post((local, Envelope { from, msg }));
        }
    }

    fn shutdown_impl(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        // Every shard stops stepping its nodes, finishes sending, reads
        // every stream toward it to its end and exits (see
        // `reactor::reactor`, "When a shard exits").
        for bell in self.bells.iter() {
            bell.stop();
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

    /// Orderly shutdown: every reactor shard stops, drains and is
    /// joined. Also runs on [`Drop`], so a deployment can never leak its
    /// threads.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    /// Shuts down like [`MiniDeployment::shutdown`], then reports the
    /// local tags of checks that were begun but never completed nor
    /// rejected — work aborted mid-flight. Every thread is joined either
    /// way; an in-flight check must never wedge the teardown.
    pub fn shutdown_with_report(mut self) -> Vec<u64> {
        self.shutdown_impl();
        // Each book under its own guard, never both at once: both are
        // leaves.
        let (completed, rejected): (Vec<u64>, Vec<u64>) = self.sink.with(|st| {
            (
                st.completed.iter().map(|c| c.local_tag).collect(),
                st.rejected.iter().map(|&(r, _)| r).collect(),
            )
        });
        let tags: Vec<u64> = self.in_flight.with(|tags| tags.clone());
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
    use sheriff_telemetry::Snapshot;

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

    /// v2 over the same four peers, no IPCs, every modeled delay zeroed
    /// and a 3 s job deadline. Node layout: coordinator 0, aggregator 1,
    /// db 2, server 3, peers 4–7.
    fn v2_deployment(plan: FaultPlan) -> MiniDeployment {
        let world = World::build(&WorldConfig::small(), 77);
        let mut cfg = SheriffConfig::v2(7, 1);
        cfg.ipc_locations.clear();
        cfg.proc_per_reply_ms = 0.0;
        cfg.context_switch_alpha = 0.0;
        cfg.db_cost.write_ms = 0.0;
        cfg.db_cost.connection_setup_ms = 0.0;
        cfg.db_cost.wal_append_ms_per_row = 0.0;
        cfg.db_cost.barrier_ms = 0.0;
        cfg.db_cost.compaction_ms_per_check = 0.0;
        cfg.job_deadline_ms = 3_000;
        let specs: Vec<PpcSpec> = (10u64..14)
            .map(|peer_id| PpcSpec {
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

    /// Polls the deployment's telemetry until `ready` holds (≤ 10 s).
    fn wait_until(d: &MiniDeployment, what: &str, ready: impl Fn(&Snapshot) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready(&d.telemetry.snapshot()) {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn completed(d: &MiniDeployment) -> usize {
        d.sink.with(|st| st.completed.len())
    }

    /// The store reached the Database and its `DbDone` fired: the ack
    /// exists, and only the hold keeps it in.
    fn store_done(s: &Snapshot) -> bool {
        s.counters["db.queries_total"] == 1 && s.gauges["db.active_queries"] == 0
    }

    #[test]
    fn no_ack_leaves_while_its_flush_is_paused() {
        let d = v2_deployment(FaultPlan::new(0));
        let paused = d.db_flusher.as_ref().expect("v2 runs a Database").pause();
        let tag = d
            .begin_check(10, "amazon.com", ProductId(0))
            .expect("begins");
        wait_until(&d, "the store's DbDone", store_done);
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(completed(&d), 0, "a DbAck left ahead of its fsync");
        assert_eq!(d.telemetry.snapshot().counters["wire.storage.flushes"], 0);

        drop(paused);
        d.await_check(tag).expect("acked once durable");
        assert!(d.telemetry.snapshot().counters["wire.storage.flushes"] >= 1);
        assert_eq!(d.shutdown_and_recover_db().len(), 1);
    }

    /// The Database crashes while its flush is paused: the ack the old
    /// incarnation held dies with it, recovery waits for the flush, and
    /// the requester's re-sent `StoreCheck` is acked exactly once.
    #[test]
    fn crash_while_flushing_drops_the_held_ack_and_acks_the_resend_once() {
        let started = Instant::now();
        let d = v2_deployment(FaultPlan::new(5).with_crash(2, 800, 1_400));
        let paused = d.db_flusher.as_ref().expect("v2 runs a Database").pause();
        let tag = d
            .begin_check(10, "amazon.com", ProductId(0))
            .expect("begins");
        wait_until(&d, "the store's DbDone", store_done);
        assert!(
            started.elapsed() < Duration::from_millis(700),
            "the store must land before the crash window opens"
        );
        // The restart is counted before its step, which now waits in
        // recovery for the paused flush.
        wait_until(&d, "the restart", |s| {
            s.counters["faults.node_restarts"] == 1
        });
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(completed(&d), 0, "a held ack left before its fsync");

        drop(paused);
        d.await_check(tag).expect("the re-sent store is acked");
        let snap = d.telemetry.snapshot();
        assert_eq!(
            snap.counters["db.recovered_records"], 1,
            "the flush landed first"
        );
        assert_eq!(
            snap.counters["db.duplicate_stores"], 1,
            "one re-send, re-acked"
        );
        assert_eq!(snap.counters["measurement.jobs_finished"], 1);
        assert_eq!(d.shutdown_and_recover_db().len(), 1);
    }

    /// The storage directory is swapped for a plain file (permission
    /// bits do not stop root) before the first flush, then put back.
    #[test]
    fn failed_flush_acks_nothing_until_the_disk_is_back() {
        let d = v2_deployment(FaultPlan::new(0));
        let dir = d.db_dir.clone().expect("v2 keeps its files");
        let away = dir.with_extension("away");
        std::fs::rename(&dir, &away).expect("move the directory away");
        std::fs::write(&dir, b"not a directory").expect("block its path");

        let first = d
            .begin_check(10, "amazon.com", ProductId(0))
            .expect("begins");
        wait_until(&d, "a failed flush", |s| {
            store_done(s) && s.counters["wire.storage.io_errors"] >= 1
        });
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(completed(&d), 0, "acked a store that is not on disk");

        std::fs::remove_file(&dir).expect("unblock");
        std::fs::rename(&away, &dir).expect("restore the directory");
        // The next hand-off retries the failed batch.
        let second = d
            .begin_check(11, "amazon.com", ProductId(1))
            .expect("begins");
        let mut acked = [first, second].map(|tag| d.await_check(tag).expect("acked").job_id);
        acked.sort_unstable();
        let mut recovered: Vec<u64> = d
            .shutdown_and_recover_db()
            .iter()
            .map(|c| c.job_id)
            .collect();
        recovered.sort_unstable();
        assert_eq!(recovered, acked);
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
