//! The whole Price $heriff as a distributed system over the discrete-event
//! simulator (paper Fig. 1 / Fig. 3 / Fig. 6).
//!
//! Node roster: one Coordinator, one Aggregator, N Measurement servers, an
//! optional dedicated Database server (v2) — v1 integrates the DB into the
//! Measurement server, the bottleneck Table 1 quantifies — plus 30 IPCs and
//! any number of PPC/add-on nodes. The synthetic web ([`World`]) sits
//! behind an `Arc<Mutex<_>>`: fetch *timing* is simulated explicitly (the
//! heavy-tailed proxy delays of §5), only content generation is immediate.
//!
//! The §3.2 protocol itself lives in [`crate::protocol`] as sans-IO state
//! machines, the roster comes from [`crate::roster::build_roster`], and
//! hosting a machine (channel, give-up release, restart, telemetry fold)
//! is [`crate::protocol::RoleNode`]'s job. What is left here is the
//! *discrete-event* part: one netsim node type that translates `NodeId`s
//! to logical addresses and back, samples fetch latency for
//! `SendFetched` outputs, and consults the Byzantine plan at its send
//! edge. The TCP deployment in `sheriff-wire` steps the *same*
//! `RoleNode`s, so both backends execute one protocol implementation.

// Iteration order is observable here: `clippy.toml` bans HashMap/HashSet.
#![deny(clippy::disallowed_types)]

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::Rng;
use rand::SeedableRng;

use sheriff_geo::Country;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::{
    latency::sample_standard_normal, ByzStats, ByzantinePlan, Ctx, FaultPlan, FaultStats, Node,
    NodeId, SimTime, Simulator,
};
use sheriff_telemetry::Registry;

use crate::byzantine;
use crate::db::DbCostModel;
use crate::durability::MemStorage;
use crate::latency::GeoLatency;
use crate::protocol::{
    Address, CoordinatorProto, DbProto, DefenseParams, DefenseTotals, MeasurementProto,
    NodeTelemetry, Output, PeerProto, ProtoMsg, Role, RoleNode, StepBuf, TimerKind,
};
use crate::records::PriceCheck;
use crate::roster::build_roster;

/// Which architecture generation runs (Table 1's "Old" vs "New").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemVersion {
    /// $heriff v1: single Measurement server with an integrated RDBMS.
    V1,
    /// Price $heriff: Coordinator load balancing, slim Measurement servers,
    /// one dedicated Database server.
    V2,
}

/// All system knobs. Timing defaults are calibrated so the Table 1 shape
/// reproduces (see `sheriff-experiments`, `table1_performance`).
#[derive(Clone, Debug)]
pub struct SheriffConfig {
    /// Architecture generation.
    pub version: SystemVersion,
    /// Measurement servers (v1 forces 1).
    pub n_measurement_servers: usize,
    /// IPC vantage points as (country, city index). The paper ran 30.
    pub ipc_locations: Vec<(Country, usize)>,
    /// PPCs asked per request (§6.1: "approximately 3").
    pub ppc_per_request: usize,
    /// Currency of the result page.
    pub target_currency: String,
    /// RNG seed for the simulation.
    pub seed: u64,
    /// Median IPC page-fetch time, ms (PlanetLab vantage).
    pub ipc_fetch_median_ms: u64,
    /// Probability an IPC fetch lands on an overloaded node (§5).
    pub ipc_overload_prob: f64,
    /// Overloaded-node fetch time, ms.
    pub ipc_overload_ms: u64,
    /// The production kill bound per proxy request (2 minutes, §5).
    pub fetch_kill_ms: u64,
    /// Median PPC page-fetch time, ms (residential browser).
    pub ppc_fetch_median_ms: u64,
    /// Measurement-server CPU per response processed, ms.
    pub proc_per_reply_ms: f64,
    /// Context-switch degradation per concurrent job.
    pub context_switch_alpha: f64,
    /// Give-up deadline for a job's outstanding fetches, ms.
    pub job_deadline_ms: u64,
    /// Database cost model.
    pub db_cost: DbCostModel,
    /// Database snapshot cadence: fold the WAL into a snapshot every
    /// this many stored records.
    pub db_snapshot_every: usize,
    /// Serve doppelganger state to over-budget PPCs.
    pub enable_doppelgangers: bool,
    /// Measurement-server liveness beacon period, ms.
    pub heartbeat_every_ms: u64,
    /// Coordinator: take a server offline after this long without a beacon.
    pub heartbeat_timeout_ms: u64,
    /// First retransmission delay for at-least-once control messages, ms.
    pub retransmit_base_ms: u64,
    /// Coordinator recovery-sweep period (heartbeat expiry + job requeue).
    pub coord_sweep_every_ms: u64,
    /// Misbehavior-defense tuning shared by the Coordinator and every
    /// Measurement server (see [`crate::protocol::DefenseBook`]).
    pub defense: DefenseParams,
}

impl SheriffConfig {
    /// The v1 $heriff configuration (Table 1 "Old Version").
    pub fn v1(seed: u64) -> Self {
        SheriffConfig {
            version: SystemVersion::V1,
            n_measurement_servers: 1,
            ipc_locations: default_ipc_locations(),
            ppc_per_request: 3,
            target_currency: "EUR".into(),
            seed,
            ipc_fetch_median_ms: 18_000,
            ipc_overload_prob: 0.005,
            ipc_overload_ms: 300_000,
            fetch_kill_ms: 120_000,
            ppc_fetch_median_ms: 2_500,
            proc_per_reply_ms: 380.0,
            context_switch_alpha: 0.15,
            job_deadline_ms: 130_000,
            db_cost: DbCostModel::integrated(),
            db_snapshot_every: 64,
            enable_doppelgangers: false,
            heartbeat_every_ms: 10_000,
            heartbeat_timeout_ms: 30_000,
            retransmit_base_ms: 2_000,
            coord_sweep_every_ms: 5_000,
            defense: DefenseParams::default(),
        }
    }

    /// The v2 Price $heriff configuration (Table 1 "New Version").
    pub fn v2(seed: u64, n_servers: usize) -> Self {
        SheriffConfig {
            version: SystemVersion::V2,
            n_measurement_servers: n_servers.max(1),
            ipc_locations: default_ipc_locations(),
            ppc_per_request: 3,
            target_currency: "EUR".into(),
            seed,
            ipc_fetch_median_ms: 18_000,
            ipc_overload_prob: 0.005,
            ipc_overload_ms: 300_000,
            fetch_kill_ms: 120_000,
            ppc_fetch_median_ms: 2_500,
            proc_per_reply_ms: 60.0,
            context_switch_alpha: 0.05,
            job_deadline_ms: 130_000,
            db_cost: DbCostModel::dedicated(),
            db_snapshot_every: 64,
            enable_doppelgangers: true,
            heartbeat_every_ms: 10_000,
            heartbeat_timeout_ms: 30_000,
            retransmit_base_ms: 2_000,
            coord_sweep_every_ms: 5_000,
            defense: DefenseParams::default(),
        }
    }

    /// Fast-fetch variant for functional tests (timings shrunk 100×).
    pub fn fast(seed: u64) -> Self {
        let mut cfg = SheriffConfig::v2(seed, 2);
        cfg.ipc_fetch_median_ms = 220;
        cfg.ipc_overload_ms = 3_000;
        cfg.fetch_kill_ms = 1_200;
        cfg.ppc_fetch_median_ms = 25;
        cfg.job_deadline_ms = 2_000;
        cfg.retransmit_base_ms = 250;
        cfg.coord_sweep_every_ms = 500;
        // Snapshots fire within functional-test workloads (a handful of
        // checks), so the fold/truncate path is routinely exercised.
        cfg.db_snapshot_every = 2;
        cfg
    }
}

/// The paper's 30 IPC deployment, spread over its measurement countries.
pub fn default_ipc_locations() -> Vec<(Country, usize)> {
    let mut out = vec![
        (Country::ES, 0),
        (Country::ES, 1),
        (Country::ES, 2),
        (Country::FR, 0),
        (Country::DE, 0),
        (Country::GB, 0),
        (Country::US, 0),
        (Country::US, 1),
        (Country::US, 2),
        (Country::CA, 0),
        (Country::CA, 1),
        (Country::JP, 0),
        (Country::JP, 1),
        (Country::KR, 0),
        (Country::CZ, 0),
        (Country::SE, 0),
        (Country::IL, 0),
        (Country::NZ, 0),
        (Country::BR, 0),
        (Country::AU, 0),
        (Country::NL, 0),
        (Country::BE, 0),
        (Country::CH, 0),
        (Country::IT, 0),
        (Country::PT, 0),
        (Country::IE, 0),
        (Country::HK, 0),
        (Country::SG, 0),
        (Country::TH, 0),
        (Country::PL, 0),
    ];
    debug_assert_eq!(out.len(), 30);
    out.shrink_to_fit();
    out
}

/// Lognormal sigma of proxy fetch times (§5's heavy tail).
const FETCH_SIGMA: f64 = 0.45;

/// Lognormal sample around `median_ms`, clipped at `kill_ms`.
fn fetch_delay<R: Rng + ?Sized>(
    rng: &mut R,
    median_ms: u64,
    overload_prob: f64,
    overload_ms: u64,
    kill_ms: u64,
) -> SimTime {
    let raw = if rng.gen::<f64>() < overload_prob {
        overload_ms
    } else {
        let mut srng = rand::rngs::StdRng::seed_from_u64(rng.gen());
        let z = sample_standard_normal(&mut srng);
        (median_ms as f64 * (FETCH_SIGMA * z).exp()).round() as u64
    };
    SimTime::from_millis(raw.min(kill_ms))
}

// ---------------------------------------------------------------------
// Address ↔ NodeId directory
// ---------------------------------------------------------------------

/// Immutable logical-address ↔ `NodeId` directory, shared by every
/// adapter node. NodeIds are roster positions: `[coordinator,
/// aggregator, db?, servers…, ipcs…, ppcs…]`.
struct AddrMap {
    node_of: BTreeMap<Address, NodeId>,
    addr_of: Vec<Address>,
    /// Deployment-wide Byzantine plan, consulted at every node's send
    /// edge ([`byz_send`]). `None` until a plan is installed; the
    /// simulation is single-threaded, so the lock is never contended.
    byz: Mutex<Option<ByzantinePlan>>,
}

impl AddrMap {
    fn node(&self, addr: Address) -> Option<NodeId> {
        self.node_of.get(&addr).copied()
    }

    fn addr(&self, node: NodeId) -> Option<Address> {
        self.addr_of.get(node.0).copied()
    }
}

/// Per-role proxy fetch timing, applied to `SendFetched` outputs.
#[derive(Clone, Copy)]
struct FetchTiming {
    median_ms: u64,
    overload_prob: f64,
    overload_ms: u64,
    kill_ms: u64,
}

/// The timers one node has armed and the engine has not fired yet, by
/// the opaque slot id the engine carries for each. `netsim`'s timer API
/// is generic and wants a `u64`; a counter-issued slot gives it one
/// without doing arithmetic on a job, sequence or peer id, so every
/// [`TimerKind`] — whatever its scope — comes back as itself. (The
/// engine defers a crashed node's timers, never drops them, so each
/// slot is removed exactly once.)
#[derive(Default)]
struct ArmedTimers {
    slots: BTreeMap<u64, TimerKind>,
    next_slot: u64,
}

impl ArmedTimers {
    /// Remembers `kind` and returns the slot to hand the engine.
    fn arm(&mut self, kind: TimerKind) -> u64 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.slots.insert(slot, kind);
        slot
    }
}

/// Maps protocol outputs onto the simulator: sends become deliveries,
/// `SendFetched` samples the proxy delay first, timers go to the engine
/// under a fresh slot of `armed`. Drains `out` so the node's buffer is
/// reused.
fn dispatch(
    map: &AddrMap,
    ctx: &mut Ctx<'_, ProtoMsg>,
    out: &mut Vec<Output>,
    fetch: Option<FetchTiming>,
    armed: &mut ArmedTimers,
) {
    for o in out.drain(..) {
        match o {
            Output::Send { to, msg } => {
                if let Some(node) = map.node(to) {
                    byz_send(map, ctx, node, msg, None);
                }
            }
            Output::SendFetched { to, msg } => {
                // The single proxy-fetch latency is drawn *before* the
                // Byzantine consult and shared by every emitted copy, so
                // an installed-but-all-zero plan perturbs no RNG draws.
                // (Only the proxy roles emit this, and both carry a
                // timing; any other sender's reply leaves at once.)
                let delay = fetch.map(|t| {
                    fetch_delay(
                        ctx.rng(),
                        t.median_ms,
                        t.overload_prob,
                        t.overload_ms,
                        t.kill_ms,
                    )
                });
                if let Some(node) = map.node(to) {
                    byz_send(map, ctx, node, msg, delay);
                }
            }
            Output::Timer { delay_ms, kind } => {
                ctx.set_timer(SimTime::from_millis(delay_ms), armed.arm(kind));
            }
        }
    }
}

/// One send through the Byzantine edge ([`byzantine::outbound`], the
/// function the TCP reactor calls too), each emitted copy then going to
/// the simulator. A codec-boundary attack has no DES analogue — the
/// bytes never decode on TCP, so here the message simply vanishes;
/// either way nothing reaches the receiving machine and `defense.*`
/// parity is preserved.
fn byz_send(
    map: &AddrMap,
    ctx: &mut Ctx<'_, ProtoMsg>,
    to: NodeId,
    msg: ProtoMsg,
    fetched_delay: Option<SimTime>,
) {
    let send = |ctx: &mut Ctx<'_, ProtoMsg>, m: ProtoMsg| match fetched_delay {
        Some(d) => ctx.send_after(d, to, m),
        None => ctx.send(to, m),
    };
    let mut guard = map.byz.lock();
    let Some(plan) = guard.as_mut() else {
        drop(guard);
        return send(ctx, msg);
    };
    let applied = byzantine::outbound(plan, ctx.self_id.0, to.0, msg);
    drop(guard);
    for m in applied.messages() {
        send(ctx, m);
    }
}

// ---------------------------------------------------------------------
// The adapter node
// ---------------------------------------------------------------------

/// One simulated node: a [`RoleNode`] plus the parts of hosting it that
/// really are discrete-event — the `NodeId` directory, proxy-fetch
/// latency sampling, and the Byzantine send edge behind [`dispatch`].
struct DesNode {
    node: RoleNode,
    map: Arc<AddrMap>,
    telemetry: Arc<NodeTelemetry>,
    /// Set for the proxy roles (IPC, PPC), the only `SendFetched` sources.
    timing: Option<FetchTiming>,
    buf: StepBuf,
    armed: ArmedTimers,
}

impl DesNode {
    /// Publishes the step's events, then hands its commands to the
    /// simulator.
    fn finish(&mut self, ctx: &mut Ctx<'_, ProtoMsg>) {
        self.telemetry
            .fold(self.node.me, ctx.now.as_millis(), &mut self.buf);
        dispatch(
            &self.map,
            ctx,
            &mut self.buf.out,
            self.timing,
            &mut self.armed,
        );
    }
}

impl Node<ProtoMsg> for DesNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        let Some(from) = self.map.addr(from) else {
            return;
        };
        let now = ctx.now.as_millis();
        self.node
            .on_message(now, from, msg, ctx.rng(), &mut self.buf);
        self.finish(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ProtoMsg>, slot: u64) {
        // Every slot the engine holds was issued by `ArmedTimers::arm`.
        let Some(kind) = self.armed.slots.remove(&slot) else {
            return;
        };
        let now = ctx.now.as_millis();
        self.node.on_timer(now, kind, ctx.rng(), &mut self.buf);
        self.finish(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, ProtoMsg>) {
        self.node.on_restart(ctx.now.as_millis(), &mut self.buf);
        self.finish(ctx);
    }
}

// ---------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------

/// A completed price check as recorded by the initiating add-on.
#[derive(Clone, Debug)]
pub struct CompletedCheck {
    /// The result set.
    pub check: PriceCheck,
    /// When the user clicked.
    pub submitted: SimTime,
    /// When the result page finished.
    pub completed: SimTime,
}

/// Specification of one peer joining the system.
#[derive(Clone, Debug)]
pub struct PpcSpec {
    /// Stable peer id.
    pub peer_id: u64,
    /// Country of residence.
    pub country: Country,
    /// City index within the country.
    pub city_idx: usize,
    /// Browser platform.
    pub user_agent: UserAgent,
    /// Affluence score ∈ \[0,1\] (drives tracker profiles).
    pub affluence: f64,
    /// Domains where the user stays signed in.
    pub logged_in_domains: Vec<String>,
}

/// The assembled system.
///
/// ```
/// use sheriff_core::system::{PpcSpec, PriceSheriff, SheriffConfig};
/// use sheriff_geo::Country;
/// use sheriff_market::pricing::{Browser, Os};
/// use sheriff_market::world::WorldConfig;
/// use sheriff_market::{ProductId, UserAgent, World};
/// use sheriff_netsim::SimTime;
///
/// let world = World::build(&WorldConfig::small(), 1);
/// let peers = vec![PpcSpec {
///     peer_id: 100,
///     country: Country::ES,
///     city_idx: 0,
///     user_agent: UserAgent { os: Os::Linux, browser: Browser::Firefox },
///     affluence: 0.2,
///     logged_in_domains: vec![],
/// }];
/// let mut sheriff = PriceSheriff::new(SheriffConfig::fast(1), world, &peers);
/// sheriff.submit_check(SimTime::ZERO, 100, "steampowered.com", ProductId(0));
/// sheriff.run_until(SimTime::from_mins(2));
///
/// let done = sheriff.completed();
/// assert_eq!(done.len(), 1);
/// assert!(done[0].check.has_difference(0.05), "steam discriminates by country");
/// assert_eq!(sheriff.sandbox_violations(), 0);
/// ```
pub struct PriceSheriff {
    /// The underlying simulator (exposed for custom drivers).
    pub sim: Simulator<ProtoMsg>,
    world: Arc<Mutex<World>>,
    next_tag: u64,
    cfg: SheriffConfig,
    telemetry: Arc<Registry>,
    /// Shared address map — also carries the optional Byzantine plan
    /// consulted at every node's send edge.
    map: Arc<AddrMap>,
}

impl PriceSheriff {
    /// Builds the full system over `world` with the given peers. Every
    /// world domain is whitelisted (the deployment's manual curation).
    pub fn new(cfg: SheriffConfig, world: World, ppcs: &[PpcSpec]) -> Self {
        let world = Arc::new(Mutex::new(world));
        // One shared registry for the whole system: coordinator, servers,
        // DB, and the simulation engine all publish into it, and the run
        // report / monitoring panel read from it.
        let telemetry = Arc::new(Registry::new());
        let roster = build_roster(&cfg, &world, ppcs, &telemetry, Box::new(MemStorage::new()));

        // Geography-aware message latency: infrastructure (coordinator,
        // aggregator, DB, measurement servers) is "in the cloud"; IPCs and
        // PPCs sit in their countries.
        let node_countries = roster
            .iter()
            .map(|n| match &n.role {
                Role::Ipc { proto, .. } => Some(proto.engine.country),
                Role::Peer { proto, .. } => Some(proto.engine.country),
                _ => None,
            })
            .collect();
        let latency = GeoLatency::new(node_countries);
        let mut sim: Simulator<ProtoMsg> = Simulator::new(Box::new(latency), cfg.seed);
        sim.set_telemetry(Arc::clone(&telemetry));

        let addr_of: Vec<Address> = roster.iter().map(|n| n.me).collect();
        let map = Arc::new(AddrMap {
            node_of: addr_of
                .iter()
                .enumerate()
                .map(|(i, &a)| (a, NodeId(i)))
                .collect(),
            addr_of,
            byz: Mutex::new(None),
        });
        let node_telemetry = Arc::new(NodeTelemetry::new(&telemetry, &roster));
        for node in roster {
            let (me, timing) = (node.me, Self::fetch_timing(&cfg, &node.role));
            // The phase of the two self-sustaining timers is the
            // backend's to pick: the §10.3 recovery sweep one period in,
            // the first liveness beacon almost at once.
            let mut armed = ArmedTimers::default();
            let first_timer = match me {
                Address::Coordinator => {
                    Some((cfg.coord_sweep_every_ms, armed.arm(TimerKind::CoordSweep)))
                }
                Address::Server { .. } => Some((100, armed.arm(TimerKind::Heartbeat))),
                _ => None,
            };
            let id = sim.add_node(Box::new(DesNode {
                node,
                map: Arc::clone(&map),
                telemetry: Arc::clone(&node_telemetry),
                timing,
                buf: StepBuf::default(),
                armed,
            }));
            debug_assert_eq!(map.node(me), Some(id));
            if let Some((due_ms, slot)) = first_timer {
                sim.inject_timer(SimTime::from_millis(due_ms), id, slot);
            }
        }

        PriceSheriff {
            sim,
            world,
            next_tag: 1,
            cfg,
            telemetry,
            map,
        }
    }

    /// The modeled page-fetch latency of a proxy role (§5).
    fn fetch_timing(cfg: &SheriffConfig, role: &Role) -> Option<FetchTiming> {
        match role {
            Role::Ipc { .. } => Some(FetchTiming {
                median_ms: cfg.ipc_fetch_median_ms,
                overload_prob: cfg.ipc_overload_prob,
                overload_ms: cfg.ipc_overload_ms,
                kill_ms: cfg.fetch_kill_ms,
            }),
            Role::Peer { .. } => Some(FetchTiming {
                median_ms: cfg.ppc_fetch_median_ms,
                overload_prob: 0.0,
                overload_ms: 0,
                kill_ms: cfg.fetch_kill_ms,
            }),
            _ => None,
        }
    }

    /// The shared telemetry registry (snapshot it for run reports).
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// The shared world handle.
    pub fn world(&self) -> Arc<Mutex<World>> {
        Arc::clone(&self.world)
    }

    /// Configuration in force.
    pub fn config(&self) -> &SheriffConfig {
        &self.cfg
    }

    /// The machine at `addr`.
    fn role(&self, addr: Address) -> Option<&Role> {
        let node = self.sim.node_ref::<DesNode>(self.map.node(addr)?)?;
        Some(&node.node.role)
    }

    fn role_mut(&mut self, addr: Address) -> Option<&mut Role> {
        let node = self.sim.node_mut::<DesNode>(self.map.node(addr)?)?;
        Some(&mut node.node.role)
    }

    /// Every machine, in roster order.
    fn roles(&self) -> impl Iterator<Item = &Role> {
        (0..self.sim.node_count())
            .filter_map(|i| self.sim.node_ref::<DesNode>(NodeId(i)))
            .map(|n| &n.node.role)
    }

    /// Every add-on, in roster order.
    fn peers(&self) -> impl Iterator<Item = (u64, &PeerProto)> {
        self.roles().filter_map(|role| match role {
            Role::Peer { proto, .. } => Some((proto.engine.peer_id, &**proto)),
            _ => None,
        })
    }

    /// Every Measurement server, in server order.
    fn servers(&self) -> impl Iterator<Item = &MeasurementProto> {
        self.roles().filter_map(|role| match role {
            Role::Measurement(proto) => Some(&**proto),
            _ => None,
        })
    }

    fn coordinator(&self) -> Option<&CoordinatorProto> {
        match self.role(Address::Coordinator) {
            Some(Role::Coordinator(proto)) => Some(proto),
            _ => None,
        }
    }

    fn database(&self) -> Option<&DbProto> {
        match self.role(Address::Database) {
            Some(Role::Database(proto)) => Some(proto),
            _ => None,
        }
    }

    fn peer_node(&self, peer: u64) -> NodeId {
        self.map
            .node(Address::Peer { id: peer })
            .unwrap_or_else(|| panic!("unknown peer {peer}"))
    }

    /// Submits a price check from `peer` at virtual time `at`.
    pub fn submit_check(&mut self, at: SimTime, peer: u64, domain: &str, product: ProductId) {
        let node = self.peer_node(peer);
        let tag = self.next_tag;
        self.next_tag += 1;
        self.sim.inject(
            at,
            node,
            node,
            ProtoMsg::StartCheck {
                domain: domain.to_string(),
                product,
                local_tag: tag,
            },
        );
    }

    /// Asks the Coordinator (through the protocol, from `peer`'s add-on)
    /// to decommission Measurement server `index`; the outcome lands in
    /// [`PriceSheriff::server_removals`].
    pub fn request_remove_server(&mut self, at: SimTime, peer: u64, index: usize) {
        let node = self.peer_node(peer);
        let coordinator = self
            .map
            .node(Address::Coordinator)
            .expect("every roster has a coordinator");
        self.sim
            .inject(at, coordinator, node, ProtoMsg::RemoveServer { index });
    }

    /// Lets a peer browse a product page for themselves (builds pollution
    /// budget and realistic state).
    pub fn prime_visit(&mut self, peer: u64, domain: &str, product: ProductId, n: u64) {
        let Some(Role::Peer { proto, world }) = self.role_mut(Address::Peer { id: peer }) else {
            panic!("unknown peer {peer}");
        };
        let mut w = world.lock();
        for i in 0..n {
            proto
                .engine
                .user_visit(&mut w, domain, product, 0, i * 1000, i);
        }
    }

    /// Installs doppelgangers: trains one per centroid at the Coordinator
    /// and hands the Aggregator the peer→cluster mapping.
    pub fn install_doppelgangers(
        &mut self,
        centroids: &[Vec<u64>],
        universe: &[String],
        assignments: &[(u64, usize)],
        seed: u64,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let Some(Role::Coordinator(coord)) = self.role_mut(Address::Coordinator) else {
            return;
        };
        coord.universe = universe.to_vec();
        let tokens = coord.dopp_store.train_all(centroids, universe, &mut rng);
        if let Some(Role::Aggregator(agg)) = self.role_mut(Address::Aggregator) {
            agg.install(assignments, tokens);
        }
    }

    /// Runs the simulation until idle (bounded by `max_events`). Note the
    /// heartbeat protocol keeps the event queue alive indefinitely, so this
    /// always consumes the full budget — prefer [`PriceSheriff::run_until`]
    /// when a virtual deadline is known.
    pub fn run(&mut self, max_events: u64) -> u64 {
        self.sim.run_until_idle(max_events)
    }

    /// Runs the simulation until virtual time `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Harvests every completed check across all peers.
    pub fn completed(&self) -> Vec<CompletedCheck> {
        let mut out: Vec<CompletedCheck> = self
            .peers()
            .flat_map(|(_, p)| &p.completed)
            .map(|c| CompletedCheck {
                check: c.check.clone(),
                submitted: SimTime::from_millis(c.submitted_ms),
                completed: SimTime::from_millis(c.completed_ms),
            })
            .collect();
        out.sort_by_key(|c| c.check.job_id);
        out
    }

    /// Harvests every Coordinator rejection observed by the add-ons, as
    /// `(peer, local_tag, reason)`.
    pub fn rejections(&self) -> Vec<(u64, u64, String)> {
        let mut out: Vec<_> = self
            .peers()
            .flat_map(|(peer, p)| {
                p.rejected
                    .iter()
                    .map(move |(tag, reason)| (peer, *tag, reason.clone()))
            })
            .collect();
        out.sort();
        out
    }

    /// Harvests every `ServerRemoved` ack observed by the add-ons, as
    /// `(server_index, removed)`.
    pub fn server_removals(&self) -> Vec<(usize, bool)> {
        let mut out: Vec<_> = self
            .peers()
            .flat_map(|(_, p)| p.server_removals.iter().copied())
            .collect();
        out.sort();
        out
    }

    /// Total sandbox violations observed across peers (must be 0 — the
    /// §3.6.1 validation).
    pub fn sandbox_violations(&self) -> usize {
        self.peers().map(|(_, p)| p.sandbox_violations).sum()
    }

    /// Installs a deterministic fault schedule on the underlying
    /// simulator (drops, duplicates, delays, crashes, partitions). An
    /// all-zero plan is a strict no-op: the run is byte-identical to one
    /// without a plan.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.sim.set_fault_plan(plan);
    }

    /// Fault-injection tallies, if a plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.sim.fault_stats()
    }

    /// Installs a deterministic Byzantine misbehavior plan, consulted at
    /// every node's send edge. An all-zero plan is a strict no-op: it
    /// draws no RNG values and mutates no messages, so the run is
    /// byte-identical to one without a plan.
    pub fn install_byzantine_plan(&mut self, plan: ByzantinePlan) {
        *self.map.byz.lock() = Some(plan);
    }

    /// Byzantine-injection tallies, if a plan is installed.
    pub fn byz_stats(&self) -> Option<ByzStats> {
        self.map.byz.lock().as_ref().map(|p| p.stats)
    }

    /// Field-by-field sum of the Coordinator's and every Measurement
    /// server's defense ledgers — the registry-free twin of the
    /// `defense.*` counters.
    pub fn defense_totals(&self) -> DefenseTotals {
        let mut sum = DefenseTotals::default();
        if let Some(c) = self.coordinator() {
            sum += c.defense.totals;
        }
        for s in self.servers() {
            sum += s.defense.totals;
        }
        sum
    }

    /// Observations admitted from `peer` across all Measurement servers'
    /// influence ledgers — the pollution-budget readout.
    pub fn admitted_from_peer(&self, peer: u64) -> u64 {
        self.servers().map(|s| s.defense.admitted_by(peer)).sum()
    }

    /// Jobs currently charged to each Measurement server, in server
    /// order — the Coordinator's ledger, not the panel text. All zeros
    /// once the system has drained (no leaked jobs).
    pub fn pending_jobs_per_server(&self) -> Vec<u32> {
        self.coordinator()
            .map(|c| c.coordinator.pending_jobs_per_server())
            .unwrap_or_default()
    }

    /// Every check the Database server holds, in store order (v2 only;
    /// empty under v1's integrated model). After a crash window this is
    /// the recovered durable prefix plus everything re-stored since.
    pub fn database_checks(&self) -> Vec<PriceCheck> {
        self.database()
            .map(|db| db.database.checks().to_vec())
            .unwrap_or_default()
    }

    /// The Database server's durable (barrier-flushed) WAL bytes — a
    /// pure function of the seed under DES, so two replays must agree
    /// byte for byte. `None` without a Database node.
    pub fn db_wal_bytes(&self) -> Option<Vec<u8>> {
        self.database().map(DbProto::wal_bytes)
    }

    /// The Database server's durable snapshot image (empty before the
    /// first compaction). `None` without a Database node.
    pub fn db_snapshot_bytes(&self) -> Option<Vec<u8>> {
        self.database().map(DbProto::snapshot_bytes)
    }

    /// The Coordinator's Fig. 7 monitoring panel.
    pub fn monitoring_panel(&self) -> String {
        self.coordinator()
            .map(|c| c.coordinator.monitoring_panel())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sheriff_market::pricing::{Browser, Os};
    use sheriff_market::world::WorldConfig;

    fn specs(country: Country, n: u64) -> Vec<PpcSpec> {
        (0..n)
            .map(|i| PpcSpec {
                peer_id: 100 + i,
                country,
                city_idx: 0,
                user_agent: UserAgent {
                    os: Os::Windows,
                    browser: Browser::Chrome,
                },
                affluence: 0.3 + 0.1 * (i as f64 % 5.0),
                logged_in_domains: vec![],
            })
            .collect()
    }

    #[test]
    fn end_to_end_price_check_completes() {
        let world = World::build(&WorldConfig::small(), 11);
        let mut sheriff = PriceSheriff::new(SheriffConfig::fast(11), world, &specs(Country::ES, 4));
        sheriff.submit_check(SimTime::ZERO, 100, "steampowered.com", ProductId(0));
        sheriff.run(100_000);
        let done = sheriff.completed();
        assert_eq!(done.len(), 1, "check must complete");
        let check = &done[0].check;
        // Initiator + 30 IPCs + up to 3 PPCs.
        assert!(
            check.observations.len() >= 31,
            "got {}",
            check.observations.len()
        );
        assert!(check.observations.len() <= 34);
        let valid = check.valid().count();
        assert!(valid >= 31, "valid={valid}");
        // Steam discriminates by country: differences must be visible.
        assert!(
            check.has_difference(0.01),
            "spread={:?}",
            check.relative_spread()
        );
        assert_eq!(sheriff.sandbox_violations(), 0);
    }

    #[test]
    fn uniform_store_shows_no_difference() {
        let world = World::build(&WorldConfig::small(), 13);
        let domain = world
            .domains()
            .find(|d| d.starts_with("store-"))
            .unwrap()
            .to_string();
        let mut sheriff = PriceSheriff::new(SheriffConfig::fast(13), world, &specs(Country::ES, 4));
        sheriff.submit_check(SimTime::ZERO, 100, &domain, ProductId(0));
        sheriff.run(100_000);
        let done = sheriff.completed();
        assert_eq!(done.len(), 1);
        // Allow sub-0.5% conversion rounding noise, nothing more.
        assert!(!done[0].check.has_difference(0.005));
    }

    #[test]
    fn concurrent_checks_all_complete() {
        let world = World::build(&WorldConfig::small(), 17);
        let mut sheriff = PriceSheriff::new(SheriffConfig::fast(17), world, &specs(Country::FR, 6));
        for (i, peer) in (100..106).enumerate() {
            sheriff.submit_check(
                SimTime::from_millis(i as u64 * 10),
                peer,
                "jcpenney.com",
                ProductId(i as u32 % 8),
            );
        }
        sheriff.run(1_000_000);
        assert_eq!(sheriff.completed().len(), 6);
    }

    #[test]
    fn non_whitelisted_domain_rejected() {
        let world = World::build(&WorldConfig::small(), 19);
        let mut sheriff = PriceSheriff::new(SheriffConfig::fast(19), world, &specs(Country::ES, 2));
        sheriff.submit_check(SimTime::ZERO, 100, "not-in-world.example", ProductId(0));
        sheriff.run(100_000);
        assert!(sheriff.completed().is_empty());
        let rejections = sheriff.rejections();
        assert_eq!(rejections.len(), 1);
        assert_eq!(rejections[0].0, 100, "rejection lands at the initiator");
        assert!(rejections[0].2.contains("Rejected"), "{:?}", rejections[0]);
    }

    #[test]
    fn v1_system_also_completes() {
        let world = World::build(&WorldConfig::small(), 23);
        let mut cfg = SheriffConfig::v1(23);
        // Shrink timings for the test.
        cfg.ipc_fetch_median_ms = 200;
        cfg.ipc_overload_ms = 2_000;
        cfg.fetch_kill_ms = 1_000;
        cfg.ppc_fetch_median_ms = 30;
        cfg.job_deadline_ms = 1_500;
        let mut sheriff = PriceSheriff::new(cfg, world, &specs(Country::ES, 3));
        sheriff.submit_check(SimTime::ZERO, 100, "amazon.com", ProductId(1));
        sheriff.run(100_000);
        assert_eq!(sheriff.completed().len(), 1);
    }

    #[test]
    fn results_arrive_within_deadline_budget() {
        let world = World::build(&WorldConfig::small(), 29);
        let mut sheriff = PriceSheriff::new(SheriffConfig::fast(29), world, &specs(Country::ES, 3));
        sheriff.submit_check(SimTime::ZERO, 100, "chegg.com", ProductId(2));
        sheriff.run(100_000);
        let done = sheriff.completed();
        assert_eq!(done.len(), 1);
        let elapsed = done[0].completed.since(done[0].submitted);
        // deadline + processing + db + slack
        assert!(elapsed.as_millis() < 10_000, "elapsed={elapsed:?}");
    }

    #[test]
    fn monitoring_panel_lists_servers() {
        let world = World::build(&WorldConfig::small(), 31);
        let sheriff = PriceSheriff::new(SheriffConfig::fast(31), world, &specs(Country::ES, 1));
        let panel = sheriff.monitoring_panel();
        assert!(panel.contains("ms-0"));
        assert!(panel.contains("ms-1"));
    }

    #[test]
    fn heartbeat_expiry_takes_servers_offline_mid_job() {
        let world = World::build(&WorldConfig::small(), 37);
        let mut cfg = SheriffConfig::fast(37);
        // Beacons never fire; the Coordinator's patience runs out while
        // the first job is still in flight.
        cfg.heartbeat_every_ms = 3_600_000;
        cfg.heartbeat_timeout_ms = 500;
        let mut sheriff = PriceSheriff::new(cfg, world, &specs(Country::ES, 3));
        sheriff.submit_check(SimTime::ZERO, 100, "steampowered.com", ProductId(0));
        // By now every server's last heartbeat (t=0) is stale.
        sheriff.submit_check(SimTime::from_secs(5), 101, "steampowered.com", ProductId(1));
        sheriff.run_until(SimTime::from_mins(2));
        // The in-flight job still completes; the late one is refused.
        assert_eq!(sheriff.completed().len(), 1);
        let rejections = sheriff.rejections();
        assert_eq!(rejections.len(), 1);
        assert_eq!(rejections[0].0, 101);
        assert!(
            rejections[0].2.contains("NoServerAvailable"),
            "{:?}",
            rejections[0]
        );
        let snap = sheriff.telemetry().snapshot();
        assert!(snap.counters["coordinator.heartbeats_expired"] >= 1);
    }

    #[test]
    fn remove_server_refused_while_queue_non_drained() {
        let world = World::build(&WorldConfig::small(), 41);
        let mut sheriff = PriceSheriff::new(SheriffConfig::fast(41), world, &specs(Country::ES, 3));
        sheriff.submit_check(SimTime::ZERO, 100, "amazon.com", ProductId(0));
        // The check is mid-flight at t=200ms: its server has pending work.
        sheriff.request_remove_server(SimTime::from_millis(200), 101, 0);
        sheriff.request_remove_server(SimTime::from_millis(200), 101, 1);
        // Well after completion both queues are drained.
        sheriff.request_remove_server(SimTime::from_secs(60), 102, 0);
        sheriff.run_until(SimTime::from_mins(2));
        assert_eq!(sheriff.completed().len(), 1);
        let removals = sheriff.server_removals();
        // One of the two t=200ms requests hits the busy server.
        assert!(removals.contains(&(0, true)) || removals.contains(&(1, true)));
        assert!(
            removals.iter().any(|&(_, removed)| !removed),
            "the busy server must refuse decommissioning: {removals:?}"
        );
    }
}
