//! One hosted node: a role machine, its reliable channel, and the only
//! code that drives either.
//!
//! Every backend — the discrete-event simulator (`core::system`), the
//! TCP reactor (`sheriff_wire::reactor`) and the model checker's worlds
//! (`sheriff_model::world`) — holds [`RoleNode`]s and feeds them through
//! the same entry points:
//!
//! * [`RoleNode::on_message`] — channel `accept` (ack, dedup, unwrap),
//!   the machine's `on_message`, channel `harden`;
//! * [`RoleNode::on_timer`] — takes the [`TimerKind`] the machine armed:
//!   retransmit give-up → the machine's `on_send_abandoned` for every
//!   role that pins state on a send, any other kind → the machine's
//!   `on_timer`, then `harden`;
//! * [`RoleNode::on_restart`] — the §10.3 restart edge: a Measurement
//!   server re-announces itself with state intact, the Database loses
//!   its volatile state (channel windows included) and recovers from
//!   snapshot + WAL;
//! * [`RoleNode::on_durable`] — the Database sends the acks its storage
//!   now reports durable, then `harden`.
//!
//! What comes back is a [`StepBuf`]: commands for the transport plus the
//! machines' observable events. The backend owns everything else — how
//! an [`Address`] becomes an endpoint, what a timer queue looks like,
//! which faults sit on the send edge — and publishes the events through
//! the one fold, [`NodeTelemetry::fold`], so `measurement.*` and `db.*`
//! mean the same thing on every backend.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use sheriff_market::World;
use sheriff_telemetry::{Counter, FieldValue, Gauge, Histogram, Registry};

use crate::protocol::{
    Address, AggregatorProto, Channel, CoordinatorProto, DbEvent, DbProto, IpcProto, MeasEvent,
    MeasurementProto, Output, PeerProto, ProtoMsg, TimerKind,
};

/// The role a node plays: one sans-IO machine plus, for the two proxy
/// roles, the synthetic web their fetches run against (content
/// generation is immediate; fetch *timing* belongs to the transport).
pub enum Role {
    /// The Coordinator.
    Coordinator(Box<CoordinatorProto>),
    /// The Aggregator.
    Aggregator(AggregatorProto),
    /// A Measurement server.
    Measurement(Box<MeasurementProto>),
    /// The dedicated Database server (v2).
    Database(Box<DbProto>),
    /// An Infrastructure Proxy Client.
    Ipc {
        /// The machine.
        proto: Box<IpcProto>,
        /// The web it fetches from.
        world: Arc<Mutex<World>>,
    },
    /// A PPC / browser add-on.
    Peer {
        /// The machine.
        proto: Box<PeerProto>,
        /// The web it fetches from.
        world: Arc<Mutex<World>>,
    },
}

/// What one step hands back to its backend. The backend drains `out`
/// into its transport and the event lists into [`NodeTelemetry::fold`]
/// (or inspects them first, as the model checker does); reusing one
/// buffer across steps keeps the steady-state event path allocation-free.
#[derive(Default)]
pub struct StepBuf {
    /// Sends and timer requests, already hardened.
    pub out: Vec<Output>,
    /// Measurement-server outcomes of this step.
    pub meas: Vec<MeasEvent>,
    /// Database-server outcomes of this step.
    pub db: Vec<DbEvent>,
}

/// One node of a deployment. See the module docs.
pub struct RoleNode {
    /// Logical address.
    pub me: Address,
    /// The machine.
    pub role: Role,
    /// This node's end of the at-least-once layer.
    pub chan: Channel,
}

impl RoleNode {
    /// A message from `from` arrived. `rng` is the backend's randomness
    /// source (only the Coordinator draws from it).
    pub fn on_message(
        &mut self,
        now_ms: u64,
        from: Address,
        msg: ProtoMsg,
        rng: &mut StdRng,
        buf: &mut StepBuf,
    ) {
        // The reliable layer acks, dedups and unwraps first; only
        // genuinely new payloads reach the machine.
        if let Some(msg) = self.chan.accept(from, msg, &mut buf.out) {
            let out = &mut buf.out;
            match &mut self.role {
                Role::Coordinator(p) => p.on_message(now_ms, from, msg, rng, out),
                Role::Aggregator(p) => p.on_message(from, msg, out),
                Role::Measurement(p) => p.on_message(now_ms, from, msg, out, &mut buf.meas),
                Role::Database(p) => p.on_message(now_ms, from, msg, out, &mut buf.db),
                Role::Ipc { proto, world } => {
                    proto.on_message(now_ms, from, msg, &mut world.lock(), out);
                }
                Role::Peer { proto, world } => {
                    proto.on_message(now_ms, from, msg, &mut world.lock(), out);
                }
            }
        }
        self.chan.harden(&mut buf.out);
    }

    /// The timer `kind`, armed by an earlier step of this node, fired.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn on_timer(&mut self, now_ms: u64, kind: TimerKind, rng: &mut StdRng, buf: &mut StepBuf) {
        let out = &mut buf.out;
        match kind {
            TimerKind::Retransmit(seq) => {
                // A give-up means whatever the machine pinned on that
                // send can never resolve: an admitted job that cannot be
                // assigned (Coordinator), a DbAck that cannot arrive
                // (Measurement), a request nobody will answer (Peer).
                if let Some((_, abandoned)) = self.chan.on_retransmit(seq, out) {
                    match &mut self.role {
                        Role::Coordinator(p) => p.on_send_abandoned(&abandoned),
                        Role::Measurement(p) => {
                            p.on_send_abandoned(now_ms, &abandoned, out, &mut buf.meas);
                        }
                        Role::Peer { proto, .. } => proto.on_send_abandoned(&abandoned),
                        // No per-send bookkeeping; the channel already
                        // counted the give-up.
                        Role::Aggregator(_) | Role::Database(_) | Role::Ipc { .. } => {}
                    }
                }
            }
            TimerKind::JobDeadline(_)
            | TimerKind::ProcDone(_)
            | TimerKind::DbDone(_)
            | TimerKind::Heartbeat
            | TimerKind::CoordSweep
            | TimerKind::Quarantine(_)
            | TimerKind::Parole(_) => match &mut self.role {
                Role::Coordinator(p) => p.on_timer(now_ms, kind, rng, out),
                Role::Measurement(p) => p.on_timer(now_ms, kind, out, &mut buf.meas),
                Role::Database(p) => p.on_timer(kind, out, &mut buf.db),
                Role::Aggregator(_) | Role::Ipc { .. } | Role::Peer { .. } => {}
            },
        }
        self.chan.harden(&mut buf.out);
    }

    /// The node came back from a crash window.
    pub fn on_restart(&mut self, now_ms: u64, buf: &mut StepBuf) {
        match &mut self.role {
            // State intact: re-announce liveness at once so the
            // Coordinator puts the server back in rotation without
            // waiting a full beacon period.
            Role::Measurement(p) => p.on_restart(now_ms, &mut buf.out),
            // Genuine volatile-state loss: the memory table, in-flight
            // queries and the channel's windows are gone; the durable
            // prefix comes back from snapshot + WAL replay and the
            // un-barriered log tail is truncated. A sender whose store
            // was torn off sends it again at its job deadline, into the
            // fresh windows.
            Role::Database(p) => {
                self.chan.on_restart();
                p.on_restart(&mut buf.db);
            }
            _ => {}
        }
        self.chan.harden(&mut buf.out);
    }

    /// The storage reports a flush: a Database sends the acks it made
    /// durable. Other roles hold nothing.
    pub fn on_durable(&mut self, buf: &mut StepBuf) {
        if let Role::Database(p) = &mut self.role {
            p.on_durable(&mut buf.out);
        }
        self.chan.harden(&mut buf.out);
    }
}

/// Fan-out latency buckets (ms): proxy fetches are heavy-tailed (§5), so
/// the grid spans two decades up to the job-deadline scale.
const FANOUT_LATENCY_EDGES: &[f64] = &[
    100.0, 250.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0,
];

/// Modeled CPU cost buckets (ms) for extraction/assembly and DB stores.
const CPU_COST_EDGES: &[f64] = &[
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 5_000.0,
];

/// Cached handles for the Measurement-server hot path. Histograms are
/// shared across servers (same metric name); the active-jobs gauge is
/// per server.
struct MeasurementTelemetry {
    registry: Arc<Registry>,
    fanout_latency: Arc<Histogram>,
    assembly_cpu: Arc<Histogram>,
    replies: Arc<Counter>,
    late_replies: Arc<Counter>,
    bytes_stored: Arc<Counter>,
    bytes_full: Arc<Counter>,
    jobs_finished: Arc<Counter>,
    active_jobs: Arc<Gauge>,
    /// v1 integrated-RDBMS cost, published under the same names as the
    /// dedicated Database server so v1/v2 run reports line up.
    db_query_cost: Arc<Histogram>,
    db_queries: Arc<Counter>,
    /// Duplicate `FetchReply` deliveries suppressed by the per-job
    /// vantage dedup (same counter as the reliable channel's dedup — both
    /// mean "a transport duplicate was absorbed").
    dedup_hits: Arc<Counter>,
    /// Half-open jobs reaped at the deadline (partner message lost).
    orphans_reaped: Arc<Counter>,
}

impl MeasurementTelemetry {
    fn new(registry: &Arc<Registry>, index: usize) -> Self {
        MeasurementTelemetry {
            db_query_cost: registry.histogram("db.query_cost_ms", CPU_COST_EDGES),
            db_queries: registry.counter("db.queries_total"),
            dedup_hits: registry.counter("protocol.dedup_hits"),
            orphans_reaped: registry.counter("measurement.orphans_reaped"),
            fanout_latency: registry
                .histogram("measurement.fanout_latency_ms", FANOUT_LATENCY_EDGES),
            assembly_cpu: registry.histogram("measurement.assembly_cpu_ms", CPU_COST_EDGES),
            replies: registry.counter("measurement.replies_total"),
            late_replies: registry.counter("measurement.late_replies"),
            bytes_stored: registry.counter("measurement.diff_bytes_stored"),
            bytes_full: registry.counter("measurement.diff_bytes_full"),
            jobs_finished: registry.counter("measurement.jobs_finished"),
            active_jobs: registry.gauge(&format!("measurement.{index:03}.active_jobs")),
            registry: Arc::clone(registry),
        }
    }

    /// Folds the machine's observable outcomes into the registry.
    fn apply(&self, index: usize, now_ms: u64, events: &mut Vec<MeasEvent>) {
        for e in events.drain(..) {
            match e {
                MeasEvent::ReplyAccepted { since_fanout_ms } => {
                    self.replies.inc();
                    self.fanout_latency.observe(since_fanout_ms as f64);
                }
                MeasEvent::ReplyLate => self.late_replies.inc(),
                MeasEvent::ReplyDuplicate => self.dedup_hits.inc(),
                MeasEvent::OrphanReaped { job } => {
                    self.orphans_reaped.inc();
                    self.registry.event(
                        now_ms,
                        "measurement.orphan_reaped",
                        vec![
                            ("job", FieldValue::U64(job.0)),
                            ("server", FieldValue::U64(index as u64)),
                        ],
                    );
                }
                MeasEvent::AssemblyScheduled {
                    proc_ms,
                    db_ms,
                    active_jobs,
                } => {
                    if let Some(db_ms) = db_ms {
                        self.db_queries.inc();
                        self.db_query_cost.observe(db_ms);
                    }
                    self.assembly_cpu.observe(proc_ms);
                    self.active_jobs.set(active_jobs as i64);
                }
                MeasEvent::JobFinished {
                    job,
                    stored,
                    full,
                    received,
                    fanout_at_ms,
                    active_jobs,
                } => {
                    self.bytes_stored.add(stored as u64);
                    self.bytes_full.add(full as u64);
                    self.jobs_finished.inc();
                    self.active_jobs.set(active_jobs as i64);
                    self.registry.span(
                        fanout_at_ms,
                        now_ms,
                        "measurement.job",
                        vec![
                            ("job", FieldValue::U64(job.0)),
                            ("server", FieldValue::U64(index as u64)),
                            ("replies", FieldValue::U64(received as u64)),
                        ],
                    );
                }
            }
        }
    }
}

/// Cached handles for the Database-server hot path.
struct DbTelemetry {
    query_cost: Arc<Histogram>,
    queries: Arc<Counter>,
    active: Arc<Gauge>,
    max_active: Arc<Gauge>,
    wal_appends: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    snapshots: Arc<Counter>,
    recovered: Arc<Counter>,
    dup_stores: Arc<Counter>,
}

impl DbTelemetry {
    fn new(registry: &Arc<Registry>) -> Self {
        DbTelemetry {
            query_cost: registry.histogram("db.query_cost_ms", CPU_COST_EDGES),
            queries: registry.counter("db.queries_total"),
            active: registry.gauge("db.active_queries"),
            max_active: registry.gauge("db.active_queries_max"),
            wal_appends: registry.counter("db.wal_appends"),
            wal_bytes: registry.counter("db.wal_bytes"),
            snapshots: registry.counter("db.snapshots"),
            recovered: registry.counter("db.recovered_records"),
            dup_stores: registry.counter("db.duplicate_stores"),
        }
    }

    fn apply(&self, events: &mut Vec<DbEvent>) {
        for e in events.drain(..) {
            match e {
                DbEvent::QueryScheduled { cost_ms, active } => {
                    self.queries.inc();
                    self.query_cost.observe(cost_ms as f64);
                    self.active.set(active as i64);
                    if (active as i64) > self.max_active.get() {
                        self.max_active.set(active as i64);
                    }
                }
                DbEvent::QueryDone { active } => self.active.set(active as i64),
                DbEvent::WalAppended { bytes } => {
                    self.wal_appends.inc();
                    self.wal_bytes.add(bytes);
                }
                DbEvent::SnapshotInstalled { .. } => self.snapshots.inc(),
                DbEvent::Recovered { records, .. } => self.recovered.add(records),
                DbEvent::DuplicateStoreAbsorbed { .. } => self.dup_stores.inc(),
            }
        }
    }
}

/// The one place machine events become metrics. Built once per
/// deployment from its roster; every backend that has a registry calls
/// [`NodeTelemetry::fold`] after each step.
pub struct NodeTelemetry {
    /// One entry per Measurement server, by server index.
    measurement: Vec<MeasurementTelemetry>,
    /// Present when the roster has a Database server.
    db: Option<DbTelemetry>,
}

impl NodeTelemetry {
    /// Registers the `measurement.*` and `db.*` handles the roles in
    /// `roster` publish.
    pub fn new(registry: &Arc<Registry>, roster: &[RoleNode]) -> NodeTelemetry {
        let mut measurement = Vec::new();
        let mut db = None;
        for node in roster {
            match node.role {
                Role::Measurement(_) => {
                    measurement.push(MeasurementTelemetry::new(registry, measurement.len()));
                }
                Role::Database(_) => db = Some(DbTelemetry::new(registry)),
                _ => {}
            }
        }
        NodeTelemetry { measurement, db }
    }

    /// Publishes (and drains) the events node `me` produced in one step.
    pub fn fold(&self, me: Address, now_ms: u64, buf: &mut StepBuf) {
        match me {
            Address::Server { index } => {
                if let Some(t) = self.measurement.get(index) {
                    t.apply(index, now_ms, &mut buf.meas);
                }
            }
            Address::Database => {
                if let Some(t) = &self.db {
                    t.apply(&mut buf.db);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sheriff_currency::FixedRates;
    use sheriff_geo::{Country, IpV4};
    use sheriff_html::tagspath::TagsPath;
    use sheriff_market::ProductId;
    use std::mem::discriminant;

    use crate::coordinator::{Coordinator, JobId, PeerId};
    use crate::db::DbCostModel;
    use crate::protocol::{DefenseParams, Digest, MeasurementParams, ReliableConfig, Standing};
    use crate::records::{PriceObservation, VantageKind};
    use crate::whitelist::Whitelist;

    /// One retransmission, then give-up.
    fn one_attempt() -> Channel {
        Channel::new(ReliableConfig {
            max_attempts: 1,
            ..ReliableConfig::default()
        })
    }

    /// Fires every timer the node arms, earliest first, while the
    /// network eats every send — the node's view of a total partition.
    /// Returns what was eaten once nothing is armed (retransmitted
    /// copies included, unwrapped from their envelopes).
    fn run_partitioned(node: &mut RoleNode, rng: &mut StdRng, buf: &mut StepBuf) -> Vec<ProtoMsg> {
        let mut armed: Vec<(u64, TimerKind)> = Vec::new();
        let mut eaten = Vec::new();
        let mut now_ms = 0;
        loop {
            for o in buf.out.drain(..) {
                match o {
                    Output::Timer { delay_ms, kind } => armed.push((now_ms + delay_ms, kind)),
                    Output::Send { msg, .. } | Output::SendFetched { msg, .. } => match msg {
                        ProtoMsg::Reliable { inner, .. } => eaten.push(*inner),
                        bare => eaten.push(bare),
                    },
                }
            }
            let Some(next) = (0..armed.len()).min_by_key(|&i| armed[i].0) else {
                return eaten;
            };
            let (due_ms, kind) = armed.remove(next);
            now_ms = due_ms;
            node.on_timer(now_ms, kind, rng, buf);
        }
    }

    fn coordinator_node() -> RoleNode {
        let mut coordinator = Coordinator::new(Whitelist::with_domains(["amazon.com"]));
        coordinator.register_server("ms-0", 80, 0);
        RoleNode {
            me: Address::Coordinator,
            role: Role::Coordinator(Box::new(CoordinatorProto::new(coordinator, 0))),
            chan: one_attempt(),
        }
    }

    /// A Coordinator that just quarantined peer `id` for three requests
    /// in someone else's name (+2 each, threshold 6), its output in `buf`.
    fn coordinator_quarantining(id: u64, rng: &mut StdRng, buf: &mut StepBuf) -> RoleNode {
        let mut node = coordinator_node();
        for local_tag in 0..3 {
            node.on_message(
                0,
                Address::Peer { id },
                ProtoMsg::CoordRequest {
                    url: "https://amazon.com/product/1".into(),
                    peer: PeerId(1),
                    local_tag,
                },
                rng,
                buf,
            );
        }
        node
    }

    #[test]
    fn coordinator_give_up_releases_the_origin_through_the_step() {
        let mut node = coordinator_node();
        let (mut rng, mut buf) = (StdRng::seed_from_u64(7), StepBuf::default());
        node.on_message(
            0,
            Address::Peer { id: 1 },
            ProtoMsg::CoordRequest {
                url: "https://amazon.com/product/1".into(),
                peer: PeerId(1),
                local_tag: 42,
            },
            &mut rng,
            &mut buf,
        );
        let open = |node: &RoleNode| match &node.role {
            Role::Coordinator(p) => (p.open_origins(), p.coordinator.pending_jobs(0)),
            _ => panic!("not the Coordinator"),
        };
        // Admitted: CoordAssign and PpcList are both awaiting acks.
        assert_eq!(open(&node), (1, 1));
        assert_eq!(node.chan.in_flight(), 2);

        run_partitioned(&mut node, &mut rng, &mut buf);
        assert_eq!(open(&node), (0, 0), "abandoned assignment must not leak");
        assert_eq!(node.chan.in_flight(), 0);
    }

    #[test]
    fn defense_timers_of_the_widest_peer_id_come_back_as_themselves() {
        // The id is whatever an envelope claimed; no roster vetted it.
        const WIDE: u64 = u64::MAX;
        let (mut rng, mut buf) = (StdRng::seed_from_u64(7), StepBuf::default());
        let mut node = coordinator_quarantining(WIDE, &mut rng, &mut buf);
        let standing = |node: &RoleNode| match &node.role {
            Role::Coordinator(p) => p.defense.standing(WIDE),
            _ => panic!("not the Coordinator"),
        };
        // The defense timers the last step armed (the reject replies'
        // retransmit timers are not this test's business).
        let armed = |buf: &mut StepBuf| -> Vec<TimerKind> {
            let defense = |o| match o {
                Output::Timer {
                    kind: kind @ (TimerKind::Quarantine(_) | TimerKind::Parole(_)),
                    ..
                } => Some(kind),
                _ => None,
            };
            buf.out.drain(..).filter_map(defense).collect()
        };
        assert_eq!(standing(&node), Standing::Quarantined);
        let kinds = armed(&mut buf);
        assert_eq!(kinds, [TimerKind::Quarantine(WIDE)]);

        node.on_timer(30_000, kinds[0], &mut rng, &mut buf);
        assert_eq!(standing(&node), Standing::Parole);
        let kinds = armed(&mut buf);
        assert_eq!(kinds, [TimerKind::Parole(WIDE)]);

        node.on_timer(45_000, kinds[0], &mut rng, &mut buf);
        assert_eq!(standing(&node), Standing::Good);
        assert!(armed(&mut buf).is_empty());
    }

    /// A v2 Measurement node with one fanned-out job (no vantages, so
    /// it assembles at the 2 s deadline) and `buf` holding the timers
    /// that armed.
    fn measurement_node_with_open_job(
        chan: Channel,
        rng: &mut StdRng,
        buf: &mut StepBuf,
    ) -> (RoleNode, JobId) {
        let proto = MeasurementProto::new(MeasurementParams {
            index: 0,
            ipcs: vec![],
            rates: FixedRates::paper_era(),
            proc_per_reply_ms: 1.0,
            context_switch_alpha: 0.0,
            job_deadline_ms: 2_000,
            db_cost: DbCostModel::dedicated(),
            integrated_db: false,
            heartbeat_every_ms: 60_000,
            ipc_countries: vec![],
            defense: DefenseParams::default(),
        });
        let mut node = RoleNode {
            me: Address::Server { index: 0 },
            role: Role::Measurement(Box::new(proto)),
            chan,
        };
        let job = JobId(1);
        node.on_message(
            0,
            Address::Coordinator,
            ProtoMsg::PpcList { job, ppcs: vec![] },
            rng,
            buf,
        );
        node.on_message(
            0,
            Address::Peer { id: 9 },
            ProtoMsg::JobSubmit {
                job,
                domain: "amazon.com".into(),
                product: ProductId(0),
                tags_path: TagsPath { steps: vec![] },
                initiator_html: String::new(),
                initiator_obs: Box::new(PriceObservation {
                    vantage: VantageKind::Initiator,
                    vantage_id: 9,
                    country: Country::ES,
                    city: None,
                    ip: IpV4(0x0A00_0001),
                    raw_text: "EUR 10.00".into(),
                    currency: "EUR".into(),
                    amount: 10.0,
                    amount_eur: 10.0,
                    low_confidence: false,
                    failed: false,
                }),
            },
            rng,
            buf,
        );
        (node, job)
    }

    fn digest(node: &RoleNode) -> u64 {
        let mut d = Digest::new();
        match &node.role {
            Role::Coordinator(p) => p.state_digest(&mut d),
            Role::Measurement(p) => p.state_digest(&mut d),
            Role::Database(p) => p.state_digest(&mut d),
            Role::Aggregator(_) | Role::Ipc { .. } | Role::Peer { .. } => {}
        }
        node.chan.state_digest(&mut d);
        d.finish()
    }

    #[test]
    fn every_timer_a_role_arms_is_consumed_when_it_fires_back() {
        // An explicit ignore arm compiles even for a kind the same
        // machine arms. So one timer of each kind in `buf.out`, and of
        // each new kind those firings arm, fires an hour in — all long
        // due — and the node must act: state, output or events change.
        let mut walked = Vec::new();
        let mut walk = |node: &mut RoleNode, rng: &mut StdRng, buf: &mut StepBuf| loop {
            let fresh = |o: &Output| match o {
                Output::Timer { kind, .. } if !walked.contains(&discriminant(kind)) => Some(*kind),
                Output::Timer { .. } | Output::Send { .. } | Output::SendFetched { .. } => None,
            };
            let Some(kind) = buf.out.iter().find_map(fresh) else {
                return;
            };
            let lens = |b: &StepBuf| (b.out.len(), b.meas.len(), b.db.len());
            let before = (digest(node), lens(buf));
            node.on_timer(3_600_000, kind, rng, buf);
            let after = (digest(node), lens(buf));
            assert!(before != after, "{:?} ignored {kind:?}", node.me);
            walked.push(discriminant(&kind));
        };
        let at_start = |kind| Output::Timer { delay_ms: 0, kind };
        let mut rng = StdRng::seed_from_u64(7);

        // Coordinator: sweep (driver-armed), quarantine → parole, and the
        // reject replies' retransmits.
        let mut buf = StepBuf::default();
        let mut node = coordinator_quarantining(5, &mut rng, &mut buf);
        buf.out.push(at_start(TimerKind::CoordSweep));
        walk(&mut node, &mut rng, &mut buf);

        // Measurement: beacon (driver-armed), deadline → assembly → store.
        let (chan, mut buf) = (Channel::new(ReliableConfig::default()), StepBuf::default());
        let (mut node, _) = measurement_node_with_open_job(chan, &mut rng, &mut buf);
        buf.out.push(at_start(TimerKind::Heartbeat));
        walk(&mut node, &mut rng, &mut buf);

        // Database: handed that store.
        let store = buf.out.into_iter().find_map(|o| match o {
            Output::Send { to, msg } => (to == Address::Database).then_some(msg),
            Output::SendFetched { .. } | Output::Timer { .. } => None,
        });
        let mut node = RoleNode {
            me: Address::Database,
            role: Role::Database(Box::new(DbProto::new(DbCostModel::dedicated()))),
            chan: Channel::new(ReliableConfig::default()),
        };
        let (server, mut buf) = (Address::Server { index: 0 }, StepBuf::default());
        node.on_message(0, server, store.unwrap(), &mut rng, &mut buf);
        walk(&mut node, &mut rng, &mut buf);

        assert_eq!(walked.len(), 8, "a `TimerKind` no role armed: {walked:?}");
    }

    fn open_jobs(node: &RoleNode) -> usize {
        match &node.role {
            Role::Measurement(p) => p.open_jobs().count(),
            _ => panic!("not a Measurement server"),
        }
    }

    #[test]
    fn measurement_give_up_finishes_the_job_through_the_step() {
        let (mut rng, mut buf) = (StdRng::seed_from_u64(7), StepBuf::default());
        let (mut node, job) = measurement_node_with_open_job(one_attempt(), &mut rng, &mut buf);
        assert_eq!(open_jobs(&node), 1);

        // Deadline → assembly → StoreCheck, which nobody ever acks: the
        // DbAck that would finish the job cannot arrive.
        run_partitioned(&mut node, &mut rng, &mut buf);
        assert_eq!(open_jobs(&node), 0, "abandoned StoreCheck must not leak");
        assert_eq!(node.chan.in_flight(), 0);
        assert!(
            buf.meas
                .iter()
                .any(|e| matches!(e, MeasEvent::JobFinished { job: j, .. } if *j == job)),
            "the give-up path reports the finished job: {:?}",
            buf.meas
        );
    }

    #[test]
    fn unacknowledged_store_is_resent_every_deadline_until_the_give_up() {
        // The deployed retransmit budget outlasts many 2 s deadlines, so
        // the watchdog gets to re-send before the first copy is
        // abandoned. Nothing counts attempts: that give-up finishes the
        // job, and a finished job is what stops the watchdog.
        let (mut rng, mut buf) = (StdRng::seed_from_u64(7), StepBuf::default());
        let chan = Channel::new(ReliableConfig::default());
        let (mut node, job) = measurement_node_with_open_job(chan, &mut rng, &mut buf);

        let eaten = run_partitioned(&mut node, &mut rng, &mut buf);
        assert_eq!(open_jobs(&node), 0, "the give-up still ends it");
        assert_eq!(node.chan.in_flight(), 0);
        let finished =
            |e: &&MeasEvent| matches!(e, MeasEvent::JobFinished { job: j, .. } if *j == job);
        assert_eq!(buf.meas.iter().filter(finished).count(), 1);

        let cfg = ReliableConfig::default();
        let budget = u64::from(cfg.max_attempts) + 1;
        let copies = eaten
            .iter()
            .filter(|m| matches!(m, ProtoMsg::StoreCheck { job: j, .. } if *j == job))
            .count() as u64;
        assert!(
            copies > budget,
            "{copies} copies are one send's retransmits; the deadline re-sent nothing"
        );
        // The first copy is abandoned within `budget` backoffs of at most
        // 1.25 × the ceiling; until then, one fresh send per 2 s deadline.
        let deadlines = budget * (cfg.max_backoff_ms + cfg.max_backoff_ms / 4) / 2_000;
        assert!(
            copies <= budget * (1 + deadlines),
            "{copies} copies: the loop is not bounded"
        );
    }
}
