//! Model-checking worlds: small closed systems built from the *same*
//! [`RoleNode`]s the DES and TCP backends host — stepped through the
//! same `on_message` / `on_timer` / `on_restart` entry points, so the
//! checker explores the channel plumbing and give-up release the
//! deployments run, not a copy of them — plus ghost environment actors
//! standing in for add-on peers.
//!
//! A [`ModelWorld`] is a deterministic transition system. Its state is
//! the protocol nodes (machine + reliable channel), a slot-stable
//! in-flight message set, and a slot-stable armed-timer set; its
//! transitions are [`Event`]s — deliver/duplicate/drop a message, fire
//! an earliest-due timer, crash-and-restart a node, or inject a
//! scripted Byzantine stimulus. Replaying the same event sequence from
//! [`ModelWorld::new`] always reaches the same state, which is what
//! lets the explorer enumerate interleavings without cloning machines
//! (they hold `Box<dyn Storage>` and are deliberately not `Clone`).
//!
//! Virtual time only advances when a timer fires (to that timer's due
//! instant); message delivery is modeled as "any latency shorter than
//! the next timer", which covers every DES-realizable ordering. Only
//! earliest-due timers are fireable, matching the DES scheduler.
//! Crash+restart is atomic and leaves armed timers in place — the
//! netsim engine defers a dead node's timers to after its restart, so a
//! Database crash between a WAL append and its flush leaves a `DbDone`
//! that fires into a recovered machine with nobody to ack. The
//! requester's `JobDeadline` closes that window by sending the store
//! again; the job-coverage rule of `check_state` is what proves the
//! checker looks there.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sheriff_core::coordinator::{Coordinator, JobId, PeerId};
use sheriff_core::db::DbCostModel;
use sheriff_core::measurement::VantageMeta;
use sheriff_core::protocol::{
    Address, Channel, CoordinatorProto, DbProto, DefenseParams, Digest, MeasurementParams,
    MeasurementProto, Output, ProtoMsg, ReliableConfig, Role, RoleNode, Standing, StepBuf,
    TimerKind,
};
use sheriff_core::records::{PriceObservation, VantageKind};
use sheriff_core::whitelist::Whitelist;
use sheriff_currency::FixedRates;
use sheriff_geo::{Country, GeoLocator, Granularity, IpAllocator, IpV4};
use sheriff_html::tagspath::TagsPath;
use sheriff_market::ProductId;

/// Ghost peer acting as the requesting add-on (the initiator).
pub const INITIATOR: u64 = 1;
/// Ghost peer acting as the PPC vantage.
pub const VANTAGE: u64 = 2;

/// Which closed system to check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorldKind {
    /// Coordinator + Measurement server + dedicated Database server,
    /// with duplication, drop, and a Database crash enabled — the §3.2
    /// pipeline end to end, WAL durability included.
    Small,
    /// Coordinator + Measurement server + dedicated Database server
    /// under a one-attempt retransmit budget and two message drops (no
    /// crash, no duplication): the world where reliable-channel
    /// give-ups — including an undeliverable `StoreCheck` — must
    /// release every piece of pinned state.
    Giveup,
    /// Coordinator + Measurement server with a misbehaving PPC ghost:
    /// scripted envelope-forging replies walk the defense ladder
    /// through quarantine, parole, and parole violation.
    Byzantine,
}

impl WorldKind {
    /// Stable CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            WorldKind::Small => "small",
            WorldKind::Giveup => "giveup",
            WorldKind::Byzantine => "byzantine",
        }
    }

    /// Parses a CLI/report name.
    pub fn parse(name: &str) -> Option<WorldKind> {
        match name {
            "small" => Some(WorldKind::Small),
            "giveup" => Some(WorldKind::Giveup),
            "byzantine" => Some(WorldKind::Byzantine),
            _ => None,
        }
    }

    /// The CI-pinned exploration depth for this world: deep enough to
    /// reach the behaviors the world exists to find (the small world's
    /// 10-step crash between WAL append and flush, the giveup world's
    /// 13-step undeliverable-`StoreCheck` give-up, the byzantine world's
    /// quarantine→parole walk), shallow enough that all three finish
    /// inside one CI minute.
    pub fn ci_depth(self) -> usize {
        match self {
            WorldKind::Small => 10,
            WorldKind::Giveup => 14,
            WorldKind::Byzantine => 12,
        }
    }
}

/// A seeded defect, used to prove the checker actually catches dropped
/// obligations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// The Database driver "forgets" to arm `DbDone` for accepted
    /// stores — the store is never completed or acked.
    DropDbDoneArm,
    /// The Measurement driver "forgets" to arm `Retransmit` for
    /// hardened sends — unacked envelopes are never retried/released.
    DropRetransmitArm,
    /// The driver discards the abandoned payload on retransmit give-up
    /// (the pre-fix behavior) — modeled by firing the timer into the
    /// channel directly, around the shared step: a job origin pinned on
    /// an abandoned assignment leaks forever. (A job pinned on an
    /// abandoned `StoreCheck` does not: its deadline sends another.)
    IgnoreAbandoned,
}

impl Mutation {
    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::DropDbDoneArm => "drop-db-done-arm",
            Mutation::DropRetransmitArm => "drop-retransmit-arm",
            Mutation::IgnoreAbandoned => "ignore-abandoned",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Mutation> {
        match name {
            "drop-db-done-arm" => Some(Mutation::DropDbDoneArm),
            "drop-retransmit-arm" => Some(Mutation::DropRetransmitArm),
            "ignore-abandoned" => Some(Mutation::IgnoreAbandoned),
            _ => None,
        }
    }
}

/// Everything that parameterizes one world build.
#[derive(Clone, Copy, Debug)]
pub struct WorldCfg {
    /// Which closed system.
    pub kind: WorldKind,
    /// Extra deliveries of an in-flight message the adversary may make.
    pub dup_budget: u32,
    /// Messages the adversary may destroy.
    pub drop_budget: u32,
    /// Crash-restarts the adversary may trigger.
    pub crash_budget: u32,
    /// Optional seeded defect.
    pub mutation: Option<Mutation>,
}

impl WorldCfg {
    /// The canonical configuration for `kind` (the CI-pinned budgets).
    pub fn preset(kind: WorldKind) -> WorldCfg {
        match kind {
            WorldKind::Small => WorldCfg {
                kind,
                dup_budget: 1,
                drop_budget: 1,
                crash_budget: 1,
                mutation: None,
            },
            WorldKind::Giveup => WorldCfg {
                kind,
                dup_budget: 0,
                drop_budget: 2,
                crash_budget: 0,
                mutation: None,
            },
            WorldKind::Byzantine => WorldCfg {
                kind,
                dup_budget: 0,
                drop_budget: 0,
                crash_budget: 0,
                mutation: None,
            },
        }
    }

    /// The same preset with a seeded defect.
    pub fn with_mutation(mut self, mutation: Mutation) -> WorldCfg {
        self.mutation = Some(mutation);
        self
    }
}

/// One in-flight message. Slots are never reused within a run, so an
/// [`Event`] naming a slot means the same message in every replay.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Transport-level source.
    pub from: Address,
    /// Destination.
    pub to: Address,
    /// Payload (possibly a reliable envelope).
    pub msg: ProtoMsg,
}

/// One armed timer. Like message slots, timer slots are append-only.
#[derive(Clone, Copy, Debug)]
pub struct TimerEntry {
    /// The machine that armed it.
    pub node: Address,
    /// Which timer.
    pub kind: TimerKind,
    /// Absolute virtual due instant.
    pub due_ms: u64,
    /// Arming order, for deterministic tie-breaks.
    pub arm_seq: u64,
}

/// One adversarial scheduling choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// Deliver in-flight message `slot` (consumes the slot).
    Deliver {
        /// Message slot.
        slot: usize,
    },
    /// Deliver a *copy* of message `slot`, leaving the original in
    /// flight (costs one duplication budget unit).
    Duplicate {
        /// Message slot.
        slot: usize,
    },
    /// Destroy in-flight message `slot` (costs one drop budget unit).
    Drop {
        /// Message slot.
        slot: usize,
    },
    /// Fire armed timer `slot` (must be earliest-due); virtual time
    /// jumps to its due instant.
    FireTimer {
        /// Timer slot.
        slot: usize,
    },
    /// Atomically crash and restart a node: volatile state is lost,
    /// durable state recovered, armed timers left in place (deferred).
    CrashRestart {
        /// The crashed node.
        node: Address,
    },
    /// Deliver scripted Byzantine stimulus `index` (once each).
    Inject {
        /// Index into the world's injection table.
        index: usize,
    },
}

impl Event {
    fn touches_slot(&self, slot: usize) -> bool {
        match self {
            Event::Deliver { slot: s } | Event::Duplicate { slot: s } | Event::Drop { slot: s } => {
                *s == slot
            }
            _ => false,
        }
    }
}

/// Exact-commutation independence for the sleep-set reduction. Only
/// `Drop` pairs with anything: a drop mutates nothing but its own slot
/// and a budget counter, and appends no slots, so it commutes *exactly*
/// (same successor state, same future event names) with any event not
/// touching that slot. Everything else is conservatively dependent —
/// soundness over reduction.
pub fn independent(a: &Event, b: &Event) -> bool {
    match (a, b) {
        (Event::Drop { slot }, other) | (other, Event::Drop { slot }) => !other.touches_slot(*slot),
        _ => false,
    }
}

/// An invariant violation observed while applying one event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (`durability.acked_store_lost`, …).
    pub rule: &'static str,
    /// Human context.
    pub detail: String,
}

/// Why a replayed event could not be applied (minimization probes only;
/// the explorer itself only applies enabled events).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepError {
    /// The named slot is empty or out of range.
    StaleSlot,
    /// A budget was already exhausted, the timer was not earliest-due,
    /// or the injection was already used.
    NotEnabled,
}

/// Why one step scored a defense book, for the ladder invariant.
enum LadderCause {
    /// A message delivery/duplication/injection (score-carrying).
    Scored,
    /// A timer firing of this kind.
    Timer(TimerKind),
    /// A crash-restart (books survive untouched; no change is legal).
    Crash,
}

/// See the module docs.
pub struct ModelWorld {
    cfg: WorldCfg,
    reliable: ReliableConfig,
    /// `[coordinator, measurement server, database?]`.
    nodes: Vec<RoleNode>,
    ghost_chans: BTreeMap<u64, Channel>,
    /// Slot-stable in-flight messages (`None` = consumed).
    pub in_flight: Vec<Option<Envelope>>,
    /// Slot-stable armed timers (`None` = fired).
    pub timers: Vec<Option<TimerEntry>>,
    now_ms: u64,
    arm_seq: u64,
    /// Jobs whose `DbAck` the Measurement server has received — from
    /// that instant the store must survive any crash.
    acked_stores: BTreeSet<u64>,
    /// When false, invariant evaluation (state checks, ladder capture)
    /// is skipped — used by the explorer when
    /// replaying an already-checked prefix, where only the state
    /// transition matters. Never affects the state reached.
    checking: bool,
    dup_used: u32,
    drop_used: u32,
    crash_used: u32,
    injects_used: BTreeSet<usize>,
    injections: Vec<Envelope>,
    crashable: Vec<Address>,
}

const SERVER: Address = Address::Server { index: 0 };

fn initiator_obs() -> PriceObservation {
    PriceObservation {
        vantage: VantageKind::Initiator,
        vantage_id: INITIATOR,
        country: Country::ES,
        city: None,
        ip: IpV4(0x0A00_0001),
        raw_text: "EUR 10.00".into(),
        currency: "EUR".into(),
        amount: 10.0,
        amount_eur: 10.0,
        low_confidence: false,
        failed: false,
    }
}

fn vantage_meta(id: u64) -> VantageMeta {
    VantageMeta {
        kind: VantageKind::Ppc,
        id,
        country: Country::ES,
        city: None,
        ip: IpV4(0x0A00_0002),
    }
}

impl ModelWorld {
    /// Builds the configured world at its initial state: machines
    /// fresh, one `CoordRequest` from the initiator ghost in flight.
    pub fn new(cfg: WorldCfg) -> ModelWorld {
        let integrated = cfg.kind == WorldKind::Byzantine;
        let max_attempts = match cfg.kind {
            WorldKind::Small => 2,
            WorldKind::Giveup | WorldKind::Byzantine => 1,
        };
        let reliable = ReliableConfig {
            base_backoff_ms: 500,
            max_backoff_ms: 1_000,
            max_attempts,
            dedup_window: 64,
        };

        let mut core = Coordinator::new(Whitelist::with_domains(["amazon.com".to_string()]));
        core.register_server("ms-0", 80, 0);
        let mut alloc = IpAllocator::new();
        let locator = GeoLocator::new(Granularity::City);
        // The giveup world runs without a vantage ghost: an empty PPC
        // list keeps the job's fate pinned entirely on the reliable
        // channel (assembly happens at the fan-out deadline), which is
        // the behavior that world exists to exercise — and it keeps the
        // undeliverable-StoreCheck leak inside a CI-depth trace.
        let peers: &[u64] = match cfg.kind {
            WorldKind::Giveup => &[INITIATOR],
            _ => &[INITIATOR, VANTAGE],
        };
        for &id in peers {
            let ip = alloc.allocate(Country::ES, 0);
            if let Some(location) = locator.locate(ip) {
                core.peer_online(PeerId(id), ip, location);
            }
        }
        let coordinator = CoordinatorProto::new(core, 1);

        let defense = if cfg.kind == WorldKind::Byzantine {
            DefenseParams {
                quarantine_threshold: 2,
                quarantine_ms: 4_000,
                parole_ms: 4_000,
                ..DefenseParams::default()
            }
        } else {
            DefenseParams::default()
        };
        let measurement = MeasurementProto::new(MeasurementParams {
            index: 0,
            ipcs: vec![],
            rates: FixedRates::paper_era(),
            target_currency: "EUR".into(),
            proc_per_reply_ms: 10.0,
            context_switch_alpha: 0.0,
            job_deadline_ms: 2_000,
            db_cost: DbCostModel::dedicated(),
            integrated_db: integrated,
            heartbeat_every_ms: 600_000,
            ipc_countries: vec![],
            defense,
        });

        let node = |me: Address, role: Role| RoleNode {
            me,
            role,
            chan: Channel::new(reliable),
        };
        let mut nodes = vec![
            node(
                Address::Coordinator,
                Role::Coordinator(Box::new(coordinator)),
            ),
            node(SERVER, Role::Measurement(Box::new(measurement))),
        ];
        if !integrated {
            let db = DbProto::new(DbCostModel::dedicated());
            nodes.push(node(Address::Database, Role::Database(Box::new(db))));
        }
        let crashable = if cfg.crash_budget > 0 {
            vec![Address::Database]
        } else {
            Vec::new()
        };
        let injections = if cfg.kind == WorldKind::Byzantine {
            // Two forged replies: the claimed vantage id (7) does not
            // match the sending peer (2) — envelope validation rejects
            // each at +2, walking peer 2 up the ladder.
            (0..2)
                .map(|_| Envelope {
                    from: Address::Peer { id: VANTAGE },
                    to: SERVER,
                    msg: ProtoMsg::FetchReply {
                        job: JobId(1),
                        meta: vantage_meta(7),
                        html: String::new(),
                    },
                })
                .collect()
        } else {
            Vec::new()
        };

        let stimulus = Envelope {
            from: Address::Peer { id: INITIATOR },
            to: Address::Coordinator,
            msg: ProtoMsg::CoordRequest {
                url: "https://amazon.com/product/1".into(),
                peer: PeerId(INITIATOR),
                local_tag: 7,
            },
        };

        ModelWorld {
            cfg,
            reliable,
            nodes,
            ghost_chans: BTreeMap::new(),
            in_flight: vec![Some(stimulus)],
            timers: Vec::new(),
            now_ms: 0,
            arm_seq: 0,
            checking: true,
            acked_stores: BTreeSet::new(),
            dup_used: 0,
            drop_used: 0,
            crash_used: 0,
            injects_used: BTreeSet::new(),
            injections,
            crashable,
        }
    }

    /// The world's configuration.
    pub fn cfg(&self) -> &WorldCfg {
        &self.cfg
    }

    /// Enables/disables invariant evaluation (see the `checking` field).
    pub fn set_checking(&mut self, on: bool) {
        self.checking = on;
    }

    /// Current virtual time (ms).
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    fn coordinator(&self) -> Option<&CoordinatorProto> {
        self.nodes.iter().find_map(|n| match &n.role {
            Role::Coordinator(p) => Some(&**p),
            _ => None,
        })
    }

    fn measurement(&self) -> Option<&MeasurementProto> {
        self.nodes.iter().find_map(|n| match &n.role {
            Role::Measurement(p) => Some(&**p),
            _ => None,
        })
    }

    fn db(&self) -> Option<&DbProto> {
        self.nodes.iter().find_map(|n| match &n.role {
            Role::Database(p) => Some(&**p),
            _ => None,
        })
    }

    /// Jobs with a record in the Database's log or snapshot.
    pub fn stored_jobs(&self) -> BTreeSet<u64> {
        self.db()
            .map(|db| db.stored_jobs().map(|j| j.0).collect())
            .unwrap_or_default()
    }

    /// Jobs whose `DbAck` reached the Measurement server.
    pub fn acked_stores(&self) -> &BTreeSet<u64> {
        &self.acked_stores
    }

    // -- event enumeration ------------------------------------------------

    /// Every event enabled at this state, in deterministic order.
    pub fn enabled_events(&self) -> Vec<Event> {
        let mut events = Vec::new();
        for (slot, env) in self.in_flight.iter().enumerate() {
            if env.is_none() {
                continue;
            }
            events.push(Event::Deliver { slot });
            if self.dup_used < self.cfg.dup_budget {
                events.push(Event::Duplicate { slot });
            }
            if self.drop_used < self.cfg.drop_budget {
                events.push(Event::Drop { slot });
            }
        }
        if let Some(min_due) = self.timers.iter().flatten().map(|t| t.due_ms).min() {
            for (slot, entry) in self.timers.iter().enumerate() {
                if entry.is_some_and(|t| t.due_ms == min_due) {
                    events.push(Event::FireTimer { slot });
                }
            }
        }
        if self.crash_used < self.cfg.crash_budget {
            for &node in &self.crashable {
                events.push(Event::CrashRestart { node });
            }
        }
        for index in 0..self.injections.len() {
            if !self.injects_used.contains(&index) {
                events.push(Event::Inject { index });
            }
        }
        events
    }

    /// True when no protocol activity remains: nothing in flight, no
    /// armed timer. (Unused crash/injection budgets do not count — a
    /// quiescent system is quiescent even if the adversary still has
    /// moves.)
    pub fn protocol_quiescent(&self) -> bool {
        self.in_flight.iter().all(Option::is_none) && self.timers.iter().all(Option::is_none)
    }

    // -- event application ------------------------------------------------

    /// Renders what `event` would do at this state, *without* applying
    /// it. Call before [`ModelWorld::apply_event`] when building a
    /// human-readable trace (descriptions are not built during
    /// exploration — formatting on every transition would dominate the
    /// search).
    pub fn describe(&self, event: Event) -> String {
        let env_at = |slot: usize| self.in_flight.get(slot).and_then(Option::as_ref);
        match event {
            Event::Deliver { slot } => match env_at(slot) {
                Some(env) => format!(
                    "deliver #{slot} {:?} -> {:?}: {}",
                    env.from,
                    env.to,
                    msg_brief(&env.msg)
                ),
                None => format!("deliver #{slot} <stale>"),
            },
            Event::Duplicate { slot } => match env_at(slot) {
                Some(env) => format!(
                    "duplicate #{slot} {:?} -> {:?}: {}",
                    env.from,
                    env.to,
                    msg_brief(&env.msg)
                ),
                None => format!("duplicate #{slot} <stale>"),
            },
            Event::Drop { slot } => match env_at(slot) {
                Some(env) => format!(
                    "drop #{slot} {:?} -> {:?}: {}",
                    env.from,
                    env.to,
                    msg_brief(&env.msg)
                ),
                None => format!("drop #{slot} <stale>"),
            },
            Event::FireTimer { slot } => match self.timers.get(slot).and_then(Option::as_ref) {
                Some(t) => format!("fire #{slot} {:?} {:?} @ {}ms", t.node, t.kind, t.due_ms),
                None => format!("fire #{slot} <stale>"),
            },
            Event::CrashRestart { node } => format!("crash+restart {node:?}"),
            Event::Inject { index } => match self.injections.get(index) {
                Some(env) => format!(
                    "inject #{index} {:?} -> {:?}: {}",
                    env.from,
                    env.to,
                    msg_brief(&env.msg)
                ),
                None => format!("inject #{index} <stale>"),
            },
        }
    }

    /// Applies one event, returning the findings it produced.
    pub fn apply_event(&mut self, event: Event) -> Result<Vec<Finding>, StepError> {
        let mut findings = Vec::new();
        match event {
            Event::Deliver { slot } => {
                let env = self
                    .in_flight
                    .get_mut(slot)
                    .ok_or(StepError::StaleSlot)?
                    .take()
                    .ok_or(StepError::StaleSlot)?;
                self.deliver(env, &mut findings);
            }
            Event::Duplicate { slot } => {
                if self.dup_used >= self.cfg.dup_budget {
                    return Err(StepError::NotEnabled);
                }
                let env = self
                    .in_flight
                    .get(slot)
                    .ok_or(StepError::StaleSlot)?
                    .clone()
                    .ok_or(StepError::StaleSlot)?;
                self.dup_used += 1;
                self.deliver(env, &mut findings);
            }
            Event::Drop { slot } => {
                if self.drop_used >= self.cfg.drop_budget {
                    return Err(StepError::NotEnabled);
                }
                self.in_flight
                    .get_mut(slot)
                    .ok_or(StepError::StaleSlot)?
                    .take()
                    .ok_or(StepError::StaleSlot)?;
                self.drop_used += 1;
            }
            Event::FireTimer { slot } => {
                let entry = *self
                    .timers
                    .get(slot)
                    .ok_or(StepError::StaleSlot)?
                    .as_ref()
                    .ok_or(StepError::StaleSlot)?;
                let min_due = self
                    .timers
                    .iter()
                    .flatten()
                    .map(|t| t.due_ms)
                    .min()
                    .unwrap_or(entry.due_ms);
                if entry.due_ms != min_due {
                    return Err(StepError::NotEnabled);
                }
                if let Some(t) = self.timers.get_mut(slot) {
                    *t = None;
                }
                self.now_ms = self.now_ms.max(entry.due_ms);
                self.fire(entry, &mut findings);
            }
            Event::CrashRestart { node } => {
                if self.crash_used >= self.cfg.crash_budget || !self.crashable.contains(&node) {
                    return Err(StepError::NotEnabled);
                }
                self.crash_used += 1;
                self.crash_restart(node, &mut findings);
            }
            Event::Inject { index } => {
                let env = self
                    .injections
                    .get(index)
                    .ok_or(StepError::StaleSlot)?
                    .clone();
                if !self.injects_used.insert(index) {
                    return Err(StepError::NotEnabled);
                }
                self.deliver(env, &mut findings);
            }
        }
        self.sweep_stale_retransmits();
        if self.checking {
            self.check_state(&mut findings);
        }
        Ok(findings)
    }

    /// Discards armed `Retransmit` timers whose sequence number is no
    /// longer unacked. Firing such a timer is a no-op in every driver
    /// (`Channel::on_retransmit` finds nothing), so the only thing
    /// exploring it would buy is depth — the sweep reaches exactly the
    /// same protocol states while keeping quiescence within the bound.
    fn sweep_stale_retransmits(&mut self) {
        for slot in &mut self.timers {
            let Some(t) = slot else { continue };
            let TimerKind::Retransmit(seq) = t.kind else {
                continue;
            };
            let live = self
                .nodes
                .iter()
                .any(|n| n.me == t.node && n.chan.unacked_seqs().any(|s| s == seq));
            if !live {
                *slot = None;
            }
        }
    }

    /// One call into the shared node step, wrapped in what only the
    /// checker does around it: the defense-ladder comparison and
    /// routing the commands into the slot sets.
    /// Addresses with no node here (Aggregator, IPCs — the DES would
    /// route these to real nodes) absorb the event silently.
    fn step(
        &mut self,
        addr: Address,
        cause: &LadderCause,
        findings: &mut Vec<Finding>,
        call: impl FnOnce(&mut RoleNode, u64, &mut StdRng, &mut StepBuf),
    ) {
        let (now_ms, checking) = (self.now_ms, self.checking);
        let Some(node) = self.nodes.iter_mut().find(|n| n.me == addr) else {
            return;
        };
        let pre = checking.then(|| standings(node)).flatten();
        let mut buf = StepBuf::default();
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        call(node, now_ms, &mut rng, &mut buf);
        if let (Some((book, pre)), Some((_, post))) = (pre, standings(node)) {
            check_ladder(book, &pre, &post, cause, findings);
        }
        self.route(addr, buf.out);
    }

    fn deliver(&mut self, env: Envelope, findings: &mut Vec<Finding>) {
        if let Address::Peer { id } = env.to {
            return self.ghost_deliver(id, env);
        }
        // A `DbAck` reaching the Measurement server starts the
        // durability obligation. Peeking inside the envelope ahead of
        // the channel's dedup is exact: a duplicate's first copy already
        // recorded the job.
        if let (Address::Server { .. }, ProtoMsg::DbAck { job }) = (env.to, payload(&env.msg)) {
            self.acked_stores.insert(job.0);
        }
        self.step(
            env.to,
            &LadderCause::Scored,
            findings,
            |node, now, rng, buf| node.on_message(now, env.from, env.msg, rng, buf),
        );
    }

    /// Ghost peers are channel-only environment actors: they ack and
    /// dedup reliable envelopes like any node, then react from a fixed
    /// table. Their own sends go out *raw* (no reliability layer), so
    /// ghosts never arm timers — the environment is memoryless beyond
    /// its dedup window.
    fn ghost_deliver(&mut self, id: u64, env: Envelope) {
        let mut out = Vec::new();
        let chan = self
            .ghost_chans
            .entry(id)
            .or_insert_with(|| Channel::new(self.reliable));
        if let Some(msg) = chan.accept(env.from, env.msg, &mut out) {
            match msg {
                ProtoMsg::CoordAssign { job, server, .. } if id == INITIATOR => {
                    out.push(Output::send(
                        server,
                        ProtoMsg::JobSubmit {
                            job,
                            domain: "amazon.com".into(),
                            product: ProductId(0),
                            tags_path: TagsPath { steps: vec![] },
                            initiator_html: String::new(),
                            initiator_obs: Box::new(initiator_obs()),
                        },
                    ));
                }
                ProtoMsg::FetchOrder { job, .. } if id == VANTAGE => {
                    out.push(Output::SendFetched {
                        to: env.from,
                        msg: ProtoMsg::FetchReply {
                            job,
                            meta: vantage_meta(id),
                            html: String::new(),
                        },
                    });
                }
                // Results / CoordReject / QuarantineNotice: absorbed.
                _ => {}
            }
        }
        self.route(Address::Peer { id }, out);
    }

    fn fire(&mut self, entry: TimerEntry, findings: &mut Vec<Finding>) {
        let ignore_abandoned = self.cfg.mutation == Some(Mutation::IgnoreAbandoned);
        self.step(
            entry.node,
            &LadderCause::Timer(entry.kind),
            findings,
            |node, now, rng, buf| match entry.kind {
                TimerKind::Retransmit(seq) if ignore_abandoned => {
                    let _ = node.chan.on_retransmit(seq, &mut buf.out);
                }
                kind => node.on_timer(now, kind, rng, buf),
            },
        );
    }

    fn crash_restart(&mut self, node: Address, findings: &mut Vec<Finding>) {
        self.step(node, &LadderCause::Crash, findings, |node, now, _, buf| {
            node.on_restart(now, buf);
        });
    }

    fn route(&mut self, from: Address, out: Vec<Output>) {
        for o in out {
            match o {
                Output::Send { to, msg } | Output::SendFetched { to, msg } => {
                    self.in_flight.push(Some(Envelope { from, to, msg }));
                }
                Output::Timer { delay_ms, kind } => {
                    if self.arm_suppressed(from, kind) {
                        continue;
                    }
                    self.arm_seq += 1;
                    self.timers.push(Some(TimerEntry {
                        node: from,
                        kind,
                        due_ms: self.now_ms + delay_ms,
                        arm_seq: self.arm_seq,
                    }));
                }
            }
        }
    }

    fn arm_suppressed(&self, node: Address, kind: TimerKind) -> bool {
        match self.cfg.mutation {
            Some(Mutation::DropDbDoneArm) => {
                node == Address::Database && matches!(kind, TimerKind::DbDone(_))
            }
            Some(Mutation::DropRetransmitArm) => {
                matches!(node, Address::Server { .. }) && matches!(kind, TimerKind::Retransmit(_))
            }
            _ => false,
        }
    }

    // -- invariants -------------------------------------------------------

    fn timer_armed(&self, node: Address, kind: TimerKind) -> bool {
        self.timers
            .iter()
            .flatten()
            .any(|t| t.node == node && t.kind == kind)
    }

    /// Invariants checked at *every* state.
    fn check_state(&self, findings: &mut Vec<Finding>) {
        // Channel-acked stores survive recovery: once the Measurement
        // server has seen DbAck{job}, the record must be durable.
        if let Some(db) = self.db() {
            let stored = self.stored_jobs();
            for job in &self.acked_stores {
                if !stored.contains(job) {
                    findings.push(Finding {
                        rule: "durability.acked_store_lost",
                        detail: format!("job {job} was acked but its record did not survive"),
                    });
                }
            }
            // Timer-obligation linearity: every pending store is covered
            // by an armed DbDone timer (crash clears pending, so deferred
            // timers never orphan — but a *missing arm* shows up here
            // immediately).
            for job in db.pending_jobs() {
                if !self.timer_armed(Address::Database, TimerKind::DbDone(job)) {
                    findings.push(Finding {
                        rule: "timer.obligation_leak",
                        detail: format!("db job {} is pending but no DbDone timer is armed", job.0),
                    });
                }
            }
        }
        // Reliable sends: every unacked sequence number is covered by an
        // armed Retransmit timer on its own node.
        for node in &self.nodes {
            for seq in node.chan.unacked_seqs() {
                if !self.timer_armed(node.me, TimerKind::Retransmit(seq)) {
                    findings.push(Finding {
                        rule: "timer.obligation_leak",
                        detail: format!(
                            "{:?} holds unacked seq {seq} with no Retransmit timer armed",
                            node.me
                        ),
                    });
                }
            }
        }
        // Every open Measurement job is watched: a `JobDeadline` (reap,
        // assembly, then store re-send) or the `ProcDone` of its assembly
        // is armed on its server. A job nothing will ever look at again
        // is a lost check, whatever the rest of the system does.
        for node in &self.nodes {
            let Role::Measurement(p) = &node.role else {
                continue;
            };
            for job in p.open_jobs() {
                if !self.timer_armed(node.me, TimerKind::JobDeadline(job))
                    && !self.timer_armed(node.me, TimerKind::ProcDone(job))
                {
                    findings.push(Finding {
                        rule: "timer.obligation_leak",
                        detail: format!(
                            "{:?} holds open job {} with no JobDeadline or ProcDone timer armed",
                            node.me, job.0
                        ),
                    });
                }
            }
        }
        // No duplicate observations per (kind, id) vantage, ever.
        if self
            .measurement()
            .is_some_and(MeasurementProto::has_duplicate_vantage)
        {
            findings.push(Finding {
                rule: "vantage.duplicate_observation",
                detail: "a job folded in two observations from the same (kind, id) vantage".into(),
            });
        }
    }

    /// Invariants checked only at quiescent states (nothing in flight,
    /// no armed timer): all transient bookkeeping must have drained.
    pub fn quiescence_findings(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        let origins = self.coordinator().map_or(0, CoordinatorProto::open_origins);
        if origins != 0 {
            findings.push(Finding {
                rule: "quiesce.leaked_state",
                detail: format!("coordinator holds {origins} job origin(s) at quiescence"),
            });
        }
        let open_jobs = self.measurement().map_or(0, |p| p.open_jobs().count());
        if open_jobs != 0 {
            findings.push(Finding {
                rule: "quiesce.leaked_state",
                detail: format!("measurement holds {open_jobs} open job(s) at quiescence"),
            });
        }
        if let Some(db) = self.db() {
            let pending = db.pending_jobs().count();
            if pending != 0 {
                findings.push(Finding {
                    rule: "quiesce.leaked_state",
                    detail: format!("database holds {pending} pending store(s) at quiescence"),
                });
            }
        }
        for node in &self.nodes {
            if node.chan.in_flight() != 0 {
                findings.push(Finding {
                    rule: "quiesce.leaked_state",
                    detail: format!(
                        "{} channel still holds {} unacked send(s) at quiescence",
                        role_name(&node.role),
                        node.chan.in_flight()
                    ),
                });
            }
        }
        findings
    }

    // -- canonical digest -------------------------------------------------

    /// Canonical state fingerprint: machine digests, the in-flight
    /// multiset (slot-independent), armed timers as relative-due
    /// offsets (time-translation invariant), and the adversary budgets.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.nodes.len() as u64);
        for node in &self.nodes {
            match &node.role {
                Role::Coordinator(p) => p.state_digest(&mut d),
                Role::Measurement(p) => p.state_digest(&mut d),
                Role::Database(p) => p.state_digest(&mut d),
                _ => {}
            }
            node.chan.state_digest(&mut d);
        }
        d.write_u64(self.ghost_chans.len() as u64);
        for (id, chan) in &self.ghost_chans {
            d.write_u64(*id);
            chan.state_digest(&mut d);
        }
        // The in-flight multiset: each envelope is folded into its own
        // sub-digest and the sorted sub-digest list is folded in, which
        // makes the fingerprint slot-order independent without
        // allocating comparison strings.
        let mut live: Vec<u64> = self
            .in_flight
            .iter()
            .flatten()
            .map(|e| {
                let mut sub = Digest::new();
                e.from.fold_digest(&mut sub);
                e.to.fold_digest(&mut sub);
                e.msg.fold_digest(&mut sub);
                sub.finish()
            })
            .collect();
        live.sort_unstable();
        d.write_u64(live.len() as u64);
        for s in live {
            d.write_u64(s);
        }
        let mut armed: Vec<&TimerEntry> = self.timers.iter().flatten().collect();
        armed.sort_unstable_by_key(|t| (t.due_ms, t.arm_seq));
        d.write_u64(armed.len() as u64);
        for t in armed {
            t.node.fold_digest(&mut d);
            t.kind.fold_digest(&mut d);
            d.write_u64(t.due_ms.saturating_sub(self.now_ms));
        }
        d.write_u64(u64::from(self.dup_used));
        d.write_u64(u64::from(self.drop_used));
        d.write_u64(u64::from(self.crash_used));
        d.write_u64(self.injects_used.len() as u64);
        for i in &self.injects_used {
            d.write_u64(*i as u64);
        }
        d.write_u64(self.acked_stores.len() as u64);
        for j in &self.acked_stores {
            d.write_u64(*j);
        }
        d.finish()
    }
}

/// What a reliable envelope carries (or the bare message itself).
fn payload(msg: &ProtoMsg) -> &ProtoMsg {
    match msg {
        ProtoMsg::Reliable { inner, .. } => inner,
        other => other,
    }
}

/// Report name of a hosted role.
fn role_name(role: &Role) -> &'static str {
    match role {
        Role::Coordinator(_) => "coordinator",
        Role::Aggregator(_) => "aggregator",
        Role::Measurement(_) => "measurement",
        Role::Database(_) => "database",
        Role::Ipc { .. } => "ipc",
        Role::Peer { .. } => "peer",
    }
}

/// The defense book the ladder invariant watches on `node`, if its role
/// keeps one.
fn standings(node: &RoleNode) -> Option<(&'static str, Vec<(u64, Standing)>)> {
    let book = match &node.role {
        Role::Coordinator(p) => p.defense.standings(),
        Role::Measurement(p) => p.defense.standings(),
        _ => return None,
    };
    Some((role_name(&node.role), book))
}

fn msg_brief(msg: &ProtoMsg) -> String {
    match msg {
        ProtoMsg::Reliable { seq, inner } => format!("Reliable#{seq}({})", msg_brief(inner)),
        other => {
            let full = format!("{other:?}");
            match full.split_once(' ') {
                Some((head, _)) => format!("{head}{{..}}"),
                None => full,
            }
        }
    }
}

/// The defense-ladder monotonicity invariant: standings only move along
/// allowed edges, and timer-driven edges only on their own timer.
fn check_ladder(
    book: &str,
    pre: &[(u64, Standing)],
    post: &[(u64, Standing)],
    cause: &LadderCause,
    findings: &mut Vec<Finding>,
) {
    let before: BTreeMap<u64, Standing> = pre.iter().copied().collect();
    for (peer, after) in post {
        let from = before.get(peer).copied().unwrap_or(Standing::Good);
        if from == *after {
            continue;
        }
        let legal = match (from, *after, cause) {
            // Score-carrying events may raise standing (never lower it).
            (
                Standing::Good | Standing::Probation,
                Standing::Probation | Standing::Quarantined,
                LadderCause::Scored,
            )
            | (Standing::Parole, Standing::Quarantined, LadderCause::Scored) => true,
            // Quarantine only relaxes to parole on that peer's timer.
            (Standing::Quarantined, Standing::Parole, LadderCause::Timer(kind)) => {
                *kind == TimerKind::Quarantine(*peer)
            }
            // Parole only completes to good on that peer's timer.
            (Standing::Parole, Standing::Good, LadderCause::Timer(kind)) => {
                *kind == TimerKind::Parole(*peer)
            }
            _ => false,
        };
        if !legal {
            findings.push(Finding {
                rule: "defense.ladder_violation",
                detail: format!("{book} book moved peer {peer} {from:?} -> {after:?} illegally"),
            });
        }
    }
}
