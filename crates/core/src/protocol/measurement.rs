//! Measurement-server role: fan-out, reply collection, extraction and
//! assembly on a modeled shared CPU, persistence, result streaming.
//!
//! A v2 job that fanned out is watched by one `JobDeadline` timer until
//! it finishes. Its first firing is §10.3's corrective path (assemble
//! with whatever arrived); every later one finds the job waiting for
//! the Database's `DbAck` and sends the `StoreCheck` again. The hop ack
//! of the reliable channel only says the Database *received* a store —
//! a crash between its WAL append and the barrier tears the record off
//! with nobody left to retransmit — so the requester is the one party
//! that can tell a store was lost, and this timer is how it does. Each
//! re-send is a fresh reliable send: against a Database that is gone
//! for good one of them is abandoned and
//! [`MeasurementProto::on_send_abandoned`] finishes the job, which is
//! what ends the loop. (v1 stores on its own CPU queue: its deadline
//! stays the one-shot it always was.)

use std::collections::{btree_map::Entry, BTreeMap, BTreeSet};

use sheriff_currency::FixedRates;
use sheriff_geo::Country;
use sheriff_html::tagspath::TagsPath;
use sheriff_html::{DiffStorage, Document};
use sheriff_market::ProductId;

use crate::coordinator::JobId;
use crate::db::{Database, DbCostModel};
use crate::measurement::{process_document, VantageMeta};
use crate::protocol::digest::Digest;
use crate::protocol::{
    day_of_ms, defense_key, Address, DefenseAction, DefenseBook, DefenseParams, Output, ProtoMsg,
    TimerKind,
};
use crate::records::{PriceCheck, PriceObservation, VantageKind};

/// Observable outcomes of one step. The state machine stays
/// instrumentation-free; `protocol::node::NodeTelemetry` maps these onto
/// counters/histograms/spans, identically on every backend.
#[derive(Clone, Debug, PartialEq)]
pub enum MeasEvent {
    /// A proxy reply arrived in time and was folded into the job.
    ReplyAccepted {
        /// Virtual/real ms since the job's fan-out.
        since_fanout_ms: u64,
    },
    /// A reply arrived after assembly (or for an unknown job).
    ReplyLate,
    /// A second reply from a vantage the job already heard (a
    /// transport-duplicated `FetchReply`); folded into dedup counters.
    ReplyDuplicate,
    /// A half-opened job (its `PpcList`/`JobSubmit` partner never
    /// arrived) was reaped at the deadline and released upstream.
    OrphanReaped {
        /// The reaped job.
        job: JobId,
    },
    /// Extraction/assembly was scheduled on the shared CPU.
    AssemblyScheduled {
        /// Total modeled CPU charge, ms (includes `db_ms` when integrated).
        proc_ms: f64,
        /// v1 integrated-RDBMS share of the charge.
        db_ms: Option<f64>,
        /// Jobs still unassembled after this one left the pool.
        active_jobs: usize,
    },
    /// A job finished: results streamed, completion reported.
    JobFinished {
        /// The finished job.
        job: JobId,
        /// DiffStorage bytes actually stored.
        stored: usize,
        /// Bytes the full pages would have taken.
        full: usize,
        /// Proxy replies received.
        received: usize,
        /// When the fan-out happened (span start).
        fanout_at_ms: u64,
        /// Jobs still unassembled.
        active_jobs: usize,
    },
}

struct JobState {
    domain: String,
    product: ProductId,
    tags_path: TagsPath,
    page_store: DiffStorage,
    observations: Vec<PriceObservation>,
    initiator: Address,
    expected: usize,
    received: usize,
    day: u32,
    fanned_out: bool,
    /// Millisecond time the FetchOrders went out (span start).
    fanout_at_ms: u64,
    ppcs: Option<Vec<Address>>,
    submit: Option<Box<SubmitData>>,
    assembled: bool,
    /// A `StoreCheck` has gone to the Database (v2) and the job waits
    /// for its `DbAck`.
    storing: bool,
    /// When the fan-out watchdog next falls due. A `JobDeadline` that
    /// fires earlier is the creation-time reap timer; one that fires in
    /// the same millisecond as the watchdog finds this already moved on.
    deadline_at_ms: u64,
    /// Vantages already folded in — fetches are not retransmission-
    /// protected, so a fault-duplicated `FetchReply` must be absorbed
    /// here to keep observation sets duplicate-free.
    seen_vantages: BTreeSet<(VantageKind, u64)>,
}

struct SubmitData {
    tags_path: TagsPath,
    initiator_html: String,
    initiator_obs: PriceObservation,
    domain: String,
    product: ProductId,
    initiator: Address,
}

/// Construction parameters for [`MeasurementProto`].
pub struct MeasurementParams {
    /// Index in the Coordinator's server list.
    pub index: usize,
    /// Every IPC to fan out to.
    pub ipcs: Vec<Address>,
    /// Conversion rates for extraction.
    pub rates: FixedRates,
    /// Currency of the result page.
    pub target_currency: String,
    /// Modeled CPU per response processed, ms.
    pub proc_per_reply_ms: f64,
    /// Context-switch degradation per concurrent job.
    pub context_switch_alpha: f64,
    /// Give-up deadline for outstanding fetches, ms.
    pub job_deadline_ms: u64,
    /// Database cost model.
    pub db_cost: DbCostModel,
    /// v1: the RDBMS shares this server's CPU.
    pub integrated_db: bool,
    /// Liveness beacon period, ms.
    pub heartbeat_every_ms: u64,
    /// Expected country per global IPC index (envelope validation).
    /// Empty disables the country check.
    pub ipc_countries: Vec<Country>,
    /// Misbehavior-defense tuning (see [`DefenseBook`]).
    pub defense: DefenseParams,
}

/// The Measurement server as a sans-IO state machine.
pub struct MeasurementProto {
    index: usize,
    ipcs: Vec<Address>,
    /// `BTreeMap` so `active_jobs()` and any sweep over the table see
    /// job-id order, never hash order.
    jobs: BTreeMap<JobId, JobState>,
    rates: FixedRates,
    target_currency: String,
    proc_per_reply_ms: f64,
    context_switch_alpha: f64,
    job_deadline_ms: u64,
    db_cost: DbCostModel,
    integrated_db: bool,
    /// v1 integrated storage (v2 keeps it on the Database server).
    pub database: Database,
    cpu_free_at_ms: u64,
    heartbeat_every_ms: u64,
    ipc_countries: Vec<Country>,
    /// Per-peer misbehavior bookkeeping. Public so drivers can swap in
    /// a telemetry-backed book after construction.
    pub defense: DefenseBook,
}

#[deny(clippy::wildcard_enum_match_arm)]
impl MeasurementProto {
    /// Builds the machine from its parameters.
    pub fn new(params: MeasurementParams) -> Self {
        MeasurementProto {
            index: params.index,
            ipcs: params.ipcs,
            jobs: BTreeMap::new(),
            rates: params.rates,
            target_currency: params.target_currency,
            proc_per_reply_ms: params.proc_per_reply_ms,
            context_switch_alpha: params.context_switch_alpha,
            job_deadline_ms: params.job_deadline_ms,
            db_cost: params.db_cost,
            integrated_db: params.integrated_db,
            database: Database::new(),
            cpu_free_at_ms: 0,
            heartbeat_every_ms: params.heartbeat_every_ms,
            ipc_countries: params.ipc_countries,
            defense: DefenseBook::new(params.defense),
        }
    }

    fn active_jobs(&self) -> usize {
        self.jobs.values().filter(|j| !j.assembled).count()
    }

    fn blank_job(from: Address, now_ms: u64) -> JobState {
        JobState {
            domain: String::new(),
            product: ProductId(0),
            tags_path: TagsPath { steps: vec![] },
            page_store: DiffStorage::new(""),
            observations: Vec::new(),
            initiator: from,
            expected: usize::MAX,
            received: 0,
            day: day_of_ms(now_ms),
            fanned_out: false,
            fanout_at_ms: 0,
            ppcs: None,
            submit: None,
            assembled: false,
            storing: false,
            deadline_at_ms: 0,
            seen_vantages: BTreeSet::new(),
        }
    }

    /// Creates the job entry on first contact and arms an orphan-reap
    /// deadline: if the partner half (`PpcList` vs `JobSubmit`) never
    /// arrives — the initiator aborted its own fetch, or the submit was
    /// lost for good — the half-open entry is reaped instead of leaking.
    /// Returns the (new or existing) entry so callers never re-look-up.
    fn open_job(
        &mut self,
        job: JobId,
        from: Address,
        now_ms: u64,
        out: &mut Vec<Output>,
    ) -> &mut JobState {
        match self.jobs.entry(job) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                out.push(Output::Timer {
                    delay_ms: self.job_deadline_ms,
                    kind: TimerKind::JobDeadline(job),
                });
                entry.insert(Self::blank_job(from, now_ms))
            }
        }
    }

    fn try_fan_out(&mut self, now_ms: u64, job: JobId, out: &mut Vec<Output>) {
        let Some(state) = self.jobs.get_mut(&job) else {
            return;
        };
        if state.fanned_out {
            return;
        }
        // Both halves must be present; `take` only after both are known,
        // or a lone submit would be lost.
        let Some(ppcs) = state.ppcs.clone() else {
            return;
        };
        let Some(submit) = state.submit.take() else {
            return;
        };

        let submit = *submit;
        state.domain = submit.domain.clone();
        state.product = submit.product;
        state.tags_path = submit.tags_path;
        state.page_store = DiffStorage::new(submit.initiator_html);
        state.observations.push(submit.initiator_obs);
        state.initiator = submit.initiator;
        state.fanned_out = true;
        state.fanout_at_ms = now_ms;
        state.deadline_at_ms = now_ms + self.job_deadline_ms;
        state.expected = self.ipcs.len() + ppcs.len();

        for (seq, &vantage) in (job.0 * 100 + 1..).zip(self.ipcs.iter().chain(&ppcs)) {
            out.push(Output::send(
                vantage,
                ProtoMsg::FetchOrder {
                    job,
                    domain: submit.domain.clone(),
                    product: submit.product,
                    seq,
                },
            ));
        }
        out.push(Output::Timer {
            delay_ms: self.job_deadline_ms,
            kind: TimerKind::JobDeadline(job),
        });
    }

    /// All replies in (or deadline): charge CPU for extraction and schedule
    /// the proc-done timer on the shared-CPU queue.
    fn begin_assembly(
        &mut self,
        now_ms: u64,
        job: JobId,
        out: &mut Vec<Output>,
        events: &mut Vec<MeasEvent>,
    ) {
        let active = self.active_jobs();
        let Some(state) = self.jobs.get_mut(&job) else {
            return;
        };
        if state.assembled {
            return;
        }
        state.assembled = true;
        let cs_factor = 1.0 + self.context_switch_alpha * (active.saturating_sub(1)) as f64;
        let mut proc_ms = self.proc_per_reply_ms * (state.received + 1) as f64 * cs_factor;
        let mut db_ms = None;
        if self.integrated_db {
            // v1: the RDBMS shares the CPU — its cost rides the same queue.
            let cost = self.db_cost.store_cost_ms(
                state.observations.len().max(state.received + 1),
                active as u32,
            ) as f64;
            db_ms = Some(cost);
            proc_ms += cost;
        }
        let start = self.cpu_free_at_ms.max(now_ms);
        let done = start + proc_ms.round() as u64;
        self.cpu_free_at_ms = done;
        events.push(MeasEvent::AssemblyScheduled {
            proc_ms,
            db_ms,
            active_jobs: self.active_jobs(),
        });
        out.push(Output::Timer {
            delay_ms: done - now_ms,
            kind: TimerKind::ProcDone(job),
        });
    }

    /// A defense escalation crossed into quarantine: arm the quarantine
    /// timer and report the peer upstream (the Coordinator folds the
    /// score into its own book). At most one quarantine timer is ever
    /// armed per entry — see [`DefenseBook::on_quarantine_elapsed`].
    fn escalate(&mut self, action: DefenseAction, out: &mut Vec<Output>) {
        if let DefenseAction::Quarantine { peer } = action {
            out.push(Output::Timer {
                delay_ms: self.defense.params().quarantine_ms,
                kind: TimerKind::Quarantine(peer),
            });
            out.push(Output::send(
                Address::Coordinator,
                ProtoMsg::MisbehaviorReport {
                    peer,
                    score: self.defense.score(peer),
                },
            ));
        }
    }

    fn finish_job(
        &mut self,
        _now_ms: u64,
        job: JobId,
        out: &mut Vec<Output>,
        events: &mut Vec<MeasEvent>,
    ) {
        let Some(state) = self.jobs.remove(&job) else {
            return;
        };
        self.defense.forget_job(job.0);
        let (stored, full) = state.page_store.storage_accounting();
        events.push(MeasEvent::JobFinished {
            job,
            stored,
            full,
            received: state.received,
            fanout_at_ms: state.fanout_at_ms,
            active_jobs: self.active_jobs(),
        });
        let check = PriceCheck {
            job_id: job.0,
            domain: state.domain.clone(),
            url: format!("{}/product/{}", state.domain, state.product.0),
            day: state.day,
            observations: state.observations,
        };
        if self.integrated_db {
            self.database.store(check.clone());
        }
        out.push(Output::send(
            Address::Coordinator,
            ProtoMsg::JobComplete { job },
        ));
        out.push(Output::send(
            state.initiator,
            ProtoMsg::Results {
                job,
                check: Box::new(check),
            },
        ));
    }

    /// Feeds one delivered message; commands through `out`, observable
    /// outcomes through `events`.
    pub fn on_message(
        &mut self,
        now_ms: u64,
        from: Address,
        msg: ProtoMsg,
        out: &mut Vec<Output>,
        events: &mut Vec<MeasEvent>,
    ) {
        match msg {
            ProtoMsg::PpcList { job, ppcs } => {
                let state = self.open_job(job, from, now_ms, out);
                state.ppcs = Some(ppcs);
                self.try_fan_out(now_ms, job, out);
            }
            ProtoMsg::JobSubmit {
                job,
                domain,
                product,
                tags_path,
                initiator_html,
                initiator_obs,
            } => {
                let state = self.open_job(job, from, now_ms, out);
                state.submit = Some(Box::new(SubmitData {
                    tags_path,
                    initiator_html,
                    initiator_obs: *initiator_obs,
                    domain,
                    product,
                    initiator: from,
                }));
                self.try_fan_out(now_ms, job, out);
            }
            ProtoMsg::FetchReply { job, meta, html } => {
                // Defense gate 0: quarantined vantages contribute nothing.
                let sender = defense_key(from);
                if let Some(peer) = sender {
                    if self.defense.is_quarantined(peer) {
                        self.defense.note_quarantine_drop();
                        return;
                    }
                }
                let Some(state) = self.jobs.get_mut(&job) else {
                    events.push(MeasEvent::ReplyLate); // after deadline assembly
                    return;
                };
                if state.assembled {
                    events.push(MeasEvent::ReplyLate);
                    return;
                }
                // Defense gate 1: per-(vantage, job) reply quota — flood
                // copies beyond the bucket trip it and are never parsed.
                if let Some(peer) = sender {
                    if !self.defense.spend_reply_token(peer, job.0) {
                        let action = self.defense.note_quota_trip(peer);
                        self.escalate(action, out);
                        return;
                    }
                }
                // Defense gate 2: envelope validation before any state
                // mutation — the claimed vantage identity must match the
                // transport-level source.
                if validate_envelope(from, &meta, state.ppcs.as_deref(), &self.ipc_countries)
                    .is_err()
                {
                    if let Some(peer) = sender {
                        let action = self.defense.note_validation_reject(peer);
                        self.escalate(action, out);
                    }
                    return;
                }
                if !state.seen_vantages.insert((meta.kind, meta.id)) {
                    events.push(MeasEvent::ReplyDuplicate);
                    return;
                }
                // Defense gate 3: price plausibility against the
                // initiator's own observation (equivocated or replayed
                // pages carry wildly skewed amounts), then the per-peer
                // influence budget. Either rejection still counts the
                // vantage as heard so honest jobs never stall on a
                // Byzantine peer's slot.
                let obs = process_document(
                    &Document::parse(&html),
                    &state.tags_path,
                    &meta,
                    &self.target_currency,
                    &self.rates,
                );
                let band = self.defense.params().plausibility_band;
                let mut admit = plausible(&obs, state.observations.first(), band);
                if !admit {
                    if let Some(peer) = sender {
                        let action = self.defense.note_validation_reject(peer);
                        self.escalate(action, out);
                    }
                } else if let Some(peer) = sender {
                    let (ok, action) = self.defense.admit_observation(peer);
                    admit = ok;
                    self.escalate(action, out);
                }
                let Some(state) = self.jobs.get_mut(&job) else {
                    return;
                };
                if admit {
                    events.push(MeasEvent::ReplyAccepted {
                        since_fanout_ms: now_ms.saturating_sub(state.fanout_at_ms),
                    });
                    state.page_store.store(&html);
                    state.observations.push(obs);
                }
                state.received += 1;
                if state.received >= state.expected {
                    self.begin_assembly(now_ms, job, out, events);
                }
            }
            ProtoMsg::DbAck { job } => self.finish_job(now_ms, job, out, events),
            // For another role, the channel or the driver.
            ProtoMsg::StartCheck { .. }
            | ProtoMsg::CoordRequest { .. }
            | ProtoMsg::CoordAssign { .. }
            | ProtoMsg::CoordReject { .. }
            | ProtoMsg::FetchOrder { .. }
            | ProtoMsg::DoppIdRequest { .. }
            | ProtoMsg::DoppIdReply { .. }
            | ProtoMsg::DoppStateRequest { .. }
            | ProtoMsg::DoppStateReply { .. }
            | ProtoMsg::TokenRotated { .. }
            | ProtoMsg::StoreCheck { .. }
            | ProtoMsg::JobComplete { .. }
            | ProtoMsg::Results { .. }
            | ProtoMsg::Heartbeat { .. }
            | ProtoMsg::RemoveServer { .. }
            | ProtoMsg::ServerRemoved { .. }
            | ProtoMsg::MisbehaviorReport { .. }
            | ProtoMsg::QuarantineNotice { .. }
            | ProtoMsg::Reliable { .. }
            | ProtoMsg::Ack { .. }
            | ProtoMsg::Shutdown => {}
        }
    }

    /// Feeds one fired timer.
    pub fn on_timer(
        &mut self,
        now_ms: u64,
        kind: TimerKind,
        out: &mut Vec<Output>,
        events: &mut Vec<MeasEvent>,
    ) {
        match kind {
            TimerKind::Heartbeat => {
                out.push(Output::send(
                    Address::Coordinator,
                    ProtoMsg::Heartbeat {
                        server_index: self.index,
                    },
                ));
                out.push(Output::Timer {
                    delay_ms: self.heartbeat_every_ms,
                    kind: TimerKind::Heartbeat,
                });
            }
            TimerKind::JobDeadline(job) => {
                // A finished job is simply not found: the happy path
                // ends here, arming and sending nothing.
                let Some(s) = self.jobs.get_mut(&job) else {
                    return;
                };
                // Half-open at the deadline: the partner message never
                // arrived. Reap the entry and release the job upstream
                // (the initiator's own abort may have released it
                // already; `job_complete` is idempotent).
                if !s.fanned_out {
                    self.jobs.remove(&job);
                    self.defense.forget_job(job.0);
                    out.push(Output::send(
                        Address::Coordinator,
                        ProtoMsg::JobComplete { job },
                    ));
                    events.push(MeasEvent::OrphanReaped { job });
                    return;
                }
                // Only the watchdog acts; the creation-time reap timer
                // of a job that did fan out is not a deadline.
                if now_ms < s.deadline_at_ms {
                    return;
                }
                s.deadline_at_ms = now_ms + self.job_deadline_ms;
                if s.storing {
                    // Hop-acked but never `DbAck`ed for a whole deadline:
                    // the store may have been torn off by a Database
                    // crash. The Database absorbs a duplicate.
                    out.push(store_check(job, s));
                } else {
                    // Assemble with whatever arrived (§10.3's corrective
                    // path); a job already waiting for the CPU stays put.
                    self.begin_assembly(now_ms, job, out, events);
                }
                // v1 stores inside `finish_job`: no store to lose, and
                // `ProcDone` covers the job from assembly on.
                if !self.integrated_db {
                    out.push(Output::Timer {
                        delay_ms: self.job_deadline_ms,
                        kind: TimerKind::JobDeadline(job),
                    });
                }
            }
            TimerKind::ProcDone(job) => {
                if self.integrated_db {
                    // DB cost already charged on the CPU queue.
                    self.finish_job(now_ms, job, out, events);
                } else if let Some(state) = self.jobs.get_mut(&job) {
                    state.storing = true;
                    out.push(store_check(job, state));
                }
            }
            TimerKind::Quarantine(peer) => {
                if self.defense.on_quarantine_elapsed(peer) {
                    out.push(Output::Timer {
                        delay_ms: self.defense.params().parole_ms,
                        kind: TimerKind::Parole(peer),
                    });
                }
            }
            TimerKind::Parole(peer) => self.defense.on_parole_elapsed(peer),
            // Retransmit timers belong to the driver's reliable channel,
            // the sweep to the Coordinator, `DbDone` to the Database.
            TimerKind::Retransmit(_) | TimerKind::CoordSweep | TimerKind::DbDone(_) => {}
        }
    }

    /// The server came back from a crash with its state intact but its
    /// timers deferred and the Coordinator possibly counting it dead:
    /// beacon immediately so it is marked online again without waiting
    /// out the (deferred) periodic heartbeat.
    pub fn on_restart(&mut self, _now_ms: u64, out: &mut Vec<Output>) {
        out.push(Output::send(
            Address::Coordinator,
            ProtoMsg::Heartbeat {
                server_index: self.index,
            },
        ));
    }

    /// The driver's reliable channel gave up retransmitting one of this
    /// machine's sends. Only a `StoreCheck` pins job state here: one
    /// copy went unacknowledged through its whole retransmit budget, so
    /// the Database is taken for gone and the job is finished locally
    /// (results still stream to the initiator — the observations exist;
    /// only durable storage was lost, which the next day's check
    /// re-measures anyway). This is also what stops the deadline's
    /// re-sends. Any other abandoned payload pins nothing.
    pub fn on_send_abandoned(
        &mut self,
        now_ms: u64,
        msg: &ProtoMsg,
        out: &mut Vec<Output>,
        events: &mut Vec<MeasEvent>,
    ) {
        match msg {
            ProtoMsg::StoreCheck { job, .. } => self.finish_job(now_ms, *job, out, events),
            ProtoMsg::StartCheck { .. }
            | ProtoMsg::CoordRequest { .. }
            | ProtoMsg::CoordAssign { .. }
            | ProtoMsg::CoordReject { .. }
            | ProtoMsg::PpcList { .. }
            | ProtoMsg::JobSubmit { .. }
            | ProtoMsg::FetchOrder { .. }
            | ProtoMsg::FetchReply { .. }
            | ProtoMsg::DoppIdRequest { .. }
            | ProtoMsg::DoppIdReply { .. }
            | ProtoMsg::DoppStateRequest { .. }
            | ProtoMsg::DoppStateReply { .. }
            | ProtoMsg::TokenRotated { .. }
            | ProtoMsg::DbAck { .. }
            | ProtoMsg::JobComplete { .. }
            | ProtoMsg::Results { .. }
            | ProtoMsg::Heartbeat { .. }
            | ProtoMsg::RemoveServer { .. }
            | ProtoMsg::ServerRemoved { .. }
            | ProtoMsg::MisbehaviorReport { .. }
            | ProtoMsg::QuarantineNotice { .. }
            | ProtoMsg::Reliable { .. }
            | ProtoMsg::Ack { .. }
            | ProtoMsg::Shutdown => {}
        }
    }

    /// Open (unfinished) jobs. The model checker requires each to be
    /// covered by an armed `JobDeadline`/`ProcDone` timer, and the table
    /// to drain once no events remain.
    pub fn open_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.jobs.keys().copied()
    }

    /// True when any job folded in two observations from the same
    /// `(kind, id)` vantage — the duplicate-observation invariant the
    /// `seen_vantages` dedup exists to uphold.
    pub fn has_duplicate_vantage(&self) -> bool {
        self.jobs.values().any(|s| {
            let mut seen = BTreeSet::new();
            s.observations
                .iter()
                .any(|o| !seen.insert((o.vantage, o.vantage_id)))
        })
    }

    /// Folds the machine's logical state into `d` for model-checker
    /// state canonicalization. Absolute-time fields (`fanout_at_ms`,
    /// `cpu_free_at_ms`, per-record stamps) are excluded: behavior
    /// depends on them only through timer order, which the checker
    /// digests separately as a relative sequence.
    pub fn state_digest(&self, d: &mut Digest) {
        d.write_u64(self.jobs.len() as u64);
        for (job, s) in &self.jobs {
            d.write_u64(job.0);
            d.write_str(&s.domain);
            d.write_str(&format!("{:?}", s.product));
            d.write_str(&format!("{:?}", s.initiator));
            d.write_u64(s.received as u64);
            d.write_u64(s.expected as u64);
            d.write_u64(u64::from(s.day));
            d.write_bool(s.fanned_out);
            d.write_bool(s.assembled);
            d.write_bool(s.storing);
            d.write_bool(s.submit.is_some());
            d.write_u64(s.observations.len() as u64);
            for o in &s.observations {
                d.write_str(&format!(
                    "{:?}/{}/{}",
                    o.vantage, o.vantage_id, o.amount_eur
                ));
            }
            d.write_u64(s.seen_vantages.len() as u64);
            for (kind, id) in &s.seen_vantages {
                d.write_str(&format!("{kind:?}"));
                d.write_u64(*id);
            }
            match &s.ppcs {
                None => d.write_bool(false),
                Some(ppcs) => {
                    d.write_bool(true);
                    d.write_u64(ppcs.len() as u64);
                    for p in ppcs {
                        d.write_str(&format!("{p:?}"));
                    }
                }
            }
        }
        d.write_u64(self.database.len() as u64);
        self.defense.state_digest(d);
    }
}

/// The `StoreCheck` carrying what `job` has observed so far.
fn store_check(job: JobId, state: &JobState) -> Output {
    let check = PriceCheck {
        job_id: job.0,
        domain: state.domain.clone(),
        url: format!("{}/product/{}", state.domain, state.product.0),
        day: state.day,
        observations: state.observations.clone(),
    };
    Output::send(
        Address::Database,
        ProtoMsg::StoreCheck {
            job,
            check: Box::new(check),
        },
    )
}

/// Envelope validation for a fetch reply: the claimed vantage identity
/// (kind, id, country) must be consistent with the transport-level
/// source address, and peers must actually be on the job's PPC list.
/// Runs before any job-state mutation.
fn validate_envelope(
    from: Address,
    meta: &VantageMeta,
    ppcs: Option<&[Address]>,
    ipc_countries: &[Country],
) -> Result<(), &'static str> {
    match from {
        Address::Peer { id } => {
            if meta.kind != VantageKind::Ppc {
                return Err("peer reply claiming a non-PPC vantage");
            }
            if meta.id != id {
                return Err("vantage id does not match the sending peer");
            }
            match ppcs {
                Some(list) if list.contains(&from) => Ok(()),
                _ => Err("sender is not on the job's PPC list"),
            }
        }
        Address::Ipc { index } => {
            if meta.kind != VantageKind::Ipc {
                return Err("IPC reply claiming a non-IPC vantage");
            }
            if meta.id != index as u64 {
                return Err("vantage id does not match the sending IPC");
            }
            if ipc_countries.is_empty() {
                return Ok(()); // country check disabled
            }
            match ipc_countries.get(index) {
                Some(c) if *c == meta.country => Ok(()),
                Some(_) => Err("IPC reply outside its geographic envelope"),
                None => Err("unknown IPC index"),
            }
        }
        _ => Err("fetch reply from a non-vantage role"),
    }
}

/// Price plausibility: an extracted amount more than `band`× away from
/// the initiator's own observation (either direction) is rejected.
/// Failed fetches (CAPTCHA pages) and missing baselines pass — honest
/// blocking must never score.
fn plausible(obs: &PriceObservation, initiator: Option<&PriceObservation>, band: f64) -> bool {
    let Some(base) = initiator else {
        return true;
    };
    if obs.failed || base.failed {
        return true;
    }
    let (a, b) = (obs.amount_eur, base.amount_eur);
    if a <= 0.0 || b <= 0.0 {
        return true;
    }
    let ratio = if a > b { a / b } else { b / a };
    ratio <= band
}
