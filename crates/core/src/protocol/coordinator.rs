//! Coordinator role: request admission, server choice, PPC lists,
//! doppelganger redemption, heartbeats, administration, and §10.3
//! recovery (requeueing jobs stuck on servers whose heartbeat lapsed).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;

use crate::coordinator::{Coordinator, JobId, PeerId};
use crate::doppelganger::DoppelgangerStore;
use crate::protocol::digest::Digest;
use crate::protocol::{
    defense_key, Address, DefenseAction, DefenseBook, DefenseParams, Output, ProtoMsg, TimerKind,
    IPC_KEY_BASE,
};

/// Where a job came from — kept so a requeued job can be re-admitted
/// through the normal path and the initiator re-notified.
struct JobOrigin {
    url: String,
    peer: PeerId,
    local_tag: u64,
    initiator: Address,
}

/// The Coordinator as a sans-IO state machine over the pure
/// [`Coordinator`] bookkeeping core.
pub struct CoordinatorProto {
    /// Whitelist, job issuance, server list, peer registry.
    pub coordinator: Coordinator,
    /// Trained doppelgangers served against bearer tokens.
    pub dopp_store: DoppelgangerStore,
    /// Domain universe doppelgangers are regenerated over.
    pub universe: Vec<String>,
    /// PPCs asked per request (§6.1: "approximately 3").
    pub ppc_per_request: usize,
    /// Period of the [`TimerKind::CoordSweep`] recovery timer.
    pub sweep_every_ms: u64,
    /// Keyed by `BTreeMap` so any future iteration (and the sweep's
    /// requeue order) is job-id order by construction, not hash order.
    origins: BTreeMap<JobId, JobOrigin>,
    /// Deployment-wide misbehavior bookkeeping: local violations plus
    /// Measurement-server escalations ([`ProtoMsg::MisbehaviorReport`]).
    /// Public so drivers can swap in a telemetry-backed book.
    pub defense: DefenseBook,
}

#[deny(clippy::wildcard_enum_match_arm)]
impl CoordinatorProto {
    /// Wraps a configured [`Coordinator`].
    pub fn new(coordinator: Coordinator, ppc_per_request: usize) -> Self {
        CoordinatorProto {
            coordinator,
            dopp_store: DoppelgangerStore::new(),
            universe: Vec::new(),
            ppc_per_request,
            sweep_every_ms: 5_000,
            origins: BTreeMap::new(),
            defense: DefenseBook::new(DefenseParams::default()),
        }
    }

    /// A defense escalation crossed into quarantine: arm the quarantine
    /// timer, and — for real peers (never synthetic IPC keys) — notify
    /// the add-on so the user sees why requests are refused.
    fn escalate(&mut self, action: DefenseAction, out: &mut Vec<Output>) {
        if let DefenseAction::Quarantine { peer } = action {
            out.push(Output::Timer {
                delay_ms: self.defense.params().quarantine_ms,
                kind: TimerKind::Quarantine(peer),
            });
            if peer < IPC_KEY_BASE {
                out.push(Output::send(
                    Address::Peer { id: peer },
                    ProtoMsg::QuarantineNotice { peer },
                ));
            }
        }
    }

    /// Admits one request (fresh or requeued): mints a job, charges the
    /// least-loaded online server, and emits the PPC list + assignment.
    fn admit(&mut self, now_ms: u64, origin: JobOrigin, rng: &mut StdRng, out: &mut Vec<Output>) {
        let JobOrigin {
            url,
            peer,
            local_tag,
            initiator,
        } = origin;
        match self.coordinator.new_request(&url, now_ms) {
            Ok((job, server_idx)) => {
                let server = Address::Server { index: server_idx };
                // Step 1.1: PPC list for the initiator's location. The
                // deployment got whichever same-location peers happened
                // to be online — sample when there is actual choice.
                // With at most `ppc_per_request` candidates the sorted
                // registry order is used as-is, which keeps the list
                // (and hence per-PPC request sequencing) identical
                // across backends.
                let ppcs: Vec<Address> = match self.coordinator.peer(peer) {
                    Some(entry) => {
                        let loc = entry.location.clone();
                        let mut candidates: Vec<PeerId> =
                            self.coordinator.peers_near(&loc, peer, usize::MAX);
                        // Quarantined peers never serve as vantages.
                        candidates.retain(|p| !self.defense.is_quarantined(p.0));
                        let k = self.ppc_per_request.min(candidates.len());
                        if candidates.len() > k {
                            // Partial Fisher-Yates for the first k slots.
                            for i in 0..k {
                                let j = rng.gen_range(i..candidates.len());
                                candidates.swap(i, j);
                            }
                        }
                        candidates.truncate(k);
                        candidates
                            .into_iter()
                            .map(|p| Address::Peer { id: p.0 })
                            .collect()
                    }
                    None => Vec::new(),
                };
                self.origins.insert(
                    job,
                    JobOrigin {
                        url,
                        peer,
                        local_tag,
                        initiator,
                    },
                );
                out.push(Output::send(server, ProtoMsg::PpcList { job, ppcs }));
                out.push(Output::send(
                    initiator,
                    ProtoMsg::CoordAssign {
                        job,
                        server,
                        local_tag,
                    },
                ));
            }
            Err(e) => out.push(Output::send(
                initiator,
                ProtoMsg::CoordReject {
                    local_tag,
                    reason: format!("{e:?}"),
                },
            )),
        }
    }

    /// A timer fired; one armed elsewhere is ignored. On
    /// [`TimerKind::CoordSweep`]: expire lapsed heartbeats, take back jobs
    /// charged to offline servers, and re-admit each through the normal
    /// assignment path (new job id, same initiator tag — the peer's own
    /// tag bookkeeping makes whichever assignment finishes first win).
    pub fn on_timer(
        &mut self,
        now_ms: u64,
        kind: TimerKind,
        rng: &mut StdRng,
        out: &mut Vec<Output>,
    ) {
        match kind {
            TimerKind::Quarantine(peer) => {
                if self.defense.on_quarantine_elapsed(peer) {
                    out.push(Output::Timer {
                        delay_ms: self.defense.params().parole_ms,
                        kind: TimerKind::Parole(peer),
                    });
                }
                return;
            }
            TimerKind::Parole(peer) => {
                self.defense.on_parole_elapsed(peer);
                return;
            }
            TimerKind::CoordSweep => {}
            TimerKind::JobDeadline(_)
            | TimerKind::ProcDone(_)
            | TimerKind::DbDone(_)
            | TimerKind::Heartbeat
            | TimerKind::Retransmit(_) => return,
        }
        self.coordinator.expire_heartbeats(now_ms);
        for job in self.coordinator.take_orphaned_jobs(now_ms) {
            let Some(origin) = self.origins.remove(&job) else {
                continue;
            };
            self.admit(now_ms, origin, rng, out);
        }
        out.push(Output::Timer {
            delay_ms: self.sweep_every_ms,
            kind: TimerKind::CoordSweep,
        });
    }

    /// The driver's reliable channel gave up retransmitting one of this
    /// machine's sends. A `PpcList` or `CoordAssign` that can never be
    /// delivered means the admitted job can never be worked: release
    /// the origin and the server's pending-job charge so neither leaks
    /// (the initiator's own deadline abandons its side independently).
    /// Without this hook a partitioned Measurement server pinned its
    /// origin entries forever — the coordinator-side twin of the peer
    /// `own_pending` leak fixed in PR 5.
    pub fn on_send_abandoned(&mut self, msg: &ProtoMsg) {
        let job = match msg {
            ProtoMsg::PpcList { job, .. } | ProtoMsg::CoordAssign { job, .. } => *job,
            // No other send pins state here.
            ProtoMsg::StartCheck { .. }
            | ProtoMsg::CoordRequest { .. }
            | ProtoMsg::CoordReject { .. }
            | ProtoMsg::JobSubmit { .. }
            | ProtoMsg::FetchOrder { .. }
            | ProtoMsg::FetchReply { .. }
            | ProtoMsg::DoppIdRequest { .. }
            | ProtoMsg::DoppIdReply { .. }
            | ProtoMsg::DoppStateRequest { .. }
            | ProtoMsg::DoppStateReply { .. }
            | ProtoMsg::TokenRotated { .. }
            | ProtoMsg::StoreCheck { .. }
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
            | ProtoMsg::Shutdown => return,
        };
        self.coordinator.job_complete(job);
        self.origins.remove(&job);
    }

    /// Live (admitted, unfinished) job origins — the model checker's
    /// quiescence invariant requires this table to drain once no events
    /// remain.
    pub fn open_origins(&self) -> usize {
        self.origins.len()
    }

    /// Folds the machine's logical state into `d` for model-checker
    /// state canonicalization (doppelganger training state is excluded
    /// — model worlds never train doppelgangers).
    pub fn state_digest(&self, d: &mut Digest) {
        d.write_u64(self.origins.len() as u64);
        for (job, origin) in &self.origins {
            d.write_u64(job.0);
            d.write_str(&origin.url);
            d.write_u64(origin.peer.0);
            d.write_u64(origin.local_tag);
            d.write_str(&format!("{:?}", origin.initiator));
        }
        self.coordinator.state_digest(d);
        self.defense.state_digest(d);
    }

    /// Feeds one delivered message; commands come back through `out`.
    pub fn on_message(
        &mut self,
        now_ms: u64,
        from: Address,
        msg: ProtoMsg,
        rng: &mut StdRng,
        out: &mut Vec<Output>,
    ) {
        match msg {
            ProtoMsg::CoordRequest {
                url,
                peer,
                local_tag,
            } => {
                // Envelope: a peer may only request as itself.
                if let Address::Peer { id } = from {
                    if peer.0 != id {
                        let action = self.defense.note_validation_reject(id);
                        self.escalate(action, out);
                        out.push(Output::send(
                            from,
                            ProtoMsg::CoordReject {
                                local_tag,
                                reason: "request envelope mismatch".into(),
                            },
                        ));
                        return;
                    }
                }
                if let Some(key) = defense_key(from) {
                    if self.defense.is_quarantined(key) {
                        self.defense.note_quarantine_drop();
                        out.push(Output::send(
                            from,
                            ProtoMsg::CoordReject {
                                local_tag,
                                reason: "quarantined".into(),
                            },
                        ));
                        return;
                    }
                    // Outstanding-request quota, derived from the live
                    // origin table so it stays consistent through
                    // requeues and completions with zero extra state.
                    let outstanding = self.origins.values().filter(|o| o.peer == peer).count();
                    if outstanding >= self.defense.params().max_outstanding_requests {
                        let action = self.defense.note_quota_trip(key);
                        self.escalate(action, out);
                        out.push(Output::send(
                            from,
                            ProtoMsg::CoordReject {
                                local_tag,
                                reason: "request quota exceeded".into(),
                            },
                        ));
                        return;
                    }
                }
                self.admit(
                    now_ms,
                    JobOrigin {
                        url,
                        peer,
                        local_tag,
                        initiator: from,
                    },
                    rng,
                    out,
                );
            }
            ProtoMsg::JobComplete { job } => {
                self.coordinator.job_complete(job);
                self.origins.remove(&job);
            }
            ProtoMsg::Heartbeat { server_index } => {
                self.coordinator.heartbeat(server_index, now_ms);
            }
            ProtoMsg::DoppStateRequest { job, token, domain } => {
                if let Some(key) = defense_key(from) {
                    if self.defense.is_quarantined(key) {
                        self.defense.note_quarantine_drop();
                        out.push(Output::send(
                            from,
                            ProtoMsg::DoppStateReply { job, state: None },
                        ));
                        return;
                    }
                    // A token the store never issued is a forgery or a
                    // corrupted replay; an honest post-rotation race
                    // presents a *retired* token and must not score.
                    if !self.dopp_store.is_known(&token) && !self.dopp_store.is_retired(&token) {
                        let action = self.defense.note_dopp_mismatch(key);
                        self.escalate(action, out);
                        out.push(Output::send(
                            from,
                            ProtoMsg::DoppStateReply { job, state: None },
                        ));
                        return;
                    }
                }
                let state = self
                    .dopp_store
                    .serve(&token, &domain, &self.universe, rng)
                    .and_then(|(new_token, _mode)| {
                        if new_token != token {
                            out.push(Output::send(
                                Address::Aggregator,
                                ProtoMsg::TokenRotated {
                                    old: token,
                                    new: new_token,
                                },
                            ));
                        }
                        self.dopp_store.client_state(&new_token).cloned()
                    });
                out.push(Output::send(from, ProtoMsg::DoppStateReply { job, state }));
            }
            ProtoMsg::MisbehaviorReport { peer, score } => {
                // Only Measurement servers may escalate scores; the
                // report rides the reliable channel so lossy links
                // cannot lose it.
                if matches!(from, Address::Server { .. }) {
                    let action = self.defense.note_remote_report(peer, score);
                    self.escalate(action, out);
                }
            }
            ProtoMsg::RemoveServer { index } => {
                self.coordinator.expire_heartbeats(now_ms);
                let removed = self.coordinator.remove_server(index);
                out.push(Output::send(
                    from,
                    ProtoMsg::ServerRemoved { index, removed },
                ));
            }
            // For another role, the channel or the driver.
            ProtoMsg::StartCheck { .. }
            | ProtoMsg::CoordAssign { .. }
            | ProtoMsg::CoordReject { .. }
            | ProtoMsg::PpcList { .. }
            | ProtoMsg::JobSubmit { .. }
            | ProtoMsg::FetchOrder { .. }
            | ProtoMsg::FetchReply { .. }
            | ProtoMsg::DoppIdRequest { .. }
            | ProtoMsg::DoppIdReply { .. }
            | ProtoMsg::DoppStateReply { .. }
            | ProtoMsg::TokenRotated { .. }
            | ProtoMsg::StoreCheck { .. }
            | ProtoMsg::DbAck { .. }
            | ProtoMsg::Results { .. }
            | ProtoMsg::ServerRemoved { .. }
            | ProtoMsg::QuarantineNotice { .. }
            | ProtoMsg::Reliable { .. }
            | ProtoMsg::Ack { .. }
            | ProtoMsg::Shutdown => {}
        }
    }
}
