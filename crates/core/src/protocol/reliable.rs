//! At-least-once delivery for control messages, sans-IO.
//!
//! The §3.2 protocol machines assume their transport never loses a
//! message; the paper's deployment learned otherwise (flaky volunteer
//! browsers, §10.3). [`Channel`] restores that assumption *under* the
//! machines: each node owns one, the driver routes every outbound
//! [`Output::Send`] through [`Channel::harden`] (which wraps eligible
//! messages in a [`ProtoMsg::Reliable`] envelope and arms a retransmit
//! timer) and every inbound message through [`Channel::accept`] (which
//! acknowledges, deduplicates, and unwraps). Because the channel is as
//! sans-IO as the machines it protects, the DES and TCP backends share
//! it verbatim.
//!
//! Invariants:
//!
//! * **At-least-once**: a wrapped message is retransmitted on an
//!   exponential backoff schedule until acknowledged or the attempt
//!   budget is spent (`protocol.retransmit_gave_up` counts the latter).
//! * **Idempotent receive**: retransmits and transport-duplicated
//!   copies carry the same `(sender, seq)` pair; the per-sender dedup
//!   window absorbs both (`protocol.dedup_hits`).
//! * **Deterministic**: backoff jitter is hashed from `(seq, attempt)`,
//!   never drawn from an RNG, so both backends arm identical timers.
//!
//! Exempt from wrapping (see [`needs_reliability`]): page fetches
//! (`FetchOrder`/`FetchReply`), whose loss is governed by the job
//! deadline; periodic `Heartbeat`s, which are their own retry loop;
//! and the control plane (`StartCheck`, `RemoveServer`), which is
//! injected from outside the protocol.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sheriff_netsim::fault::splitmix64;
use sheriff_telemetry::{Counter, Registry};

use crate::protocol::digest::Digest;
use crate::protocol::{Address, Output, ProtoMsg, TimerKind};

/// Tuning knobs for a [`Channel`].
#[derive(Clone, Copy, Debug)]
pub struct ReliableConfig {
    /// Delay before the first retransmission (ms).
    pub base_backoff_ms: u64,
    /// Ceiling on any single backoff interval (ms).
    pub max_backoff_ms: u64,
    /// Retransmission attempts before giving up.
    pub max_attempts: u32,
    /// How far behind the highest seen sequence number a late arrival
    /// may trail before it is assumed to be a duplicate.
    pub dedup_window: u64,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            base_backoff_ms: 400,
            max_backoff_ms: 10_000,
            max_attempts: 16,
            dedup_window: 1024,
        }
    }
}

struct PendingSend {
    to: Address,
    /// The full `Reliable` envelope, ready to re-send verbatim.
    envelope: ProtoMsg,
    attempts: u32,
}

#[derive(Default)]
struct DedupWindow {
    max_seen: u64,
    seen: BTreeSet<u64>,
}

struct ChannelTelemetry {
    retransmits: Arc<Counter>,
    dedup_hits: Arc<Counter>,
    acks: Arc<Counter>,
    gave_up: Arc<Counter>,
}

/// One node's end of the at-least-once layer. See the module docs.
pub struct Channel {
    cfg: ReliableConfig,
    next_seq: u64,
    unacked: BTreeMap<u64, PendingSend>,
    windows: BTreeMap<Address, DedupWindow>,
    telemetry: Option<ChannelTelemetry>,
}

/// Whether the channel wraps this message in a reliable envelope.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn needs_reliability(msg: &ProtoMsg) -> bool {
    match msg {
        ProtoMsg::StartCheck { .. }
        | ProtoMsg::FetchOrder { .. }
        | ProtoMsg::FetchReply { .. }
        | ProtoMsg::Heartbeat { .. }
        | ProtoMsg::RemoveServer { .. }
        | ProtoMsg::Reliable { .. }
        | ProtoMsg::Ack { .. } => false,
        ProtoMsg::CoordRequest { .. }
        | ProtoMsg::CoordAssign { .. }
        | ProtoMsg::CoordReject { .. }
        | ProtoMsg::PpcList { .. }
        | ProtoMsg::JobSubmit { .. }
        | ProtoMsg::DoppIdRequest { .. }
        | ProtoMsg::DoppIdReply { .. }
        | ProtoMsg::DoppStateRequest { .. }
        | ProtoMsg::DoppStateReply { .. }
        | ProtoMsg::TokenRotated { .. }
        | ProtoMsg::StoreCheck { .. }
        | ProtoMsg::DbAck { .. }
        | ProtoMsg::JobComplete { .. }
        | ProtoMsg::Results { .. }
        | ProtoMsg::ServerRemoved { .. }
        | ProtoMsg::MisbehaviorReport { .. }
        | ProtoMsg::QuarantineNotice { .. } => true,
    }
}

impl Channel {
    /// A channel with the given tuning.
    pub fn new(cfg: ReliableConfig) -> Channel {
        Channel {
            cfg,
            next_seq: 0,
            unacked: BTreeMap::new(),
            windows: BTreeMap::new(),
            telemetry: None,
        }
    }

    /// Registers the channel's counters (`protocol.*`) in `registry`.
    /// All channels of one deployment share the same counter names, so
    /// the registry aggregates across nodes.
    pub fn with_telemetry(mut self, registry: &Arc<Registry>) -> Channel {
        self.telemetry = Some(ChannelTelemetry {
            retransmits: registry.counter("protocol.retransmits"),
            dedup_hits: registry.counter("protocol.dedup_hits"),
            acks: registry.counter("protocol.acks"),
            gave_up: registry.counter("protocol.retransmit_gave_up"),
        });
        self
    }

    /// Sequence numbers still awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// The unacknowledged sequence numbers themselves, in order. Each
    /// one is a live retransmit obligation: the model checker's
    /// timer-linearity invariant requires an armed
    /// [`TimerKind::Retransmit`] covering every entry.
    pub fn unacked_seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.unacked.keys().copied()
    }

    /// Post-processes a machine's outputs: eligible sends are wrapped in
    /// a [`ProtoMsg::Reliable`] envelope and a retransmit timer is armed
    /// for each. Call after every `on_message`/`on_timer` invocation,
    /// before dispatching the outputs to the transport.
    pub fn harden(&mut self, out: &mut Vec<Output>) {
        let mut timers = Vec::new();
        for o in out.iter_mut() {
            let Output::Send { to, msg } = o else {
                continue;
            };
            if !needs_reliability(msg) {
                continue;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let inner = std::mem::replace(msg, ProtoMsg::Ack { seq });
            *msg = ProtoMsg::Reliable {
                seq,
                inner: Box::new(inner),
            };
            self.unacked.insert(
                seq,
                PendingSend {
                    to: *to,
                    envelope: msg.clone(),
                    attempts: 0,
                },
            );
            timers.push(Output::Timer {
                delay_ms: self.backoff(seq, 0),
                kind: TimerKind::Retransmit(seq),
            });
        }
        out.extend(timers);
    }

    /// Pre-processes an inbound message. Returns the payload to hand to
    /// the machine, or `None` when the channel consumed it (an ack, or a
    /// duplicate). Acks and dedup acknowledgements are pushed onto `out`
    /// (and are themselves exempt from wrapping).
    pub fn accept(
        &mut self,
        from: Address,
        msg: ProtoMsg,
        out: &mut Vec<Output>,
    ) -> Option<ProtoMsg> {
        match msg {
            ProtoMsg::Ack { seq } => {
                if self.unacked.remove(&seq).is_some() {
                    if let Some(t) = &self.telemetry {
                        t.acks.inc();
                    }
                }
                None
            }
            ProtoMsg::Reliable { seq, inner } => {
                // Always re-ack: the sender may have missed the first one.
                out.push(Output::send(from, ProtoMsg::Ack { seq }));
                if self.record(from, seq) {
                    Some(*inner)
                } else {
                    if let Some(t) = &self.telemetry {
                        t.dedup_hits.inc();
                    }
                    None
                }
            }
            other => Some(other),
        }
    }

    /// A [`TimerKind::Retransmit`] fired: re-send if still unacked and
    /// within budget, re-arming the next backoff.
    ///
    /// When the budget is exhausted the channel stops trying and
    /// returns the abandoned `(destination, payload)` — unwrapped from
    /// its envelope — so the owning machine can release any bookkeeping
    /// pinned on that send. Silently dropping it here is how a peer's
    /// `own_pending`/`dopp_pending` entries used to leak forever under
    /// sustained partitions.
    pub fn on_retransmit(
        &mut self,
        seq: u64,
        out: &mut Vec<Output>,
    ) -> Option<(Address, ProtoMsg)> {
        let Some(pending) = self.unacked.get_mut(&seq) else {
            return None; // acknowledged in the meantime — timer is moot
        };
        pending.attempts += 1;
        if pending.attempts > self.cfg.max_attempts {
            let abandoned = self.unacked.remove(&seq)?;
            if let Some(t) = &self.telemetry {
                t.gave_up.inc();
            }
            let inner = match abandoned.envelope {
                ProtoMsg::Reliable { inner, .. } => *inner,
                other => other,
            };
            return Some((abandoned.to, inner));
        }
        let attempts = pending.attempts;
        out.push(Output::Send {
            to: pending.to,
            msg: pending.envelope.clone(),
        });
        out.push(Output::Timer {
            delay_ms: self.backoff(seq, attempts),
            kind: TimerKind::Retransmit(seq),
        });
        if let Some(t) = &self.telemetry {
            t.retransmits.inc();
        }
        None
    }

    /// Models a process restart (§10.3 crash recovery): in-flight sends
    /// and receive-side dedup windows are volatile and cleared, so a
    /// peer's retransmit of a pre-crash message is accepted again (the
    /// machine's own idempotency layer absorbs true duplicates). The
    /// outbound sequence counter is *retained* — conceptually persisted
    /// alongside the node's durable state — so post-restart sends never
    /// collide with pre-crash sequence numbers still sitting in peers'
    /// dedup windows. Returns the number of in-flight sends abandoned.
    pub fn on_restart(&mut self) -> usize {
        let dropped = self.unacked.len();
        self.unacked.clear();
        self.windows.clear();
        dropped
    }

    /// Folds the channel's logical state into `d` for model-checker
    /// state canonicalization. Envelope payloads are folded via their
    /// `Debug` rendering, which is stable (derived, field order fixed)
    /// and total. No timing state lives here — backoff schedules are
    /// a pure function of `(seq, attempt)` — so the digest is already
    /// time-translation invariant.
    pub fn state_digest(&self, d: &mut Digest) {
        d.write_u64(self.next_seq);
        d.write_u64(self.unacked.len() as u64);
        for (seq, p) in &self.unacked {
            d.write_u64(*seq);
            p.to.fold_digest(d);
            d.write_u64(u64::from(p.attempts));
            p.envelope.fold_digest(d);
        }
        d.write_u64(self.windows.len() as u64);
        for (addr, w) in &self.windows {
            addr.fold_digest(d);
            d.write_u64(w.max_seen);
            d.write_u64(w.seen.len() as u64);
            for s in &w.seen {
                d.write_u64(*s);
            }
        }
    }

    /// True when `(from, seq)` is fresh; false for duplicates.
    fn record(&mut self, from: Address, seq: u64) -> bool {
        let w = self.windows.entry(from).or_default();
        let floor = w.max_seen.saturating_sub(self.cfg.dedup_window);
        if (seq < floor && w.max_seen > 0) || w.seen.contains(&seq) {
            return false;
        }
        w.seen.insert(seq);
        w.max_seen = w.max_seen.max(seq);
        let new_floor = w.max_seen.saturating_sub(self.cfg.dedup_window);
        while let Some(&lo) = w.seen.iter().next() {
            if lo >= new_floor {
                break;
            }
            w.seen.remove(&lo);
        }
        true
    }

    /// Exponential backoff with deterministic jitter: doubling from the
    /// base, capped, plus a hash-of-`(seq, attempt)` spread of up to a
    /// quarter interval so synchronized losses don't retransmit in
    /// lockstep. No RNG — both backends arm identical delays.
    fn backoff(&self, seq: u64, attempt: u32) -> u64 {
        let doubled = self
            .cfg
            .base_backoff_ms
            .saturating_mul(1 << attempt.min(16))
            .min(self.cfg.max_backoff_ms);
        let spread = (doubled / 4).max(1);
        let jitter = splitmix64(seq.wrapping_mul(0x9E37_79B9) ^ u64::from(attempt)) % spread;
        doubled.saturating_add(jitter).min(self.cfg.max_backoff_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::JobId;

    fn chan() -> Channel {
        Channel::new(ReliableConfig {
            base_backoff_ms: 100,
            max_backoff_ms: 1000,
            max_attempts: 3,
            dedup_window: 8,
        })
    }

    fn job_complete(job: u64) -> ProtoMsg {
        ProtoMsg::JobComplete { job: JobId(job) }
    }

    fn sent_to_coordinator(msg: ProtoMsg) -> Vec<Output> {
        vec![Output::send(Address::Coordinator, msg)]
    }

    #[test]
    fn harden_wraps_eligible_sends_and_arms_a_timer() {
        let mut c = chan();
        let mut out = sent_to_coordinator(job_complete(1));
        c.harden(&mut out);
        assert_eq!(out.len(), 2);
        assert!(matches!(
            &out[0],
            Output::Send {
                msg: ProtoMsg::Reliable { seq: 0, .. },
                ..
            }
        ));
        assert!(matches!(
            &out[1],
            Output::Timer {
                kind: TimerKind::Retransmit(0),
                ..
            }
        ));
        assert_eq!(c.in_flight(), 1);
    }

    #[test]
    fn exempt_messages_pass_through_unwrapped() {
        let mut c = chan();
        let mut out = vec![Output::send(
            Address::Server { index: 0 },
            ProtoMsg::Heartbeat { server_index: 0 },
        )];
        c.harden(&mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0],
            Output::Send {
                msg: ProtoMsg::Heartbeat { .. },
                ..
            }
        ));
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn accept_acks_unwraps_and_dedups() {
        let mut sender = chan();
        let mut receiver = chan();
        let mut out = sent_to_coordinator(job_complete(7));
        sender.harden(&mut out);
        let Output::Send { msg, .. } = &out[0] else {
            panic!("send first");
        };

        // First copy: unwrapped and acked.
        let mut rx_out = Vec::new();
        let got = receiver.accept(Address::Server { index: 0 }, msg.clone(), &mut rx_out);
        assert_eq!(got, Some(job_complete(7)));
        assert!(matches!(
            &rx_out[0],
            Output::Send {
                msg: ProtoMsg::Ack { seq: 0 },
                ..
            }
        ));

        // Duplicate copy: swallowed, but re-acked.
        let mut rx_out2 = Vec::new();
        let dup = receiver.accept(Address::Server { index: 0 }, msg.clone(), &mut rx_out2);
        assert_eq!(dup, None);
        assert_eq!(rx_out2.len(), 1, "duplicate still acknowledged");

        // The ack clears the sender's pending entry.
        let Output::Send { msg: ack, .. } = rx_out.remove(0) else {
            panic!("ack is a send");
        };
        let mut tx_out = Vec::new();
        assert_eq!(sender.accept(Address::Coordinator, ack, &mut tx_out), None);
        assert_eq!(sender.in_flight(), 0);
    }

    #[test]
    fn same_seq_from_different_senders_is_not_a_duplicate() {
        let mut receiver = chan();
        let envelope = ProtoMsg::Reliable {
            seq: 0,
            inner: Box::new(job_complete(1)),
        };
        let mut out = Vec::new();
        assert!(receiver
            .accept(Address::Server { index: 0 }, envelope.clone(), &mut out)
            .is_some());
        assert!(receiver
            .accept(Address::Server { index: 1 }, envelope, &mut out)
            .is_some());
    }

    #[test]
    fn retransmits_back_off_then_give_up() {
        let mut c = chan();
        let mut out = sent_to_coordinator(job_complete(1));
        c.harden(&mut out);
        let mut delays = Vec::new();
        for _ in 0..3 {
            let mut rt = Vec::new();
            c.on_retransmit(0, &mut rt);
            assert_eq!(rt.len(), 2, "resend + next timer");
            let Output::Timer { delay_ms, .. } = rt[1] else {
                panic!("timer second");
            };
            delays.push(delay_ms);
        }
        assert!(delays[0] < delays[1] && delays[1] < delays[2], "{delays:?}");
        // Fourth firing exceeds max_attempts: drop the pending entry and
        // hand the abandoned payload (unwrapped) back to the machine.
        let mut rt = Vec::new();
        let abandoned = c.on_retransmit(0, &mut rt);
        assert!(rt.is_empty());
        assert_eq!(c.in_flight(), 0);
        let (to, inner) = abandoned.expect("give-up reports the dropped send");
        assert_eq!(to, Address::Coordinator);
        assert_eq!(inner, job_complete(1));
    }

    #[test]
    fn retransmit_after_ack_is_a_noop() {
        let mut c = chan();
        let mut out = sent_to_coordinator(job_complete(1));
        c.harden(&mut out);
        let mut tx = Vec::new();
        c.accept(Address::Coordinator, ProtoMsg::Ack { seq: 0 }, &mut tx);
        let mut rt = Vec::new();
        c.on_retransmit(0, &mut rt);
        assert!(rt.is_empty());
    }

    #[test]
    fn dedup_window_prunes_but_still_rejects_far_stragglers() {
        let mut c = chan();
        let from = Address::Peer { id: 1 };
        let mut out = Vec::new();
        for seq in 0..32 {
            let env = ProtoMsg::Reliable {
                seq,
                inner: Box::new(job_complete(seq)),
            };
            assert!(c.accept(from, env, &mut out).is_some());
        }
        // Window is 8: seq 2 fell off the window but is still stale.
        let stale = ProtoMsg::Reliable {
            seq: 2,
            inner: Box::new(job_complete(2)),
        };
        assert!(c.accept(from, stale, &mut out).is_none());
        // In-window duplicate too.
        let dup = ProtoMsg::Reliable {
            seq: 30,
            inner: Box::new(job_complete(30)),
        };
        assert!(c.accept(from, dup, &mut out).is_none());
    }

    #[test]
    fn restart_clears_windows_but_keeps_the_seq_counter() {
        let mut sender = chan();
        let mut receiver = chan();
        let mut out = sent_to_coordinator(job_complete(1));
        sender.harden(&mut out);
        let Output::Send { msg, .. } = out.remove(0) else {
            panic!("send first");
        };
        let from = Address::Server { index: 0 };
        let mut rx = Vec::new();
        assert!(receiver.accept(from, msg.clone(), &mut rx).is_some());
        assert!(receiver.accept(from, msg.clone(), &mut rx).is_none());

        // The receiver restarts: its dedup window is volatile, so the
        // sender's retransmit is delivered again (the machine dedups).
        receiver.on_restart();
        assert!(receiver.accept(from, msg, &mut rx).is_some());

        // The sender restarts: in-flight sends are abandoned but the
        // sequence counter survives, so the next send cannot collide
        // with seq 0 still in the receiver's window.
        let mut out2 = sent_to_coordinator(job_complete(2));
        sender.harden(&mut out2);
        assert_eq!(sender.on_restart(), 2);
        let mut out3 = sent_to_coordinator(job_complete(3));
        sender.harden(&mut out3);
        assert!(matches!(
            &out3[0],
            Output::Send {
                msg: ProtoMsg::Reliable { seq: 2, .. },
                ..
            }
        ));
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let c = chan();
        for attempt in 0..10 {
            let a = c.backoff(5, attempt);
            let b = c.backoff(5, attempt);
            assert_eq!(a, b);
            assert!(a <= 1000);
        }
        assert_ne!(c.backoff(5, 0), c.backoff(6, 0), "jitter spreads seqs");
    }
}
