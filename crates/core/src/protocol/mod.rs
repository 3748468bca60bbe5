//! The §3.2 price-check protocol as transport-agnostic (sans-IO) state
//! machines.
//!
//! Every system role — Coordinator, Aggregator, Measurement server,
//! Database server, IPC, PPC/add-on — is a plain struct that consumes
//! typed input events (`on_message` / `on_timer`) and emits
//! [`Output`] commands: `(destination, message)` pairs plus timer
//! requests. The machines know nothing about the netsim simulator or
//! TCP sockets. [`node::RoleNode`] is the one host for a machine and its
//! reliable channel; `core::system` (discrete-event simulator),
//! `sheriff_wire::reactor` (framed TCP) and `sheriff_model` (model
//! checker) all step the *same* nodes through its three entry points,
//! so neither protocol semantics (job assignment, fan-out, pollution
//! budgets, doppelganger redemption) nor the plumbing around them
//! (ack/dedup, give-up release, restart) can drift between backends.
//!
//! Destinations are logical [`Address`]es; each backend owns the
//! mapping to its transport endpoints (netsim `NodeId`s, socket
//! addresses). Time enters as plain milliseconds: virtual [`SimTime`]
//! on the DES, elapsed wall-clock on TCP. Randomness enters as an
//! explicit `&mut StdRng` owned by the driver, which keeps DES runs
//! seed-deterministic.
//!
//! [`SimTime`]: sheriff_netsim::SimTime

// Iteration order is observable here: `clippy.toml` bans HashMap/HashSet.
#![deny(clippy::disallowed_types)]

use serde::{Deserialize, Serialize};

use crate::coordinator::JobId;

mod aggregator;
mod coordinator;
mod database;
pub mod defense;
pub mod digest;
mod ipc;
mod measurement;
pub mod messages;
pub mod node;
mod peer;
pub mod reliable;

pub use aggregator::AggregatorProto;
pub use coordinator::CoordinatorProto;
pub use database::{DbEvent, DbProto};
pub use defense::{
    defense_key, DefenseAction, DefenseBook, DefenseParams, DefenseTotals, Standing, IPC_KEY_BASE,
};
pub use digest::Digest;
pub use ipc::IpcProto;
pub use measurement::{MeasEvent, MeasurementParams, MeasurementProto};
pub use messages::ProtoMsg;
pub use node::{NodeTelemetry, Role, RoleNode, StepBuf};
pub use peer::{CompletedProtoCheck, PeerProto};
pub use reliable::{Channel, ReliableConfig};

/// Logical destination of a protocol message, independent of transport.
///
/// Struct variants throughout: the vendored serde derive supports only
/// unit and struct variants inside internally-tagged enums.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(tag = "role", rename_all = "snake_case")]
pub enum Address {
    /// The Coordinator (one per deployment).
    Coordinator,
    /// The Aggregator (one per deployment).
    Aggregator,
    /// The dedicated Database server (v2 only).
    Database,
    /// Measurement server `index` (the Coordinator's server-list index).
    Server {
        /// Index in the Coordinator's server list.
        index: usize,
    },
    /// Infrastructure Proxy Client `index`.
    Ipc {
        /// Index into the configured IPC locations.
        index: usize,
    },
    /// PPC / browser add-on of peer `id`.
    Peer {
        /// Stable peer id.
        id: u64,
    },
}

impl Address {
    /// Folds the address into a model-checker state digest as a
    /// discriminant tag plus the scoping id (see [`digest::Digest`]).
    pub fn fold_digest(self, d: &mut Digest) {
        match self {
            Address::Coordinator => d.write_u64(0),
            Address::Aggregator => d.write_u64(1),
            Address::Database => d.write_u64(2),
            Address::Server { index } => {
                d.write_u64(3);
                d.write_u64(index as u64);
            }
            Address::Ipc { index } => {
                d.write_u64(4);
                d.write_u64(index as u64);
            }
            Address::Peer { id } => {
                d.write_u64(5);
                d.write_u64(id);
            }
        }
    }
}

/// A timer a state machine asked its driver to arm. Drivers keep the
/// value as it is and hand it back to [`node::RoleNode::on_timer`] when
/// it fires; none of them does arithmetic on a job, sequence or peer id
/// (the DES, whose engine API wants an integer, keeps a private slot
/// table in `core::system` instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerKind {
    /// Give-up deadline for a job's outstanding fetches.
    JobDeadline(JobId),
    /// Modeled extraction/assembly CPU time elapsed.
    ProcDone(JobId),
    /// Modeled database store time elapsed.
    DbDone(JobId),
    /// Periodic Measurement-server liveness beacon.
    Heartbeat,
    /// Retransmission check for an unacknowledged reliable sequence
    /// number (see [`reliable::Channel`]).
    Retransmit(u64),
    /// Periodic Coordinator sweep: expire lapsed heartbeats and requeue
    /// jobs stuck on offline servers.
    CoordSweep,
    /// A peer's quarantine ends (moves to parole); scoped by peer id
    /// (see [`defense::DefenseBook`]).
    Quarantine(u64),
    /// A peer's parole ends (full reinstatement when clean); scoped by
    /// peer id.
    Parole(u64),
}

impl TimerKind {
    /// Folds the timer into a model-checker state digest as a
    /// discriminant tag plus, for the scoped kinds, the full-width
    /// scoping id — distinct timers digest differently for every `u64`
    /// scope (see [`digest::Digest`]).
    pub fn fold_digest(self, d: &mut Digest) {
        let (tag, scope) = match self {
            TimerKind::JobDeadline(job) => (0, Some(job.0)),
            TimerKind::ProcDone(job) => (1, Some(job.0)),
            TimerKind::DbDone(job) => (2, Some(job.0)),
            TimerKind::Heartbeat => (3, None),
            TimerKind::Retransmit(seq) => (4, Some(seq)),
            TimerKind::CoordSweep => (5, None),
            TimerKind::Quarantine(peer) => (6, Some(peer)),
            TimerKind::Parole(peer) => (7, Some(peer)),
        };
        d.write_u64(tag);
        if let Some(scope) = scope {
            d.write_u64(scope);
        }
    }
}

/// One command a state machine hands back to its driver.
#[derive(Debug)]
pub enum Output {
    /// Deliver `msg` to `to` over the transport.
    Send {
        /// Logical destination.
        to: Address,
        /// Payload.
        msg: ProtoMsg,
    },
    /// Deliver the result of a page fetch: the transport incurs (DES:
    /// samples; TCP: actually spends) the proxy fetch latency first.
    SendFetched {
        /// Logical destination.
        to: Address,
        /// Payload (always a `FetchReply`).
        msg: ProtoMsg,
    },
    /// Arm a timer that fires back into `on_timer` after `delay_ms`.
    Timer {
        /// Delay in (virtual or real) milliseconds.
        delay_ms: u64,
        /// Which timer.
        kind: TimerKind,
    },
}

impl Output {
    /// Shorthand for [`Output::Send`].
    pub fn send(to: Address, msg: ProtoMsg) -> Output {
        Output::Send { to, msg }
    }
}

/// Day index derived from a millisecond clock (§6's study calendar).
pub fn day_of_ms(now_ms: u64) -> u32 {
    (now_ms / 86_400_000) as u32
}

/// Quarter-of-day index derived from a millisecond clock.
pub fn quarter_of_ms(now_ms: u64) -> u8 {
    ((now_ms % 86_400_000) / 21_600_000) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_digests_are_pairwise_distinct() {
        // The model's state partition must not coarsen: every variant at
        // every scope — the widest included — folds to its own digest.
        let mut kinds = vec![TimerKind::Heartbeat, TimerKind::CoordSweep];
        for scope in [0, 1, u64::MAX] {
            kinds.extend([
                TimerKind::JobDeadline(JobId(scope)),
                TimerKind::ProcDone(JobId(scope)),
                TimerKind::DbDone(JobId(scope)),
                TimerKind::Retransmit(scope),
                TimerKind::Quarantine(scope),
                TimerKind::Parole(scope),
            ]);
        }
        let digests: std::collections::BTreeSet<u64> = kinds
            .iter()
            .map(|k| {
                let mut d = Digest::new();
                k.fold_digest(&mut d);
                d.finish()
            })
            .collect();
        assert_eq!(digests.len(), kinds.len());
    }

    #[test]
    fn address_serde_round_trips() {
        for a in [
            Address::Coordinator,
            Address::Aggregator,
            Address::Database,
            Address::Server { index: 3 },
            Address::Ipc { index: 17 },
            Address::Peer { id: 42 },
        ] {
            let v = serde::Serialize::to_value(&a);
            assert_eq!(<Address as serde::Deserialize>::from_value(&v), Ok(a));
        }
    }
}
