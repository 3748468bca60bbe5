//! `sheriff-model`: a bounded exhaustive model checker for the
//! watchdog's sans-IO protocol layer.
//!
//! The protocol machines under `sheriff_core::protocol` are pure state
//! transducers — inputs in, `Output::{Send, Timer}` out — which makes
//! them *model-checkable as-is*: this crate drives the very structs the
//! DES and TCP deployments run (no shadow specification) through every
//! interleaving of message delivery, duplication, loss, timer firing,
//! and crash/restart that a small closed world admits, up to a depth
//! bound, and checks a battery of invariants at every reached state:
//!
//! * **Durability** — once a `DbAck` is delivered, the acked record
//!   survives any crash (`durability.acked_store_lost`).
//! * **Vantage dedup** — no job ever folds in two observations from
//!   the same `(kind, id)` vantage (`vantage.duplicate_observation`).
//! * **Timer obligations** — every pending Database store has a live
//!   `DbDone` timer, every unacked reliable send a live `Retransmit`
//!   timer, and every open Measurement job a live `JobDeadline` or
//!   `ProcDone` (`timer.obligation_leak`). The last is what a store
//!   torn off by a Database crash would break: the requester's
//!   deadline keeps re-sending it, so no finding is accepted anywhere.
//! * **Quiescence** — when nothing is in flight and no timer armed, no
//!   job origins, open jobs, pending stores, or unacked sends remain
//!   (`quiesce.leaked_state`).
//! * **Defense ladder** — standings move only along legal edges:
//!   scoring can only hold or raise severity, `Quarantined → Parole`
//!   only on that peer's quarantine timer, `Parole → Good` only on its
//!   parole timer, and crashes never move anyone
//!   (`defense.ladder_violation`).
//!
//! Violations come back as 1-minimal, replayable schedules
//! ([`trace::TraceStep`]), translatable to DES fault plans
//! ([`replay::to_fault_plan`]) for pinned regression tests.

pub mod explore;
pub mod replay;
pub mod report;
pub mod trace;
pub mod world;

pub use explore::{explore, Outcome, Stats, Violation};
pub use replay::{to_fault_plan, Topology};
pub use report::{outcome_json, report_json, SCHEMA_VERSION};
pub use trace::{minimize, render, reproduces, TraceStep};
pub use world::{Event, Finding, ModelWorld, Mutation, StepError, WorldCfg, WorldKind};
