//! Deterministic discrete-event network simulation.
//!
//! The Price $heriff is a distributed system — add-ons, Coordinator,
//! Measurement servers, Database server, proxy clients — whose interesting
//! behaviour (Table 1's old-vs-new throughput, the request-distribution
//! protocol of Fig. 6) is shaped by queueing and latency rather than by
//! real packets. This engine runs the whole system as event-driven state
//! machines on a virtual clock:
//!
//! * [`Simulator`] owns the nodes and the event queue; time only advances
//!   when events fire, so runs are bit-for-bit reproducible under a seed;
//! * [`Node`] is the state-machine trait — `on_message` and `on_timer`,
//!   nothing else, in the spirit of event-driven network stacks;
//! * [`LatencyModel`] prices each (from, to) edge; [`latency`] ships a
//!   constant model, a seeded lognormal jitter model, and a heavy-tailed
//!   "overloaded PlanetLab node" model (§5 observes exactly that tail and
//!   the production system's 2-minute kill bound for it).

#![forbid(unsafe_code)]
// The protocol and the reactor reach this crate: it must not panic
// (DESIGN.md, "Panic-freedom is clippy's, per crate").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]
// Iteration order is observable here: `clippy.toml` bans HashMap/HashSet.
#![deny(clippy::disallowed_types)]

pub mod agenda;
pub mod byzantine;
pub mod engine;
pub mod fault;
pub mod gate;
pub mod latency;

pub use agenda::Agenda;
pub use byzantine::{ByzDecision, ByzProfile, ByzStats, ByzantinePlan, CodecAttack};
pub use engine::{Ctx, Node, NodeId, SimTime, Simulator};
pub use fault::{CrashWindow, FaultDecision, FaultPlan, FaultStats, LinkFaults, Partition};
pub use gate::FaultGate;
pub use latency::{ConstantLatency, LatencyModel, LognormalLatency};
