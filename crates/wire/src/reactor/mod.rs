//! The nonblocking, readiness-driven wire backend.
//!
//! A thread pair per node cannot hold the paper's deployed population
//! (1265 installed add-ons, §8), so the backend is **sharded
//! reactors**:
//!
//! * the roster is partitioned over a small set of *shards* by a
//!   deterministic hash of each node's logical address
//!   ([`shard::shard_of`]);
//! * each shard is one thread running an event loop
//!   ([`reactor::Reactor`]) that owns its nodes' listeners, its
//!   streams ([`conn`]: one long-lived stream per destination node out,
//!   every accepted stream in), and one time-ordered agenda — no
//!   per-node threads, no blocking reads; an idle shard parks on its
//!   doorbell ([`shard::Doorbell`]) until a peer shard rings or a
//!   bounded wait runs out;
//! * the sans-IO protocol machines from `sheriff_core::protocol` are
//!   driven as on the DES: the reliable channel wraps inbound
//!   frames, outputs become frames on the destination's stream, timer
//!   requests land on the shard's agenda, and the deployment's one
//!   `sheriff_netsim::FaultGate` — the type the DES engine asks —
//!   applies the *same* deterministic schedule to deliveries, timers,
//!   restarts and sends.
//!
//! A deployment's thread count is `O(shards)`, not `O(nodes)`, so
//! thousand-peer rosters run on eight threads.

pub(crate) mod conn;
#[allow(clippy::module_inception)]
pub(crate) mod reactor;
pub(crate) mod shard;

/// Tuning knobs for [`MiniDeployment::start_with_options`].
///
/// [`MiniDeployment::start_with_options`]: crate::deploy::MiniDeployment::start_with_options
#[derive(Clone, Debug, Default)]
pub struct DeployOptions {
    /// Reactor shard count. `0` (the default) picks one shard per
    /// eight nodes, capped at eight — small test rosters stay compact,
    /// thousand-peer soaks spread across eight threads.
    pub shards: usize,
    /// Byzantine misbehavior schedule, phrased against the same node
    /// numbering the fault plan uses. An inactive (all-honest) plan is
    /// bypassed entirely: a strict no-op.
    pub byzantine: Option<sheriff_netsim::ByzantinePlan>,
}
