//! Counterexample → DES fault-schedule translation.
//!
//! A minimized model trace is an exact adversarial schedule: *this*
//! message dropped, *that* one duplicated, the Database crashed *here*.
//! [`to_fault_plan`] rewrites it in the vocabulary the simulation
//! engine consumes — [`FaultPlan`] scripted per-link message ordinals
//! (`FaultPlan::with_scripted`) plus crash windows — so a schedule the
//! checker found in the abstract world can be pinned onto a full
//! [`sheriff_core::system`] run as a regression test.
//!
//! Two translations are inherently approximate, and callers should
//! treat the produced plan as a *skeleton*:
//!
//! * **Ordinals** count sends per directed link in the model world's
//!   deterministic order. A full DES deployment interleaves extra
//!   traffic (heartbeats, sweep timers) on the same links, which can
//!   shift ordinals; regression tests built from a skeleton scan a
//!   small ordinal/time window around it rather than asserting a
//!   single exact schedule.
//! * **Crash instants** in the model are atomic crash+restart at a
//!   virtual time; the DES wants a `[from_ms, until_ms)` window. The
//!   translation opens a window of `crash_window_ms` starting at the
//!   model-time of the crash event.

use std::collections::BTreeMap;

use sheriff_core::protocol::Address;
use sheriff_netsim::{FaultDecision, FaultPlan};

use crate::world::{Event, ModelWorld, WorldCfg};

/// The node layout of a deployed system, for mapping protocol
/// [`Address`]es to the engine's fault indices. Mirrors the order of
/// `sheriff_core::roster::build_roster`'s output (pinned against it in
/// `tests/model.rs`): Coordinator, Aggregator, Database (v2 only),
/// Measurement servers, IPCs, peers.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Whether the deployment runs a dedicated Database server (v2).
    pub has_db: bool,
    /// Measurement server count.
    pub n_servers: usize,
    /// IPC count.
    pub n_ipcs: usize,
    /// Peer ids in registration order.
    pub peer_ids: Vec<u64>,
}

impl Topology {
    /// Fault index of `addr` under this layout, if it exists.
    pub fn fault_index(&self, addr: Address) -> Option<usize> {
        let db = usize::from(self.has_db);
        match addr {
            Address::Coordinator => Some(0),
            Address::Aggregator => Some(1),
            Address::Database => self.has_db.then_some(2),
            Address::Server { index } => (index < self.n_servers).then(|| 2 + db + index),
            Address::Ipc { index } => {
                (index < self.n_ipcs).then(|| 2 + db + self.n_servers + index)
            }
            Address::Peer { id } => self
                .peer_ids
                .iter()
                .position(|&p| p == id)
                .map(|i| 2 + db + self.n_servers + self.n_ipcs + i),
        }
    }
}

/// Translates a model-world schedule into a [`FaultPlan`] skeleton (see
/// the module docs for what "skeleton" means). Events whose endpoints
/// don't exist under `topology` are skipped.
pub fn to_fault_plan(
    cfg: WorldCfg,
    events: &[Event],
    topology: &Topology,
    seed: u64,
    crash_window_ms: u64,
) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    let mut world = ModelWorld::new(cfg);

    // Per directed link: how many sends the model world has produced.
    let mut occurrence: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    // Per slot: the link and ordinal of the message it holds.
    let mut slot_link: Vec<Option<(usize, usize, u64)>> = Vec::new();
    let absorb = |world: &ModelWorld,
                  slot_link: &mut Vec<Option<(usize, usize, u64)>>,
                  occurrence: &mut BTreeMap<(usize, usize), u64>| {
        for env in world.in_flight.iter().skip(slot_link.len()) {
            let link = env.as_ref().and_then(|e| {
                let from = topology.fault_index(e.from)?;
                let to = topology.fault_index(e.to)?;
                Some((from, to))
            });
            slot_link.push(link.map(|(from, to)| {
                let n = occurrence.entry((from, to)).or_insert(0);
                let ordinal = *n;
                *n += 1;
                (from, to, ordinal)
            }));
        }
    };
    absorb(&world, &mut slot_link, &mut occurrence);

    for &event in events {
        match event {
            Event::Drop { slot } => {
                if let Some(Some((from, to, n))) = slot_link.get(slot) {
                    plan = plan.with_scripted(*from, *to, *n, FaultDecision::DROP);
                }
            }
            Event::Duplicate { slot } => {
                if let Some(Some((from, to, n))) = slot_link.get(slot) {
                    plan = plan.with_scripted(
                        *from,
                        *to,
                        *n,
                        FaultDecision {
                            drop: false,
                            duplicate: true,
                            extra_delay_ms: 0,
                        },
                    );
                }
            }
            Event::CrashRestart { node } => {
                if let Some(idx) = topology.fault_index(node) {
                    let from_ms = world.now_ms();
                    plan = plan.with_crash(idx, from_ms, from_ms + crash_window_ms.max(1));
                }
            }
            // The DES's in-memory storage flushes at hand-off: a model
            // flush has nothing to script.
            Event::Deliver { .. }
            | Event::FireTimer { .. }
            | Event::Flush
            | Event::Inject { .. } => {}
        }
        if world.apply_event(event).is_err() {
            break;
        }
        absorb(&world, &mut slot_link, &mut occurrence);
    }
    plan
}
