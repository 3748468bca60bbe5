//! Shard-level state: which node lives where, the wake-up line between
//! shards, and the context every shard shares — including the one fault
//! gate and the one Byzantine plan of the deployment.
//!
//! A *shard* is a single-threaded event loop (see
//! [`Reactor`](super::reactor::Reactor)) owning the listeners, streams
//! and agenda of a subset of the deployment's nodes.
//! Placement is [`shard_of`]: a seed-free FNV-1a hash over a stable
//! encoding of the logical [`Address`], so the same roster always
//! shards the same way — the soak tests recompute the layout to kill a
//! whole shard deliberately.
//!
//! The nodes themselves are `sheriff_core::protocol::RoleNode`s — the
//! same type, stepped through the same three entry points, as on the
//! DES backend; nothing role-specific lives in this tree beyond handing
//! a peer's finished checks to the waiting client ([`drain_peer`]).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use sheriff_core::protocol::{Address, NodeTelemetry, PeerProto};
use sheriff_netsim::{ByzantinePlan, FaultGate};
use sheriff_telemetry::{Counter, Gauge};

use crate::deploy::Sink;
use crate::telemetry::WireTelemetry;

/// A shard's wake-up line: whoever hands the shard work (a foreign
/// shard connecting a stream to one of its nodes or finishing a frame on
/// one, the deployment injecting one) rings it, and the shard's idle wait
/// returns at once instead of running out its nap.
///
/// No wake-up is lost: the flag is set under the mutex and cleared only
/// by the waiter, which checks it under the same mutex before parking —
/// a ring that lands mid-sweep makes the next wait return immediately,
/// at the price of at most one sweep that finds nothing. A ring carries
/// no frame; the sweep still finds the work on the sockets.
pub(crate) struct Doorbell {
    rung: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

impl Doorbell {
    pub(crate) fn new() -> Doorbell {
        Doorbell {
            rung: std::sync::Mutex::new(false),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Wakes the owning shard, now or at its next wait. Rings ahead of a
    /// wait coalesce: the first one notified, and the flag is still up.
    /// (The critical sections here cannot panic, so the poisoned arms
    /// below are unreachable; they exist because this tree is panic-free.)
    pub(crate) fn ring(&self) {
        let Ok(mut rung) = self.rung.lock() else {
            return;
        };
        if !std::mem::replace(&mut *rung, true) {
            self.cv.notify_one();
        }
    }

    /// Parks until rung or `timeout`, whichever is first, and clears the
    /// flag. `true` means a ring ended the wait.
    pub(crate) fn wait(&self, timeout: Duration) -> bool {
        let Ok(mut rung) = self.rung.lock() else {
            return false;
        };
        if !*rung {
            match self.cv.wait_timeout(rung, timeout) {
                Ok((guard, _)) => rung = guard,
                Err(_) => return false,
            }
        }
        std::mem::take(&mut *rung)
    }
}

/// Rings the bell of the shard that owns `to` (one bell per shard, so
/// `bells.len()` is the shard count [`shard_of`] reduces by).
pub(crate) fn ring_owner(bells: &[Doorbell], to: Address) {
    if let Some(bell) = bells.get(shard_of(to, bells.len())) {
        bell.ring();
    }
}

/// Context shared by every shard of one deployment; each shard's copy
/// differs only in `shard`. All heavy state is behind `Arc`s.
#[derive(Clone)]
pub(crate) struct ShardCtx {
    /// Logical address → listener socket address.
    pub(crate) dir: Arc<HashMap<Address, SocketAddr>>,
    pub(crate) wire: Arc<WireTelemetry>,
    /// Deployment start; virtual milliseconds are real elapsed time
    /// since this instant (the one place wall time enters the system).
    pub(crate) epoch: Instant,
    pub(crate) sink: Arc<Sink>,
    /// Logical address → roster position: the node numbering
    /// (`coordinator, aggregator, db?, servers…, ipcs…, ppcs…`, as on
    /// the DES) that both plans below are phrased against.
    pub(crate) index: Arc<HashMap<Address, usize>>,
    /// The fault plan applied — the gate type the DES engine asks, here
    /// asked by every shard in elapsed real milliseconds. Installed
    /// only for an *active* plan, so the fault-free path takes no lock.
    pub(crate) gate: Option<Arc<Mutex<FaultGate>>>,
    /// Installed only for an *active* Byzantine plan; the reactor's
    /// write edge passes sends through it with the function the DES
    /// uses, so both backends corrupt the same traffic.
    pub(crate) byz: Option<Arc<Mutex<ByzantinePlan>>>,
    /// The machine-event fold (`measurement.*`, `db.*`) — the DES
    /// backend's, not a copy.
    pub(crate) telemetry: Arc<NodeTelemetry>,
    /// Seeds each shard's machine RNG (only the Coordinator draws).
    pub(crate) seed: u64,
    /// `wire.reactor_wakeups`: iterations that found work to do.
    pub(crate) wakeups: Arc<Counter>,
    /// `wire.shard_queue_depth`: high-water mark of pending work (frames
    /// queued on links and not yet wholly written + fault-held sends)
    /// across all shards.
    pub(crate) queue_depth: Arc<Gauge>,
    /// `wire.reactor_doorbell_wakes`: idle waits ended by a ring.
    pub(crate) doorbell_wakes: Arc<Counter>,
    /// `wire.reactor_idle_timeouts`: idle waits that ran out (each one
    /// is followed by a fallback sweep nobody asked for).
    pub(crate) idle_timeouts: Arc<Counter>,
    /// One bell per shard, indexed like [`shard_of`].
    pub(crate) bells: Arc<[Doorbell]>,
    /// The shard this copy of the context belongs to.
    pub(crate) shard: usize,
}

impl ShardCtx {
    pub(crate) fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Rings the owner of `to` when that is another shard; this shard
    /// is awake, or it could not be sending.
    pub(crate) fn ring_foreign(&self, to: Address) {
        let owner = shard_of(to, self.bells.len());
        if owner != self.shard {
            if let Some(bell) = self.bells.get(owner) {
                bell.ring();
            }
        }
    }

    /// The idle wait on this shard's own bell; counts how it ended.
    pub(crate) fn idle_wait(&self, timeout: Duration) {
        let rung = self.bells.get(self.shard).is_some_and(|b| b.wait(timeout));
        if rung {
            self.doorbell_wakes.inc();
        } else {
            self.idle_timeouts.inc();
        }
    }
}

/// Moves a peer add-on's freshly observable outcomes into the shared
/// sink, waking any `await_check` caller.
pub(crate) fn drain_peer(proto: &mut PeerProto, sink: &Sink) {
    if proto.completed.is_empty() && proto.rejected.is_empty() && proto.server_removals.is_empty() {
        return;
    }
    let Ok(mut st) = sink.state.lock() else {
        return;
    };
    st.completed.append(&mut proto.completed);
    st.rejected.append(&mut proto.rejected);
    st.removals.append(&mut proto.server_removals);
    sink.cv.notify_all();
}

/// Deterministic node→shard placement: FNV-1a over a stable
/// `(discriminant, id)` encoding of the address, reduced by shard
/// count. Seed-free on purpose — the layout is a pure function of the
/// roster, so tests (and operators) can recompute which nodes share a
/// fate when one reactor thread is killed.
pub(crate) fn shard_of(addr: Address, n_shards: usize) -> usize {
    let (tag, id) = match addr {
        Address::Coordinator => (0u8, 0u64),
        Address::Aggregator => (1, 0),
        Address::Database => (2, 0),
        Address::Server { index } => (3, index as u64),
        Address::Ipc { index } => (4, index as u64),
        Address::Peer { id } => (5, id),
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in std::iter::once(tag).chain(id.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % n_shards.max(1) as u64) as usize
}

/// Default shard count for a roster: one shard per eight nodes, between
/// one and eight. Small test deployments stay on a couple of threads;
/// thousand-peer soaks spread across eight.
pub(crate) fn default_shard_count(n_nodes: usize) -> usize {
    n_nodes.div_ceil(8).clamp(1, 8)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the doorbell tests bound real waits"
)]
mod tests {
    use super::*;

    /// Far beyond anything a test should sit out: a wait that returns
    /// `true` well inside it was ended by the ring, not the clock.
    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn ring_before_wait_returns_without_sleeping() {
        let bell = Doorbell::new();
        bell.ring();
        let t = Instant::now();
        assert!(bell.wait(LONG), "a ring that came first must end the wait");
        assert!(t.elapsed() < LONG / 10, "waited {:?}", t.elapsed());
    }

    #[test]
    fn ring_from_another_thread_ends_a_long_wait_early() {
        // The waiter signals just before it parks; the ring then lands
        // either before the park or during it — the no-lost-wake-up
        // argument says both must end the wait, so the test does not
        // need to know which one it got.
        let bell = Doorbell::new();
        let (about_to_wait, go) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let bell = &bell;
            s.spawn(move || {
                go.recv().expect("waiter signals");
                bell.ring();
            });
            let t = Instant::now();
            about_to_wait.send(()).expect("ringer listens");
            assert!(bell.wait(LONG));
            assert!(t.elapsed() < LONG / 10, "waited {:?}", t.elapsed());
        });
    }

    #[test]
    fn unrung_wait_times_out_and_leaves_the_flag_clear() {
        let bell = Doorbell::new();
        assert!(!bell.wait(Duration::from_millis(5)));
        assert!(!*bell.rung.lock().expect("not poisoned"));
        assert!(!bell.wait(Duration::from_millis(1)));
    }

    #[test]
    fn two_rings_coalesce_into_one_wake() {
        let bell = Doorbell::new();
        bell.ring();
        bell.ring();
        assert!(bell.wait(LONG));
        assert!(
            !bell.wait(Duration::from_millis(1)),
            "second ring must not survive the wake"
        );
    }

    #[test]
    fn ring_owner_rings_exactly_the_owning_shard() {
        let bells: Vec<Doorbell> = (0..3).map(|_| Doorbell::new()).collect();
        let to = Address::Peer { id: 42 };
        ring_owner(&bells, to);
        for (i, bell) in bells.iter().enumerate() {
            let rung = bell.wait(Duration::from_millis(1));
            assert_eq!(rung, i == shard_of(to, bells.len()), "bell {i}");
        }
    }
}
