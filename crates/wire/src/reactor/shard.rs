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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sheriff_core::protocol::{Address, NodeTelemetry, PeerProto};
use sheriff_netsim::{ByzantinePlan, FaultGate};
use sheriff_telemetry::{Counter, Gauge};

use crate::deploy::Sink;
use crate::leaf::LeafLock;
use crate::proto::Envelope;
use crate::telemetry::WireTelemetry;

/// A shard's wake-up line and its inbox from the deployment. A sibling
/// shard rings it when it connects a stream to one of its nodes or
/// finishes a frame on one; the deployment posts its inputs into it and
/// raises its stop. Any of the three ends the shard's idle wait at once.
///
/// No wake-up is lost: everything is set under the mutex and taken only
/// by the owning shard, at the top of a sweep, and its wait checks under
/// the same mutex before parking. Whatever lands after a take makes the
/// next wait return at once, at the price of at most one sweep that
/// finds nothing. A ring carries no frame (the sweep finds the work on
/// the sockets); a post carries an input, never a frame.
#[derive(Default)]
pub(crate) struct Doorbell {
    /// Leaf: its guard only sets or takes the flags and the inputs.
    state: LeafLock<Bell>,
}

/// What a doorbell holds between two takes.
#[derive(Default)]
pub(crate) struct Bell {
    /// A sibling rang: the next sweep polls the listeners.
    pub(crate) rung: bool,
    /// The deployment's inputs to the shard's nodes, in post order.
    pub(crate) inputs: Vec<Input>,
    /// The deployment is stopping.
    pub(crate) stop: bool,
}

/// One input from outside — what the DES injects as an event — for the
/// node in the given slot of the shard: a check's start or a server
/// removal, taking the step an arrived frame takes.
pub(crate) type Input = (usize, Envelope);

impl Doorbell {
    /// Wakes the owning shard for its sockets. Rings coalesce.
    pub(crate) fn ring(&self) {
        self.raise(|bell| bell.rung = true);
    }

    /// Hands the owning shard one input. A post wakes the shard but is
    /// no reason to poll the listeners.
    pub(crate) fn post(&self, input: Input) {
        self.raise(|bell| bell.inputs.push(input));
    }

    /// Tells the owning shard the deployment is stopping.
    pub(crate) fn stop(&self) {
        self.raise(|bell| bell.stop = true);
    }

    /// Applies `set` under the guard; wakes the shard if nothing was
    /// pending, as it parks only then.
    fn raise(&self, set: impl FnOnce(&mut Bell)) {
        let was_pending = self.state.with(|bell| {
            let was = bell.pending();
            set(bell);
            was
        });
        if !was_pending {
            self.state.notify_all();
        }
    }

    /// Takes everything rung, posted and raised since the last take,
    /// without parking.
    pub(crate) fn take(&self) -> Bell {
        self.state.with(std::mem::take)
    }

    /// Parks until something is pending or `timeout` runs out; takes
    /// nothing. `true` means something pending ended the wait.
    pub(crate) fn wait(&self, timeout: Duration) -> bool {
        self.state
            .wait_timeout(timeout, |bell| bell.pending().then_some(()))
            .is_some()
    }
}

impl Bell {
    /// Something waits for the owning shard's next take.
    fn pending(&self) -> bool {
        self.rung || self.stop || !self.inputs.is_empty()
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
    pub(crate) gate: Option<Arc<LeafLock<FaultGate>>>,
    /// Installed only for an *active* Byzantine plan; the reactor's
    /// write edge passes sends through it with the function the DES
    /// uses, so both backends corrupt the same traffic.
    pub(crate) byz: Option<Arc<LeafLock<ByzantinePlan>>>,
    /// The machine-event fold (`measurement.*`, `db.*`) — the DES
    /// backend's, not a copy.
    pub(crate) telemetry: Arc<NodeTelemetry>,
    /// Seeds each shard's machine RNG (only the Coordinator draws).
    pub(crate) seed: u64,
    /// `wire.reactor_wakeups`: iterations that found work to do.
    pub(crate) wakeups: Arc<Counter>,
    /// `wire.shard_queue_depth`: high-water mark of pending work (frames
    /// queued on links and not yet wholly written + fault-held sends +
    /// acks a Database holds until durable) across all shards.
    pub(crate) queue_depth: Arc<Gauge>,
    /// `wire.reactor_doorbell_wakes`: idle waits ended by a ring, a post
    /// or the stop.
    pub(crate) doorbell_wakes: Arc<Counter>,
    /// `wire.reactor_idle_timeouts`: idle waits that ran out (each one
    /// is followed by a fallback sweep nobody asked for).
    pub(crate) idle_timeouts: Arc<Counter>,
    /// One bell per shard, indexed like [`shard_of`].
    pub(crate) bells: Arc<[Doorbell]>,
    /// How many shards have finished sending: stopped, links flushed
    /// and half-closed, nothing fault-held or held by a Database.
    pub(crate) finished: Arc<AtomicUsize>,
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

    /// Takes what this shard's bell holds.
    pub(crate) fn take_bell(&self) -> Bell {
        self.bells
            .get(self.shard)
            .map(Doorbell::take)
            .unwrap_or_default()
    }

    /// Records that this shard will send nothing more.
    pub(crate) fn finish_sending(&self) {
        self.finished.fetch_add(1, Ordering::SeqCst);
    }

    /// Whether every shard of the deployment has finished sending.
    pub(crate) fn all_finished(&self) -> bool {
        self.finished.load(Ordering::SeqCst) >= self.bells.len()
    }

    /// The idle wait on this shard's own bell; counts how it ended.
    /// `false` when it ran out.
    pub(crate) fn idle_wait(&self, timeout: Duration) -> bool {
        let woken = self.bells.get(self.shard).is_some_and(|b| b.wait(timeout));
        if woken {
            self.doorbell_wakes.inc();
        } else {
            self.idle_timeouts.inc();
        }
        woken
    }
}

/// Moves a peer add-on's freshly observable outcomes (and its §3.6.1
/// sandbox violations) into the shared sink, waking any `await_check`
/// caller.
pub(crate) fn drain_peer(proto: &mut PeerProto, sink: &Sink) {
    if proto.completed.is_empty()
        && proto.rejected.is_empty()
        && proto.server_removals.is_empty()
        && proto.sandbox_violations == 0
    {
        return;
    }
    sink.with(|st| {
        st.completed.append(&mut proto.completed);
        st.rejected.append(&mut proto.rejected);
        st.removals.append(&mut proto.server_removals);
        st.sandbox_violations += std::mem::take(&mut proto.sandbox_violations);
    });
    sink.notify_all();
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
        let bell = Doorbell::default();
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
        let bell = Doorbell::default();
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

    /// Nothing rung, posted or raised.
    fn is_empty(bell: &Bell) -> bool {
        !bell.pending()
    }

    #[test]
    fn unrung_wait_times_out_and_leaves_the_flag_clear() {
        let bell = Doorbell::default();
        assert!(!bell.wait(Duration::from_millis(5)));
        assert!(is_empty(&bell.take()));
        assert!(!bell.wait(Duration::from_millis(1)));
    }

    #[test]
    fn take_clears_a_ring_without_parking() {
        let bell = Doorbell::default();
        assert!(!bell.take().rung);
        bell.ring();
        let taken = bell.take();
        assert!(taken.rung, "the ring is seen");
        assert!(!taken.stop && taken.inputs.is_empty(), "and is only a ring");
        assert!(!bell.take().rung, "and taken");
        assert!(
            !bell.wait(Duration::from_millis(1)),
            "nothing left to wake on"
        );
    }

    #[test]
    fn two_rings_coalesce_into_one_wake() {
        let bell = Doorbell::default();
        bell.ring();
        bell.ring();
        assert!(bell.wait(LONG));
        assert!(bell.take().rung);
        assert!(
            !bell.wait(Duration::from_millis(1)),
            "second ring must not survive the take"
        );
    }

    fn input(local: usize, tag: u64) -> Input {
        let from = Address::Peer { id: tag };
        let msg = sheriff_core::protocol::ProtoMsg::Ack { seq: tag };
        (local, Envelope { from, msg })
    }

    #[test]
    fn a_post_before_a_wait_ends_it_at_once_and_posts_come_back_in_order() {
        let bell = Doorbell::default();
        for tag in 0..3 {
            bell.post(input(tag as usize, tag));
        }
        let t = Instant::now();
        assert!(bell.wait(LONG), "a post that came first must end the wait");
        assert!(t.elapsed() < LONG / 10, "waited {:?}", t.elapsed());
        let taken = bell.take();
        let want: Vec<Input> = (0..3).map(|tag| input(tag as usize, tag)).collect();
        assert_eq!(taken.inputs, want);
        assert!(!taken.rung, "a post is no reason to poll the listeners");
        assert!(!taken.stop);
        assert!(!bell.wait(Duration::from_millis(1)), "all taken");
    }

    #[test]
    fn a_post_after_a_take_goes_to_the_next_sweep() {
        let bell = Doorbell::default();
        bell.post(input(0, 1));
        assert_eq!(bell.take().inputs, vec![input(0, 1)]);
        // Mid-sweep, while the sweep delivers what it took.
        bell.post(input(1, 2));
        assert!(bell.wait(LONG), "the next wait returns at once");
        assert_eq!(bell.take().inputs, vec![input(1, 2)]);
    }

    #[test]
    fn a_stop_between_a_take_and_a_wait_is_still_seen() {
        let bell = Doorbell::default();
        assert!(is_empty(&bell.take()));
        bell.stop();
        let t = Instant::now();
        assert!(bell.wait(LONG), "the stop ends the wait");
        assert!(t.elapsed() < LONG / 10, "waited {:?}", t.elapsed());
        let taken = bell.take();
        assert!(taken.stop && !taken.rung);
        assert!(!bell.take().stop, "taken once");
    }

    #[test]
    fn drain_peer_carries_a_sandbox_violation_that_comes_alone() {
        use sheriff_core::proxy::PpcEngine;
        use sheriff_core::system::PpcSpec;
        use sheriff_geo::{Country, IpAllocator};
        use sheriff_market::pricing::{Browser, Os};
        use sheriff_market::UserAgent;

        let spec = PpcSpec {
            peer_id: 7,
            country: Country::ES,
            city_idx: 0,
            user_agent: UserAgent {
                os: Os::Linux,
                browser: Browser::Firefox,
            },
            affluence: 0.3,
            logged_in_domains: vec![],
        };
        let engine = PpcEngine::new(&spec, IpAllocator::new().allocate(Country::ES, 0));
        let mut proto = PeerProto::new(engine, None, true);
        let sink = Sink::default();
        // No check finished in this step: only the violation is new.
        proto.sandbox_violations = 2;
        drain_peer(&mut proto, &sink);
        drain_peer(&mut proto, &sink);
        assert_eq!(proto.sandbox_violations, 0);
        let violations = sink.with(|st| st.sandbox_violations);
        assert_eq!(violations, 2, "counted once, not dropped");
    }

    #[test]
    fn ring_owner_rings_exactly_the_owning_shard() {
        let bells: Vec<Doorbell> = (0..3).map(|_| Doorbell::default()).collect();
        let to = Address::Peer { id: 42 };
        ring_owner(&bells, to);
        for (i, bell) in bells.iter().enumerate() {
            let rung = bell.wait(Duration::from_millis(1));
            assert_eq!(rung, i == shard_of(to, bells.len()), "bell {i}");
        }
    }
}
