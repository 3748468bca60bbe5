//! The per-shard event loop: one thread, all the sockets and timers of
//! its nodes, and one place it waits for work — its own doorbell.
//!
//! Nothing else on the thread waits for the disk. A Database node's
//! flush-before-ack hands the WAL to its storage's flusher thread
//! (`FileStorage`, group commit) and holds its acks itself until the
//! flusher makes their ticket durable; the flusher then rings the shard,
//! and the sweep hands the node `RoleNode::on_durable`. The shard sweeps
//! on meanwhile. Only a snapshot fold (one store in 64) and recovery
//! wait for the flusher to drain.
//!
//! Each iteration of [`Reactor::run`] is one readiness sweep:
//!
//! 0. **bell** — take what the shard's [`Doorbell`](super::shard::Doorbell)
//!    holds, without parking: whether a sibling rang, whether the
//!    deployment raised its stop, and the inputs it posted (a check's
//!    start, a server removal);
//! 1. **agenda** — pop everything due on the shard's one time-ordered
//!    queue (a `sheriff_netsim::Agenda`, the DES engine's queue type):
//!    timers, the restart that ends a scheduled crash window, and sends
//!    whose fault-injected extra latency ran out. The fault gate — the
//!    DES engine's, not a copy — says whether a timer fires or waits for
//!    its node's restart and whether a restart really brings the node
//!    back. Then each posted input, in post order, takes the step an
//!    arrived frame takes, the gate's `admit_delivery` included — what
//!    `Simulator::inject` is on the DES;
//! 2. **accept** — drain every listener's accept queue, when the sweep
//!    has reason to look: a sibling rang, the sweep follows an idle wait
//!    that ran out, [`ACCEPT_BACKSTOP_SWEEPS`] sweeps went by without a
//!    poll, or the shard is draining. Every link connect rings its
//!    destination's shard, this one's own included; a post alone is no
//!    reason to look;
//! 3. **inbound** — pump every open stream; each whole frame the gate
//!    admits is one `RoleNode::on_message` step (the step every backend
//!    shares: the reliable channel first, then the role machine), in
//!    stream order;
//! 4. **outbound** — let a Database holding acks send what its storage
//!    now reports durable (`RoleNode::on_durable`; not inside a crash
//!    window), then flush the links: one long-lived stream per
//!    destination node, everything the sweep queued on it offered in one
//!    `write`, so the shard's sends to one node keep their order.
//!
//! Every socket call is nonblocking. An iteration that did any work
//! counts one `wire.reactor_wakeups` and sweeps again; an idle one waits
//! on the shard's [`Doorbell`](super::shard::Doorbell) for at most
//! [`IDLE_SLEEP`].
//!
//! **Who rings.** The outbound stage rings the destination's shard when
//! a link first connects (its own shard too), and a *foreign*
//! destination's after every write that completes at least one frame on
//! the link — the moments the destination's accept and inbound stages
//! have something new to find. Fault-delayed and duplicated copies pass
//! through the same stage, so they ring too. The Database's WAL flusher
//! rings after each flush that makes a ticket durable. A ring carries
//! nothing: the sweep finds the work on the sockets (or the Database's
//! held acks), and the frame and byte books are untouched by it. The
//! deployment never rings and never dials: its inputs and its stop are
//! posted into the bell, and they carry inputs, never a frame.
//!
//! **When a shard exits.** A shard that takes the stop steps its nodes no
//! more. It still reads and counts every frame that arrives, flushes its
//! links, sends what the agenda's fault-held sends release, and lets a
//! stopped Database send the acks its flusher makes durable. Once no
//! held send or held ack is left and every link is flushed and
//! half-closed, the shard has finished sending and records so in a
//! counter all shards share. It exits once every shard has recorded
//! that, an accept poll made after it saw so found no new stream, and
//! every inbound stream has read EOF — or when [`DRAIN_GRACE_MS`] from
//! its stop runs out, the backstop for a sibling that never finishes.
//! Listeners stay open until then. A sibling's last connect completed
//! against a listener's accept queue before it recorded its finish, so
//! that poll sees it; every frame a sibling wrote is therefore read, and
//! counted, before the shard that owns its destination goes away.
//!
//! **No lost wake-up.** The bell's flags and inputs are set under its
//! mutex and taken only by the shard that owns it, at the top of a
//! sweep; its wait checks them under that mutex before parking and takes
//! nothing. Whatever lands later in the sweep therefore makes the next
//! wait return at once; the cost is at most one sweep that finds nothing.
//!
//! **Why the wait stays bounded.** The bell is an accelerator, never the
//! only path. Sockets nobody rings for — an outside client connecting
//! straight to a listener, a Byzantine raw stream, the tail of a frame
//! larger than one socket buffer — are found by the sweep after a ≤ 1 ms
//! idle wait, or on a shard too busy to park by the backstop poll every
//! [`ACCEPT_BACKSTOP_SWEEPS`] sweeps; both are far inside every protocol
//! timeout (the retransmit backoff floor is 250 ms even in test
//! configurations). A multi-process deployment would swap the bell for
//! OS readiness (`epoll` on the shard's descriptors) without touching
//! the sweep.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sheriff_core::byzantine;
use sheriff_core::protocol::{Address, Output, ProtoMsg, Role, RoleNode, StepBuf, TimerKind};
use sheriff_netsim::{Agenda, CodecAttack, FaultGate};

use super::conn::{Inbound, OutLink};
use super::shard::{drain_peer, ring_owner, ShardCtx};
use crate::deploy::Sink;
use crate::frame::READ_CHUNK;
use crate::proto::Envelope;

/// Longest idle wait between readiness sweeps when nobody rings.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// Sweeps after which a shard polls its listeners although nothing
/// asked it to: the backstop for a connection nobody rings for on a shard
/// too busy to park.
const ACCEPT_BACKSTOP_SWEEPS: u32 = 64;

/// How long a stopped shard keeps flushing its links and reading its
/// inbound streams before it gives up on siblings that never finish.
const DRAIN_GRACE_MS: u64 = 250;

/// What the deployment hands a shard per node: the protocol node, its
/// roster index, its bound listener, and the first firing `(due_ms,
/// kind)` of its self-sustaining timer, if it has one (measurement
/// liveness beacon, coordinator recovery sweep). The phase is the
/// backend's to fix, and a fixed one keeps deployment frame counts
/// deterministic.
pub(crate) type Seat = (RoleNode, usize, TcpListener, Option<(u64, TimerKind)>);

/// One node inside the shard: the shared protocol node plus what only
/// a socket backend needs to know about it.
struct OwnedNode {
    node: RoleNode,
    /// Roster position — the index the fault and Byzantine plans know
    /// this node by.
    idx: usize,
    /// Open until the shard exits.
    listener: TcpListener,
}

impl OwnedNode {
    /// After a step: a peer add-on's finished checks go to whoever is
    /// blocked in `await_check`.
    fn surface(&mut self, sink: &Sink) {
        if let Role::Peer { proto, .. } = &mut self.node.role {
            drain_peer(proto, sink);
        }
    }
}

/// What a shard schedules against its clock.
enum Due {
    Timer {
        local: usize,
        kind: TimerKind,
    },
    /// The end of one of `local`'s scheduled crash windows.
    Restart {
        local: usize,
    },
    /// A send the fault schedule held back.
    Send {
        to: Address,
        env: Envelope,
        copies: usize,
    },
}

/// The single-threaded event loop driving one shard's nodes.
pub(crate) struct Reactor {
    ctx: ShardCtx,
    nodes: Vec<OwnedNode>,
    /// Everything waiting on the clock, in due order; entries for one
    /// millisecond pop in the order they were pushed — deterministic,
    /// and the DES event queue's rule because it is the same type.
    agenda: Agenda<Due>,
    /// How many `Due::Send`s sit on the agenda: frames still owed to the
    /// wire, so they count as queue depth and hold up the final drain.
    held_sends: usize,
    /// The shard's Database node, if it owns one: its held acks are owed
    /// to the wire like `held_sends`.
    db: Option<usize>,
    /// The deployment's stop was taken: no node steps any more.
    stopped: bool,
    /// This shard recorded that it finished sending.
    finished: bool,
    /// The next sweep polls the listeners: it follows an idle wait.
    accept_next: bool,
    /// Sweeps since the listeners were last polled.
    sweeps_unpolled: u32,
    inbound: Vec<Inbound>,
    /// One long-lived stream per destination node, opened on its first
    /// frame.
    links: BTreeMap<Address, OutLink>,
    /// Byzantine codec attacks (garbage / oversize / slow-loris bytes),
    /// each on a connection of its own, and whether it stays open once
    /// written (a slow loris: the victim's idle reaping ends it).
    /// Deliberately *outside* the links: the DES backend drops the
    /// message entirely, so an attack must never delay the attacker's own
    /// later honest sends.
    raw: Vec<(Address, OutLink, bool)>,
    /// Read buffer every inbound pump borrows.
    chunk: Vec<u8>,
    /// Envelopes one inbound pump completed, delivered before the next
    /// stream is pumped.
    arrived: Vec<Envelope>,
    /// Local high-water of pending work, mirrored into the shared
    /// `wire.shard_queue_depth` gauge when it grows.
    depth_hiwater: usize,
    /// Reusable step buffer: [`Reactor::step`] loans it to the node,
    /// the telemetry fold drains its events and `dispatch` its commands,
    /// so the steady-state event path reuses one set of allocations
    /// instead of building fresh `Vec`s per event.
    scratch: StepBuf,
    /// The machines' randomness source (only the Coordinator draws).
    rng: StdRng,
}

impl Reactor {
    /// Builds a shard over `nodes`, arming each one's first timer and
    /// one restart per crash window of the fault plan. Queued here,
    /// before anything runs, a restart sits ahead of every timer later
    /// deferred to its millisecond — as on the DES.
    pub(crate) fn new(ctx: ShardCtx, nodes: Vec<Seat>) -> Reactor {
        let mut reactor = Reactor {
            rng: StdRng::seed_from_u64(ctx.seed),
            ctx,
            nodes: Vec::new(),
            agenda: Agenda::new(),
            held_sends: 0,
            db: None,
            stopped: false,
            finished: false,
            accept_next: true,
            sweeps_unpolled: 0,
            inbound: Vec::new(),
            links: BTreeMap::new(),
            raw: Vec::new(),
            chunk: vec![0; READ_CHUNK],
            arrived: Vec::new(),
            depth_hiwater: 0,
            scratch: StepBuf::default(),
        };
        for (node, idx, listener, first_timer) in nodes {
            let _ = listener.set_nonblocking(true);
            if let Some((due_ms, kind)) = first_timer {
                let local = reactor.nodes.len();
                reactor.agenda.push(due_ms, Due::Timer { local, kind });
            }
            if matches!(node.role, Role::Database(_)) {
                reactor.db = Some(reactor.nodes.len());
            }
            reactor.nodes.push(OwnedNode {
                node,
                idx,
                listener,
            });
        }
        if let Some(gate) = &reactor.ctx.gate {
            for window in gate.with(|gate| gate.crash_windows().to_vec()) {
                if let Some(local) = reactor.nodes.iter().position(|n| n.idx == window.node) {
                    reactor.agenda.push(window.until_ms, Due::Restart { local });
                }
            }
        }
        reactor
    }

    /// Runs until the deployment's stop, then until every shard has
    /// finished sending and this one has read every stream toward it to
    /// its end (or the drain grace expired).
    pub(crate) fn run(mut self) {
        let mut drain_deadline: Option<u64> = None;
        loop {
            let now_ms = self.ctx.now_ms();
            let bell = self.ctx.take_bell();
            let mut work = self.run_due(now_ms) + bell.inputs.len();
            for (local, env) in bell.inputs {
                self.deliver(local, env, now_ms);
            }
            // After the inputs: they were posted before the stop.
            self.stopped |= bell.stop;
            // Read before the poll, so that a poll finding nothing new
            // comes after every sibling's last connect.
            let all_finished = self.finished && self.ctx.all_finished();
            let mut accepted = 0;
            if self.accept_due(bell.rung || all_finished) {
                accepted = self.poll_accept(now_ms);
            }
            work += accepted;
            work += self.pump_inbound(now_ms);
            work += self.on_durable(now_ms);
            work += self.pump_outbound();
            work += self.pump_raw();
            self.note_depth();

            if self.stopped {
                let deadline = *drain_deadline.get_or_insert(now_ms + DRAIN_GRACE_MS);
                if !self.finished && self.sent_all() {
                    self.finished = true;
                    self.ctx.finish_sending();
                }
                let drained = all_finished && accepted == 0 && self.inbound.is_empty();
                if drained || now_ms >= deadline {
                    break;
                }
            }
            if work > 0 {
                self.ctx.wakeups.inc();
            } else if !self.ctx.idle_wait(IDLE_SLEEP) {
                self.accept_next = true;
            }
        }
    }

    /// Whether a stopped shard has sent everything it ever will: no
    /// fault-held send or held ack is left to join a link, and every link
    /// is flushed and half-closed. Attack streams are dropped here, so a
    /// victim does not sit out its grace waiting on them.
    fn sent_all(&mut self) -> bool {
        self.raw.clear();
        let mut closed = self.held_sends == 0 && self.db_held() == 0;
        if closed {
            for link in self.links.values_mut() {
                closed &= link.finish();
            }
        }
        closed
    }

    /// Publishes the queue-depth high-water mark.
    fn note_depth(&mut self) {
        let depth = self.held_sends
            + self.db_held()
            + self.links.values().map(OutLink::queued).sum::<usize>();
        if depth > self.depth_hiwater {
            self.depth_hiwater = depth;
            self.ctx.queue_depth.raise_to(depth as i64);
        }
    }

    /// Pops everything due on the agenda, in due order.
    fn run_due(&mut self, now_ms: u64) -> usize {
        let mut work = 0;
        while let Some((_, due)) = self.agenda.pop_due(now_ms) {
            self.fire(due, now_ms);
            work += 1;
        }
        work
    }

    /// Acts on one due agenda entry, asking the gate where a crash
    /// window could change the answer.
    fn fire(&mut self, due: Due, now_ms: u64) {
        match due {
            Due::Send { to, env, copies } => {
                self.held_sends -= 1;
                self.enqueue_out(to, &env, copies);
            }
            Due::Timer { local, kind } => {
                match self.ask_gate(local, None, |g, idx| g.defer_timer(idx, now_ms)) {
                    Some(restart) => self.agenda.push(restart, Due::Timer { local, kind }),
                    None => self.step(local, now_ms, |node, rng, buf| {
                        node.on_timer(now_ms, kind, rng, buf);
                    }),
                }
            }
            Due::Restart { local } => {
                if self.ask_gate(local, true, |g, idx| g.admit_restart(idx, now_ms)) {
                    self.step(local, now_ms, |node, _, buf| node.on_restart(now_ms, buf));
                }
            }
        }
    }

    /// Asks the fault gate about node `local` (handed to `ask` as its
    /// roster index); `absent` is the answer when no plan is installed,
    /// and once the shard is stopped, as no schedule concerns its nodes
    /// any more. The guard lasts for the one question only — never across
    /// a protocol callback or a socket call.
    fn ask_gate<T>(
        &self,
        local: usize,
        absent: T,
        ask: impl FnOnce(&mut FaultGate, usize) -> T,
    ) -> T {
        match (&self.ctx.gate, self.nodes.get(local)) {
            (Some(gate), Some(owned)) if !self.stopped => gate.with(|gate| ask(gate, owned.idx)),
            _ => absent,
        }
    }

    /// One step of node `local` (none once the shard is stopped): run
    /// `call`, hand a peer add-on's finished checks to whoever waits on
    /// them, fold the step's events into telemetry, apply its commands.
    fn step(
        &mut self,
        local: usize,
        now_ms: u64,
        call: impl FnOnce(&mut RoleNode, &mut StdRng, &mut StepBuf),
    ) {
        let mut buf = std::mem::take(&mut self.scratch);
        if let Some(owned) = self.nodes.get_mut(local).filter(|_| !self.stopped) {
            call(&mut owned.node, &mut self.rng, &mut buf);
            owned.surface(&self.ctx.sink);
            self.ctx.telemetry.fold(owned.node.me, now_ms, &mut buf);
        }
        self.dispatch(local, &mut buf.out, now_ms);
        self.scratch = buf;
    }

    /// Whether this sweep polls the listeners: when `asked` (a sibling
    /// rang, or the shard is draining), after an idle wait that ran out,
    /// or once [`ACCEPT_BACKSTOP_SWEEPS`] sweeps went by without a poll.
    /// Every connect rings the destination's shard, this one included,
    /// so a sweep that finds nothing to accept is the exception.
    fn accept_due(&mut self, asked: bool) -> bool {
        self.sweeps_unpolled += 1;
        let due = asked
            || std::mem::take(&mut self.accept_next)
            || self.sweeps_unpolled >= ACCEPT_BACKSTOP_SWEEPS;
        if due {
            self.sweeps_unpolled = 0;
        }
        due
    }

    /// Drains every listener's accept queue.
    fn poll_accept(&mut self, now_ms: u64) -> usize {
        let mut accepted: Vec<(TcpStream, usize)> = Vec::new();
        for (local, node) in self.nodes.iter().enumerate() {
            loop {
                match node.listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_ok() {
                            accepted.push((stream, local));
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        let n = accepted.len();
        for (stream, local) in accepted {
            self.inbound.push(Inbound::new(stream, local, now_ms));
        }
        n
    }

    /// Pumps every open inbound stream and delivers its whole frames in
    /// stream order. A stream that ended, or that the idle rule reaps (a
    /// silent or stalled client must not wedge the node), is closed.
    fn pump_inbound(&mut self, now_ms: u64) -> usize {
        let mut work = 0;
        let mut arrived = std::mem::take(&mut self.arrived);
        let mut i = 0;
        while let Some(conn) = self.inbound.get_mut(i) {
            let open = conn.pump(now_ms, &mut self.chunk, &self.ctx.wire, &mut arrived);
            let local = conn.slot;
            if open && !conn.idle_expired(now_ms) {
                i += 1;
            } else {
                self.inbound.remove(i);
                work += 1;
            }
            work += arrived.len();
            for env in arrived.drain(..) {
                self.deliver(local, env, now_ms);
            }
        }
        self.arrived = arrived;
        work
    }

    /// Feeds one arrived envelope or posted input into its node (a
    /// stopped shard steps none) — unless the node is inside a crash
    /// window (the gate counts the loss).
    fn deliver(&mut self, local: usize, env: Envelope, now_ms: u64) {
        if self.ask_gate(local, true, |g, idx| g.admit_delivery(idx, now_ms)) {
            self.step(local, now_ms, |node, rng, buf| {
                node.on_message(now_ms, env.from, env.msg, rng, buf);
            });
        }
    }

    /// Applies a machine's outputs: sends go to the write edge, timers
    /// join the agenda. Drains the buffer so callers can hand the same
    /// scratch `Vec` back in on the next event.
    fn dispatch(&mut self, local: usize, out: &mut Vec<Output>, now_ms: u64) {
        for o in out.drain(..) {
            match o {
                Output::Send { to, msg } | Output::SendFetched { to, msg } => {
                    self.send_from(local, to, msg, now_ms);
                }
                Output::Timer { delay_ms, kind } => {
                    self.agenda
                        .push(now_ms + delay_ms, Due::Timer { local, kind });
                }
            }
        }
    }

    /// Acks the shard's Database node holds until their flush is durable.
    fn db_held(&self) -> usize {
        let node = self.db.and_then(|local| self.nodes.get(local));
        match node.map(|n| &n.node.role) {
            Some(Role::Database(db)) => db.held_acks(),
            _ => 0,
        }
    }

    /// Lets the shard's Database node send the acks its storage now
    /// reports durable (the flusher rings this shard after each flush).
    /// Inside a crash window it sends nothing: its restart drops them. A
    /// stopped node still sends, so a drain loses no ack for a durable
    /// store.
    fn on_durable(&mut self, now_ms: u64) -> usize {
        let held = self.db_held();
        let Some(local) = self.db.filter(|_| held > 0) else {
            return 0;
        };
        if self.ask_gate(local, false, |g, idx| g.crashed(idx, now_ms)) {
            return 0;
        }
        let mut buf = std::mem::take(&mut self.scratch);
        if let Some(owned) = self.nodes.get_mut(local) {
            owned.node.on_durable(&mut buf);
        }
        self.dispatch(local, &mut buf.out, now_ms);
        self.scratch = buf;
        held - self.db_held()
    }

    /// The reactor's write edge. The Byzantine edge comes first — the
    /// function the DES calls, at the same point: misbehavior is
    /// something the sender does, not something the network does. A
    /// codec attack leaves as a raw frame outside the fault schedule
    /// (which never sees that send on the DES side either); every
    /// protocol message it emits, primary and junk alike, then faces the
    /// fault gate on its own.
    fn send_from(&mut self, local: usize, to: Address, msg: ProtoMsg, now_ms: u64) {
        let Some(from_idx) = self.nodes.get(local).map(|n| n.idx) else {
            return;
        };
        let Some(&to_idx) = self.ctx.index.get(&to) else {
            return;
        };
        let applied = match &self.ctx.byz {
            Some(byz) => byz.with(|byz| byzantine::outbound(byz, from_idx, to_idx, msg)),
            None => return self.send_copy(local, to, to_idx, msg, now_ms),
        };
        if let Some((attack, occurrence)) = applied.codec {
            self.launch_codec_attack(to, attack, occurrence);
        }
        for msg in applied.messages() {
            self.send_copy(local, to, to_idx, msg, now_ms);
        }
    }

    /// The fault-gate half of the write edge, once per emitted message:
    /// eaten, or queued on its destination's link as one or two copies —
    /// at once, or via the agenda when the schedule holds it back.
    fn send_copy(&mut self, local: usize, to: Address, to_idx: usize, msg: ProtoMsg, now_ms: u64) {
        let Some(from) = self.nodes.get(local).map(|n| n.node.me) else {
            return;
        };
        let verdict = self.ask_gate(local, Some((1, 0)), |g, idx| g.send(now_ms, idx, to_idx));
        let Some((copies, delay_ms)) = verdict else {
            return;
        };
        let env = Envelope { from, msg };
        if delay_ms == 0 {
            self.enqueue_out(to, &env, copies);
        } else {
            self.held_sends += 1;
            self.agenda
                .push(now_ms + delay_ms, Due::Send { to, env, copies });
        }
    }

    /// Queues a raw adversarial connection toward `to`: a garbage
    /// payload, a lying oversized length prefix, or a slow-loris
    /// half-frame. The receiver's codec hardening (length cap, parse
    /// failure, idle reaping) is exactly what these exercise.
    fn launch_codec_attack(&mut self, to: Address, attack: CodecAttack, occurrence: u64) {
        let hold_open = attack == CodecAttack::SlowLoris;
        self.raw
            .push((to, OutLink::attack(attack, occurrence), hold_open));
    }

    /// Writes the attack bytes, ringing the victim's shard on connect like
    /// any link; an attack connection retires once written, except a
    /// slow loris, parked until the shard stops.
    fn pump_raw(&mut self) -> usize {
        let before = self.raw.len();
        let (dir, wire, bells) = (&self.ctx.dir, &self.ctx.wire, &self.ctx.bells);
        self.raw.retain_mut(|(to, link, hold_open)| {
            if link.flush(dir.get(to).copied(), wire).connected {
                ring_owner(bells, *to);
            }
            *hold_open || !link.is_flushed()
        });
        before - self.raw.len()
    }

    /// Encodes `env` once, straight into the buffer of the link toward
    /// `to`, and queues its frame `copies` times, opening the link's book
    /// on its first frame.
    fn enqueue_out(&mut self, to: Address, env: &Envelope, copies: usize) {
        self.links.entry(to).or_default().push(env, copies);
    }

    /// Flushes every link. A ring goes to the destination's shard when
    /// its link connects — this shard's own too, whose accept stage polls
    /// only when rung — and to a foreign one when a write completes a
    /// frame.
    fn pump_outbound(&mut self) -> usize {
        let mut work = 0;
        for (&to, link) in &mut self.links {
            let flushed = link.flush(self.ctx.dir.get(&to).copied(), &self.ctx.wire);
            if flushed.connected {
                self.ctx.wire.connects.inc();
                ring_owner(&self.ctx.bells, to);
            } else if flushed.frames > 0 {
                self.ctx.ring_foreign(to);
            }
            work += usize::from(flushed.connected) + flushed.frames + flushed.dropped;
        }
        work
    }
}
