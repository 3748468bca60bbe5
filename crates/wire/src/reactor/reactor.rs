//! The per-shard event loop: one thread, all the sockets and timers of
//! its nodes, and exactly one place it ever parks — its own doorbell.
//!
//! Each iteration of [`Reactor::run`] is one readiness sweep:
//!
//! 1. **agenda** — pop everything due on the shard's one time-ordered
//!    queue (a `sheriff_netsim::Agenda`, the DES engine's queue type):
//!    timers, the restart that ends a scheduled crash window, and sends
//!    whose fault-injected extra latency ran out. The fault gate — the
//!    DES engine's, not a copy — says whether a timer fires or waits for
//!    its node's restart and whether a restart really brings the node
//!    back;
//! 2. **accept** — drain every listener's accept queue;
//! 3. **inbound** — pump live connections; each completed frame the
//!    gate admits is one `RoleNode::on_message` step (the step every
//!    backend shares: the reliable channel first, then the role
//!    machine);
//! 4. **outbound** — flush per-link write queues, one frame in flight
//!    per `(node, destination)` pair so per-link FIFO order holds.
//!
//! Every socket call is nonblocking. An iteration that did any work
//! counts one `wire.reactor_wakeups` and sweeps again; an idle one waits
//! on the shard's [`Doorbell`](super::shard::Doorbell) for at most
//! [`IDLE_SLEEP`].
//!
//! **Who rings.** The outbound stage rings the destination's shard when
//! it opens a connection toward a node of a *foreign* shard and again
//! when that frame's last byte is written — the two moments the
//! destination's accept and inbound stages have something new to find.
//! Fault-delayed and duplicated copies pass through the same stage, so
//! they ring too. The deployment rings after each frame it injects from
//! outside. A ring carries nothing: the sweep finds the work on the
//! sockets, and the frame and byte books are untouched by it.
//!
//! **No lost wake-up.** The bell's flag is set under its mutex and
//! cleared only by the waiter, which checks it under that mutex before
//! parking. A ring that lands while the shard is mid-sweep therefore
//! makes the next wait return at once; the cost is at most one sweep
//! that finds nothing.
//!
//! **Why the wait stays bounded.** The bell is an accelerator, never the
//! only path. Sockets nobody rings for — an outside client connecting
//! straight to a listener, a Byzantine raw stream, the tail of a frame
//! larger than one socket buffer — are found by the same ≤ 1 ms sweep
//! as before, which is far inside every protocol timeout (the retransmit
//! backoff floor is 250 ms even in test configurations). A
//! multi-process deployment would swap the bell for OS readiness
//! (`epoll` on the shard's descriptors) without touching the sweep.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sheriff_core::byzantine;
use sheriff_core::protocol::{Address, Output, ProtoMsg, Role, RoleNode, StepBuf, TimerKind};
use sheriff_netsim::{Agenda, CodecAttack, FaultGate};

use super::conn::{Inbound, InboundEvent, Outbound, OutboundEvent, RawOutbound, IDLE_CONN_MS};
use super::shard::{drain_peer, ShardCtx};
use crate::deploy::Sink;
use crate::proto::Envelope;

/// Longest idle wait between readiness sweeps when nobody rings.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// How long a finished shard keeps flushing its outbound queues before
/// giving up on destinations that already exited.
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
    /// Received its Shutdown frame; listener closed, timers discarded.
    stopped: bool,
    /// `None` once the node received Shutdown (stop accepting).
    listener: Option<TcpListener>,
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

/// A per-link outbound FIFO: only the head frame is in flight, so two frames
/// from one node to one destination can never overtake each other.
struct OutLink {
    local: usize,
    to: Address,
    inflight: Option<Outbound>,
    queue: VecDeque<Envelope>,
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
        local: usize,
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
    inbound: Vec<Inbound>,
    links: Vec<OutLink>,
    /// Byzantine codec-attack connections (garbage / oversize /
    /// slow-loris raw frames). Deliberately *outside* the per-link
    /// FIFOs: the DES backend drops the message entirely, so an attack
    /// frame must never delay the attacker's own later honest sends.
    raw: Vec<RawOutbound>,
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
            inbound: Vec::new(),
            links: Vec::new(),
            raw: Vec::new(),
            depth_hiwater: 0,
            scratch: StepBuf::default(),
        };
        for (node, idx, listener, first_timer) in nodes {
            let _ = listener.set_nonblocking(true);
            if let Some((due_ms, kind)) = first_timer {
                let local = reactor.nodes.len();
                reactor.agenda.push(due_ms, Due::Timer { local, kind });
            }
            reactor.nodes.push(OwnedNode {
                node,
                idx,
                stopped: false,
                listener: Some(listener),
            });
        }
        if let Some(gate) = &reactor.ctx.gate {
            for window in gate.lock().crash_windows() {
                if let Some(local) = reactor.nodes.iter().position(|n| n.idx == window.node) {
                    reactor.agenda.push(window.until_ms, Due::Restart { local });
                }
            }
        }
        reactor
    }

    /// Runs until every node in the shard has been shut down and the
    /// outbound queues drained (or the drain grace expired).
    pub(crate) fn run(mut self) {
        let mut stop_deadline: Option<u64> = None;
        loop {
            let now_ms = self.ctx.now_ms();
            let mut work = 0usize;
            work += self.run_due(now_ms);
            work += self.poll_accept(now_ms);
            work += self.pump_inbound(now_ms);
            work += self.pump_outbound();
            work += self.pump_raw();
            self.note_depth();

            if self.nodes.iter().all(|n| n.stopped) {
                let deadline = *stop_deadline.get_or_insert(now_ms + DRAIN_GRACE_MS);
                let drained = self.links.is_empty() && self.held_sends == 0;
                if drained || now_ms >= deadline {
                    break;
                }
            }
            if work > 0 {
                self.ctx.wakeups.inc();
            } else {
                self.ctx.idle_wait(IDLE_SLEEP);
            }
        }
    }

    /// Publishes the queue-depth high-water mark.
    fn note_depth(&mut self) {
        let depth = self.inbound.len()
            + self.held_sends
            + self
                .links
                .iter()
                .map(|l| l.queue.len() + usize::from(l.inflight.is_some()))
                .sum::<usize>();
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
            Due::Send {
                local,
                to,
                env,
                copies,
            } => {
                self.held_sends -= 1;
                self.enqueue_out(local, to, env, copies);
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
    /// and for a stopped node, which no schedule concerns any more. The
    /// guard lasts for the one question only — never across a protocol
    /// callback or a socket call.
    fn ask_gate<T>(
        &self,
        local: usize,
        absent: T,
        ask: impl FnOnce(&mut FaultGate, usize) -> T,
    ) -> T {
        match (&self.ctx.gate, self.nodes.get(local).filter(|n| !n.stopped)) {
            (Some(gate), Some(owned)) => ask(&mut gate.lock(), owned.idx),
            _ => absent,
        }
    }

    /// One step of node `local` (stopped nodes take none): run `call`,
    /// hand a peer add-on's finished checks to whoever waits on them,
    /// fold the step's events into telemetry, apply its commands.
    fn step(
        &mut self,
        local: usize,
        now_ms: u64,
        call: impl FnOnce(&mut RoleNode, &mut StdRng, &mut StepBuf),
    ) {
        let mut buf = std::mem::take(&mut self.scratch);
        if let Some(owned) = self.nodes.get_mut(local).filter(|n| !n.stopped) {
            call(&mut owned.node, &mut self.rng, &mut buf);
            owned.surface(&self.ctx.sink);
            self.ctx.telemetry.fold(owned.node.me, now_ms, &mut buf);
        }
        self.dispatch(local, &mut buf.out, now_ms);
        self.scratch = buf;
    }

    /// Drains every live listener's accept queue.
    fn poll_accept(&mut self, now_ms: u64) -> usize {
        let mut accepted: Vec<(TcpStream, usize)> = Vec::new();
        for (local, node) in self.nodes.iter().enumerate() {
            let Some(listener) = &node.listener else {
                continue;
            };
            loop {
                match listener.accept() {
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

    /// Pumps every live inbound connection; completed frames are
    /// delivered in accept order.
    fn pump_inbound(&mut self, now_ms: u64) -> usize {
        let mut work = 0;
        let mut i = 0;
        while i < self.inbound.len() {
            let Some(conn) = self.inbound.get_mut(i) else {
                break;
            };
            match conn.pump(&self.ctx.wire) {
                InboundEvent::Pending => {
                    if now_ms.saturating_sub(conn.opened_ms) > IDLE_CONN_MS {
                        // A connected-but-silent client must not wedge
                        // the node.
                        self.inbound.remove(i);
                        work += 1;
                    } else {
                        i += 1;
                    }
                }
                InboundEvent::Closed => {
                    self.inbound.remove(i);
                    work += 1;
                }
                InboundEvent::Frame(env) => {
                    let local = conn.slot;
                    self.inbound.remove(i);
                    work += 1;
                    self.deliver(local, *env, now_ms);
                }
            }
        }
        work
    }

    /// Feeds one arrived envelope into its node — unless the node is
    /// gone, or inside a crash window (the gate counts the loss).
    fn deliver(&mut self, local: usize, env: Envelope, now_ms: u64) {
        let Some(owned) = self.nodes.get_mut(local).filter(|n| !n.stopped) else {
            return;
        };
        if env.msg == ProtoMsg::Shutdown {
            // Stop accepting and discard the node — but keep the
            // loop running until every sibling is down too.
            owned.stopped = true;
            owned.listener = None;
            return;
        }
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
            Some(byz) => byzantine::outbound(&mut byz.lock(), from_idx, to_idx, msg),
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
    /// eaten, or queued on its link as one or two copies — at once, or
    /// via the agenda when the schedule holds it back.
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
            self.enqueue_out(local, to, env, copies);
        } else {
            self.held_sends += 1;
            let held = Due::Send {
                local,
                to,
                env,
                copies,
            };
            self.agenda.push(now_ms + delay_ms, held);
        }
    }

    /// Opens a raw adversarial connection toward `to`: a garbage
    /// payload, a lying oversized length prefix, or a slow-loris
    /// half-frame. The receiver's codec hardening (length cap, parse
    /// failure, idle reaping) is exactly what these exercise.
    fn launch_codec_attack(&mut self, to: Address, attack: CodecAttack, occurrence: u64) {
        let Some(&addr) = self.ctx.dir.get(&to) else {
            return;
        };
        if let Some(conn) = RawOutbound::open(addr, attack, occurrence) {
            self.raw.push(conn);
        }
    }

    /// Pumps the raw attack connections. Finished slow-loris streams
    /// stay parked (held open, never written again) until the victim
    /// reaps them; everything else retires once flushed.
    fn pump_raw(&mut self) -> usize {
        let mut work = 0;
        let mut i = 0;
        while i < self.raw.len() {
            let Some(conn) = self.raw.get_mut(i) else {
                break;
            };
            match conn.pump() {
                Some(true) => {
                    work += 1;
                    i += 1;
                }
                Some(false) => i += 1,
                None => {
                    self.raw.remove(i);
                    work += 1;
                }
            }
        }
        work
    }

    fn enqueue_out(&mut self, local: usize, to: Address, env: Envelope, copies: usize) {
        let idx = match self
            .links
            .iter()
            .position(|l| l.local == local && l.to == to)
        {
            Some(i) => i,
            None => {
                self.links.push(OutLink {
                    local,
                    to,
                    inflight: None,
                    queue: VecDeque::new(),
                });
                self.links.len() - 1
            }
        };
        if let Some(link) = self.links.get_mut(idx) {
            for _ in 0..copies {
                link.queue.push_back(env.clone());
            }
        }
    }

    /// Flushes the per-link queues; when a frame finishes, the next one
    /// on that link opens immediately.
    fn pump_outbound(&mut self) -> usize {
        let mut work = 0;
        for link in &mut self.links {
            loop {
                if link.inflight.is_none() {
                    let Some(env) = link.queue.pop_front() else {
                        break;
                    };
                    let Some(&addr) = self.ctx.dir.get(&link.to) else {
                        work += 1;
                        continue;
                    };
                    // A `None` here is a destination gone post-shutdown:
                    // the frame is dropped.
                    if let Some(o) = Outbound::open(addr, &env) {
                        link.inflight = Some(o);
                        // Something to accept over there.
                        self.ctx.ring_foreign(link.to);
                    }
                    work += 1;
                }
                match link.inflight.as_mut().map(|o| o.pump(&self.ctx.wire)) {
                    Some(OutboundEvent::Done) => {
                        link.inflight = None;
                        work += 1;
                        // Something to read over there.
                        self.ctx.ring_foreign(link.to);
                    }
                    Some(OutboundEvent::Failed) => {
                        link.inflight = None;
                        work += 1;
                    }
                    Some(OutboundEvent::Pending) => break,
                    None => {}
                }
            }
        }
        self.links
            .retain(|l| l.inflight.is_some() || !l.queue.is_empty());
        work
    }
}
