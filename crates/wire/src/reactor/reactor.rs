//! The per-shard event loop: one thread, all the sockets and timers of
//! its nodes, and exactly one place it ever parks — its own doorbell.
//!
//! Each iteration of [`Reactor::run`] is one readiness sweep:
//!
//! 1. **crash sync** — enter/leave scheduled crash windows and run the
//!    restart edge (the DES engine's `Event::Restart` semantics);
//! 2. **timers** — pop every entry of the virtual-time queue whose
//!    deadline passed; crashed nodes get theirs deferred to the restart
//!    instant instead of fired;
//! 3. **accept** — drain every listener's accept queue;
//! 4. **inbound** — pump live connections; each completed frame is one
//!    `RoleNode::on_message` step (the step every backend shares: the
//!    reliable channel first, then the role machine);
//! 5. **delayed sends** — release fault-injected extra latency whose
//!    due time arrived (this replaces the old detached sleeper threads);
//! 6. **outbound** — flush per-link write queues, one frame in flight
//!    per `(node, destination)` pair so the blocking backend's per-link
//!    FIFO order is preserved.
//!
//! Every socket call is nonblocking. An iteration that did any work
//! counts one `wire.reactor_wakeups` and sweeps again; an idle one waits
//! on the shard's [`Doorbell`](super::shard::Doorbell) for at most
//! [`IDLE_SLEEP`] (less when a timer is due sooner).
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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sheriff_core::byzantine;
use sheriff_core::protocol::{Address, Output, ProtoMsg, Role, RoleNode, StepBuf, TimerKind};
use sheriff_netsim::CodecAttack;

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
/// bound listener, and the first firing `(due_ms, kind)` of its
/// self-sustaining timer, if it has one (measurement liveness beacon,
/// coordinator recovery sweep). The phase is the backend's to fix, and a
/// fixed one keeps deployment frame counts deterministic.
pub(crate) type Seat = (RoleNode, TcpListener, Option<(u64, TimerKind)>);

/// One node inside the shard: the shared protocol node plus what only
/// a socket backend needs to know about it.
struct OwnedNode {
    node: RoleNode,
    /// Inside a scheduled crash window right now; flipping back to
    /// `false` is the restart edge.
    crashed: bool,
    /// Received its Shutdown frame; listener closed, timers discarded.
    stopped: bool,
    /// `None` once the node received Shutdown (stop accepting, exactly
    /// like the blocking acceptor breaking out of its loop).
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

/// A per-link outbound FIFO: only the head frame is in flight, so two
/// frames from one node to one destination can never overtake each
/// other — the property the blocking connect–write–close path provided
/// implicitly.
struct OutLink {
    local: usize,
    to: Address,
    inflight: Option<Outbound>,
    queue: VecDeque<Envelope>,
}

/// A send carrying fault-injected extra latency, parked until its due
/// time. The old backend parked these on detached sleeper threads; the
/// reactor parks them on plain data.
struct DelayedSend {
    due_ms: u64,
    seq: u64,
    local: usize,
    to: Address,
    env: Envelope,
    copies: usize,
}

/// The single-threaded event loop driving one shard's nodes.
pub(crate) struct Reactor {
    ctx: ShardCtx,
    nodes: Vec<OwnedNode>,
    /// Virtual-time timer queue: `(due_ms, seq, local_node, token)`.
    /// The monotone `seq` makes same-millisecond firing order exactly
    /// the insertion order — deterministic, like the DES event queue.
    timers: BinaryHeap<Reverse<(u64, u64, usize, u64)>>,
    seq: u64,
    inbound: Vec<Inbound>,
    links: Vec<OutLink>,
    delayed: Vec<DelayedSend>,
    /// Byzantine codec-attack connections (garbage / oversize /
    /// slow-loris raw frames). Deliberately *outside* the per-link
    /// FIFOs: the DES twin drops the message entirely, so an attack
    /// frame must never delay the attacker's own later honest sends.
    raw: Vec<RawOutbound>,
    /// Local high-water of pending work, mirrored into the shared
    /// `wire.shard_queue_depth` gauge when it grows.
    depth_hiwater: usize,
    /// Reusable step buffer threaded through the sweep stages: the
    /// telemetry fold drains its events, `dispatch` its commands, and
    /// `std::mem::take` loans it out past the node borrow, so the
    /// steady-state event path reuses one set of allocations instead of
    /// building fresh `Vec`s per event.
    scratch: StepBuf,
    /// The machines' randomness source (only the Coordinator draws).
    rng: StdRng,
}

impl Reactor {
    /// Builds a shard over `nodes`, arming each one's first timer.
    pub(crate) fn new(ctx: ShardCtx, nodes: Vec<Seat>) -> Reactor {
        let mut reactor = Reactor {
            rng: StdRng::seed_from_u64(ctx.seed),
            ctx,
            nodes: Vec::new(),
            timers: BinaryHeap::new(),
            seq: 0,
            inbound: Vec::new(),
            links: Vec::new(),
            delayed: Vec::new(),
            raw: Vec::new(),
            depth_hiwater: 0,
            scratch: StepBuf::default(),
        };
        for (node, listener, first_timer) in nodes {
            let _ = listener.set_nonblocking(true);
            if let Some((due_ms, kind)) = first_timer {
                reactor.push_timer(due_ms, reactor.nodes.len(), kind.token());
            }
            reactor.nodes.push(OwnedNode {
                node,
                crashed: false,
                stopped: false,
                listener: Some(listener),
            });
        }
        reactor
    }

    fn push_timer(&mut self, due_ms: u64, local: usize, token: u64) {
        self.seq += 1;
        self.timers.push(Reverse((due_ms, self.seq, local, token)));
    }

    /// Runs until every node in the shard has been shut down and the
    /// outbound queues drained (or the drain grace expired).
    pub(crate) fn run(mut self) {
        let mut stop_deadline: Option<u64> = None;
        loop {
            let now_ms = self.ctx.now_ms();
            let mut work = 0usize;
            work += self.sync_crash_states(now_ms);
            work += self.fire_timers(now_ms);
            work += self.poll_accept(now_ms);
            work += self.pump_inbound(now_ms);
            work += self.release_delayed(now_ms);
            work += self.pump_outbound();
            work += self.pump_raw();
            self.note_depth();

            if self.nodes.iter().all(|n| n.stopped) {
                let deadline = *stop_deadline.get_or_insert(now_ms + DRAIN_GRACE_MS);
                let drained = self.links.is_empty() && self.delayed.is_empty();
                if drained || now_ms >= deadline {
                    break;
                }
            }
            if work > 0 {
                self.ctx.wakeups.inc();
            } else {
                self.ctx.idle_wait(self.idle_nap(now_ms));
            }
        }
    }

    /// Idle wait bounded by the next timer deadline.
    fn idle_nap(&self, now_ms: u64) -> Duration {
        let until_timer = self
            .timers
            .peek()
            .map_or(u64::MAX, |Reverse((due, ..))| due.saturating_sub(now_ms));
        Duration::from_millis(until_timer.max(1)).min(IDLE_SLEEP)
    }

    /// Publishes the queue-depth high-water mark.
    fn note_depth(&mut self) {
        let depth = self.inbound.len()
            + self.delayed.len()
            + self
                .links
                .iter()
                .map(|l| l.queue.len() + usize::from(l.inflight.is_some()))
                .sum::<usize>();
        if depth > self.depth_hiwater {
            self.depth_hiwater = depth;
            let shared = self.ctx.queue_depth.get();
            if depth as i64 > shared {
                self.ctx.queue_depth.set(depth as i64);
            }
        }
    }

    /// Enters/leaves crash windows. Leaving one is the restart edge —
    /// `RoleNode::on_restart`, the DES engine's `Event::Restart`.
    fn sync_crash_states(&mut self, now_ms: u64) -> usize {
        let Some(shim) = self.ctx.shim.clone() else {
            return 0;
        };
        let mut work = 0;
        let mut buf = std::mem::take(&mut self.scratch);
        // sheriff-lint: hot-loop
        for local in 0..self.nodes.len() {
            {
                let Some(owned) = self.nodes.get_mut(local) else {
                    continue;
                };
                if owned.stopped {
                    continue;
                }
                if shim.crashed_until(owned.node.me, now_ms).is_some() {
                    if !owned.crashed {
                        owned.crashed = true;
                        work += 1;
                    }
                    continue;
                }
                if !owned.crashed {
                    continue;
                }
                owned.crashed = false;
                shim.node_restarts.inc();
                owned.node.on_restart(now_ms, &mut buf);
                self.ctx.telemetry.fold(owned.node.me, now_ms, &mut buf);
            }
            self.dispatch(local, &mut buf.out, now_ms);
            work += 1;
        }
        self.scratch = buf;
        work
    }

    /// Fires every due timer; a crashed node's due timers are deferred
    /// to its restart instant instead (counted, like the DES engine).
    fn fire_timers(&mut self, now_ms: u64) -> usize {
        let mut work = 0;
        let mut buf = std::mem::take(&mut self.scratch);
        // sheriff-lint: hot-loop
        while self
            .timers
            .peek()
            .is_some_and(|Reverse((due, ..))| *due <= now_ms)
        {
            let Some(Reverse((_, _, local, token))) = self.timers.pop() else {
                break;
            };
            let mut defer_to = None;
            {
                let Some(owned) = self.nodes.get_mut(local) else {
                    continue;
                };
                if owned.stopped {
                    continue;
                }
                if owned.crashed {
                    if let Some(shim) = &self.ctx.shim {
                        defer_to = shim.crashed_until(owned.node.me, now_ms);
                    }
                }
                if defer_to.is_none() {
                    owned.node.on_timer(now_ms, token, &mut self.rng, &mut buf);
                    owned.surface(&self.ctx.sink);
                    self.ctx.telemetry.fold(owned.node.me, now_ms, &mut buf);
                }
            }
            if let Some(restart) = defer_to {
                // Defer to the restart instant — the DES engine's crash
                // semantics for a dead node's due timers.
                if let Some(shim) = &self.ctx.shim {
                    shim.timers_deferred.inc();
                }
                self.push_timer(restart, local, token);
                work += 1;
                continue;
            }
            self.dispatch(local, &mut buf.out, now_ms);
            work += 1;
        }
        self.scratch = buf;
        work
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
        // sheriff-lint: hot-loop
        while i < self.inbound.len() {
            let Some(conn) = self.inbound.get_mut(i) else {
                break;
            };
            match conn.pump(&self.ctx.wire) {
                InboundEvent::Pending => {
                    if now_ms.saturating_sub(conn.opened_ms) > IDLE_CONN_MS {
                        // A connected-but-silent client must not wedge
                        // the node (the old acceptor's read timeout).
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

    /// Feeds one arrived envelope into its node, mirroring the worker
    /// loop's message path (including the live crash re-check: a window
    /// that opened since the iteration began must still eat the frame).
    fn deliver(&mut self, local: usize, env: Envelope, now_ms: u64) {
        let mut buf = std::mem::take(&mut self.scratch);
        self.deliver_inner(local, env, now_ms, &mut buf);
        self.dispatch(local, &mut buf.out, now_ms);
        self.scratch = buf;
    }

    /// The machine half of [`Reactor::deliver`]: everything that may
    /// early-return before any output exists. Split from the dispatch
    /// half so the scratch buffer is restored on every path.
    fn deliver_inner(&mut self, local: usize, env: Envelope, now_ms: u64, buf: &mut StepBuf) {
        let ctx = &self.ctx;
        let Some(owned) = self.nodes.get_mut(local) else {
            return;
        };
        if owned.stopped {
            return;
        }
        if env.msg == ProtoMsg::Shutdown {
            // Stop accepting and discard the node — but keep the
            // loop running until every sibling is down too.
            owned.stopped = true;
            owned.listener = None;
            return;
        }
        let crashed_live = owned.crashed
            || ctx
                .shim
                .as_ref()
                .is_some_and(|s| s.crashed_until(owned.node.me, ctx.now_ms()).is_some());
        if crashed_live {
            if let Some(shim) = &ctx.shim {
                shim.crash_dropped.inc();
            }
            return;
        }
        owned
            .node
            .on_message(now_ms, env.from, env.msg, &mut self.rng, buf);
        owned.surface(&ctx.sink);
        ctx.telemetry.fold(owned.node.me, now_ms, buf);
    }

    /// Applies a machine's outputs: sends join the per-link write
    /// queues (or the delay park), timers join the virtual-time queue.
    /// Drains the buffer so callers can hand the same scratch `Vec`
    /// back in on the next event.
    fn dispatch(&mut self, local: usize, out: &mut Vec<Output>, now_ms: u64) {
        for o in out.drain(..) {
            match o {
                Output::Send { to, msg } | Output::SendFetched { to, msg } => {
                    self.send_from(local, to, msg, now_ms);
                }
                Output::Timer { delay_ms, kind } => {
                    self.push_timer(now_ms + delay_ms, local, kind.token());
                }
            }
        }
    }

    /// The reactor's write edge: the Byzantine shim rules first (the
    /// sender's own misbehavior — same consult point as the DES
    /// dispatch path), then the fault shim rules each emitted copy
    /// (drop / duplicate / delay), then the frame joins its link FIFO.
    fn send_from(&mut self, local: usize, to: Address, msg: ProtoMsg, now_ms: u64) {
        let Some(me) = self.nodes.get(local).map(|n| n.node.me) else {
            return;
        };
        if !self.ctx.dir.contains_key(&to) {
            return;
        }
        let decision = self
            .ctx
            .byz
            .as_ref()
            .map(|byz| byz.decide(me, to, byzantine::price_bearing(&msg)));
        match decision {
            Some(d) if !d.is_honest() => {
                if let Some(attack) = d.codec {
                    // Byte-level attack: the protocol message is
                    // consumed and a raw frame goes out instead,
                    // outside the fault schedule (which never saw this
                    // send on the DES side either).
                    self.launch_codec_attack(to, attack, d.occurrence);
                    return;
                }
                let applied = byzantine::apply(&d, msg);
                for msg in applied.primary.into_iter().chain(applied.junk) {
                    self.send_copy(local, me, to, msg, now_ms);
                }
            }
            _ => self.send_copy(local, me, to, msg, now_ms),
        }
    }

    /// The fault-shim half of the write edge, once per emitted message
    /// (primary and junk alike face the schedule individually).
    fn send_copy(&mut self, local: usize, me: Address, to: Address, msg: ProtoMsg, now_ms: u64) {
        let (copies, delay_ms) = match &self.ctx.shim {
            Some(shim) => match shim.outbound(now_ms, me, to) {
                Some(verdict) => verdict,
                None => return, // dropped by the schedule
            },
            None => (1, 0),
        };
        let env = Envelope { from: me, msg };
        if delay_ms == 0 {
            self.enqueue_out(local, to, env, copies);
        } else {
            self.seq += 1;
            self.delayed.push(DelayedSend {
                due_ms: now_ms + delay_ms,
                seq: self.seq,
                local,
                to,
                env,
                copies,
            });
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

    /// Releases fault-delayed sends whose due time arrived, oldest
    /// first (ties broken by issue order).
    fn release_delayed(&mut self, now_ms: u64) -> usize {
        if self.delayed.is_empty() {
            return 0;
        }
        let (mut due, rest): (Vec<DelayedSend>, Vec<DelayedSend>) =
            std::mem::take(&mut self.delayed)
                .into_iter()
                .partition(|d| d.due_ms <= now_ms);
        self.delayed = rest;
        due.sort_by_key(|d| (d.due_ms, d.seq));
        let n = due.len();
        for d in due {
            self.enqueue_out(d.local, d.to, d.env, d.copies);
        }
        n
    }

    /// Flushes the per-link queues; when a frame finishes, the next one
    /// on that link opens immediately.
    fn pump_outbound(&mut self) -> usize {
        let mut work = 0;
        // sheriff-lint: hot-loop
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
                    // the frame is dropped, like the blocking path's
                    // failed connect.
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
