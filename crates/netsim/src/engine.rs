//! The simulation engine: virtual clock, event queue, node arena.

use std::any::Any;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sheriff_telemetry::{Counter, Gauge, Registry};

use crate::agenda::Agenda;
use crate::fault::{FaultPlan, FaultStats};
use crate::gate::FaultGate;
use crate::latency::LatencyModel;

/// Virtual time in milliseconds since simulation start.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Builds from seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Builds from minutes.
    pub fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000)
    }

    /// Milliseconds value.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds as a float (reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating addition.
    pub fn plus(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }

    /// Saturating difference.
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

/// Handle to a node in the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A simulated network endpoint: a pure event-driven state machine.
///
/// Implementations must not block, sleep, or read wall-clock time — all
/// temporal behaviour goes through [`Ctx::set_timer`].
pub trait Node<M: 'static>: Any {
    /// A message arrived from `from`.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _token: u64) {}

    /// The node just came back from a scheduled crash window (see
    /// [`FaultPlan::with_crash`]): in-flight deliveries were lost and
    /// pending timers were deferred to this instant. The engine keeps
    /// the node's struct intact — a node that models a process with
    /// volatile state (e.g. a database with a durable log) must itself
    /// discard that state here and rebuild from whatever it considers
    /// persistent, so the same crash schedule yields the same recovery
    /// on every replay.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_, M>) {}
}

/// What a node may do during a callback.
enum Action<M> {
    Send {
        to: NodeId,
        msg: M,
        extra_delay: SimTime,
    },
    Timer {
        delay: SimTime,
        token: u64,
    },
}

/// Callback context handed to nodes.
pub struct Ctx<'a, M> {
    /// Current virtual time.
    pub now: SimTime,
    /// The node being invoked.
    pub self_id: NodeId,
    actions: &'a mut Vec<Action<M>>,
    rng: &'a mut StdRng,
}

impl<'a, M> Ctx<'a, M> {
    /// Sends `msg` to `to`; arrival is `now + latency(self, to)`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send {
            to,
            msg,
            extra_delay: SimTime::ZERO,
        });
    }

    /// Sends after an additional local delay (e.g. processing time) on top
    /// of network latency.
    pub fn send_after(&mut self, delay: SimTime, to: NodeId, msg: M) {
        self.actions.push(Action::Send {
            to,
            msg,
            extra_delay: delay,
        });
    }

    /// Arms a timer on the current node.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.actions.push(Action::Timer { delay, token });
    }

    /// Deterministic per-simulation RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

enum Event<M> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, token: u64 },
    Restart { node: NodeId },
}

impl<M> Event<M> {
    /// The receiver, for message events.
    fn deliver_to(&self) -> Option<NodeId> {
        match self {
            Event::Deliver { to, .. } => Some(*to),
            Event::Timer { .. } | Event::Restart { .. } => None,
        }
    }
}

/// The simulator: node arena + event queue + clock.
///
/// ```
/// use sheriff_netsim::{ConstantLatency, Ctx, Node, NodeId, SimTime, Simulator};
///
/// struct Echo;
/// impl Node<u32> for Echo {
///     fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
///         if msg > 0 {
///             ctx.send(from, msg - 1);
///         }
///     }
/// }
///
/// let mut sim: Simulator<u32> =
///     Simulator::new(Box::new(ConstantLatency(SimTime::from_millis(10))), 1);
/// let a = sim.add_node(Box::new(Echo));
/// let b = sim.add_node(Box::new(Echo));
/// sim.inject(SimTime::ZERO, a, b, 5);
/// sim.run_until_idle(100);
/// assert_eq!(sim.delivered(), 6);            // 5,4,3,2,1,0
/// assert_eq!(sim.now(), SimTime::from_millis(50)); // 10 ms per hop
/// ```
pub struct Simulator<M: 'static> {
    nodes: Vec<Box<dyn Node<M>>>,
    /// Same-instant events fire in the order they were scheduled (the
    /// [`Agenda`]'s rule), which is what makes a run replayable.
    queue: Agenda<Event<M>>,
    latency: Box<dyn LatencyModel>,
    now: SimTime,
    rng: StdRng,
    delivered: u64,
    telemetry: Option<SimTelemetry>,
    fault: FaultGate,
    // Set alongside the fault plan (which requires `M: Clone`); lets the
    // send path clone messages for duplication without bounding the
    // whole impl.
    cloner: Option<fn(&M) -> M>,
    /// What the running callback asked for; drained after every event
    /// and kept for its capacity.
    actions: Vec<Action<M>>,
}

/// Cached metric handles: the per-event hot path touches only atomics,
/// never the registry's name maps.
struct SimTelemetry {
    registry: Arc<Registry>,
    delivered: Arc<Counter>,
    timers_fired: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    queue_depth_max: Arc<Gauge>,
    node_backlog: Vec<Arc<Gauge>>,
}

impl SimTelemetry {
    fn new(registry: Arc<Registry>) -> Self {
        SimTelemetry {
            delivered: registry.counter("netsim.messages_delivered"),
            timers_fired: registry.counter("netsim.timers_fired"),
            queue_depth: registry.gauge("netsim.queue_depth"),
            queue_depth_max: registry.gauge("netsim.queue_depth_max"),
            node_backlog: Vec::new(),
            registry,
        }
    }

    fn add_backlog(&mut self, node: NodeId, delta: i64) {
        for idx in self.node_backlog.len()..=node.0 {
            self.node_backlog.push(
                self.registry
                    .gauge(&format!("netsim.node.{idx:03}.backlog")),
            );
        }
        if let Some(gauge) = self.node_backlog.get(node.0) {
            gauge.add(delta);
        }
    }

    /// An event entered the queue (`deliver_to` set for message events).
    fn pushed(&mut self, deliver_to: Option<NodeId>) {
        self.queue_depth.add(1);
        self.queue_depth_max.raise_to(self.queue_depth.get());
        if let Some(to) = deliver_to {
            self.add_backlog(to, 1);
        }
    }

    /// An event left the queue.
    fn popped(&mut self, deliver_to: Option<NodeId>) {
        self.queue_depth.add(-1);
        if let Some(to) = deliver_to {
            self.add_backlog(to, -1);
        }
    }
}

impl<M: 'static> Simulator<M> {
    /// Creates a simulator with the given latency model and RNG seed.
    pub fn new(latency: Box<dyn LatencyModel>, seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            queue: Agenda::new(),
            latency,
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            delivered: 0,
            telemetry: None,
            fault: FaultGate::default(),
            cloner: None,
            actions: Vec::new(),
        }
    }

    /// Attaches a telemetry registry; the engine publishes event-queue
    /// depth, delivered-message and timer counters, per-node backlog
    /// gauges and the `faults.*` counters into it. Gauges are seeded from
    /// events already queued, so attaching mid-run stays consistent.
    /// Without a registry attached the engine's behaviour (and cost) is
    /// unchanged.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.fault.publish_to(&registry);
        let mut tel = SimTelemetry::new(registry);
        for event in self.queue.iter() {
            tel.pushed(event.deliver_to());
        }
        self.telemetry = Some(tel);
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<Registry>> {
        self.telemetry.as_ref().map(|t| &t.registry)
    }

    /// Registers a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() - 1)
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Typed access to a node's state (for test assertions and result
    /// harvesting; deployment code communicates only via messages).
    pub fn node_ref<T: Node<M>>(&self, id: NodeId) -> Option<&T> {
        let node: &dyn Any = self.nodes.get(id.0)?.as_ref();
        node.downcast_ref::<T>()
    }

    /// Mutable typed access to a node's state.
    pub fn node_mut<T: Node<M>>(&mut self, id: NodeId) -> Option<&mut T> {
        let node: &mut dyn Any = self.nodes.get_mut(id.0)?.as_mut();
        node.downcast_mut::<T>()
    }

    /// Injects a message from "outside" the simulation (e.g. a user click),
    /// delivered to `to` at `at`.
    pub fn inject(&mut self, at: SimTime, to: NodeId, from: NodeId, msg: M) {
        self.schedule(at, Event::Deliver { to, from, msg });
    }

    /// Arms a timer on `node` from outside the simulation.
    pub fn inject_timer(&mut self, at: SimTime, node: NodeId, token: u64) {
        self.schedule(at, Event::Timer { node, token });
    }

    fn schedule(&mut self, at: SimTime, event: Event<M>) {
        if let Some(t) = &mut self.telemetry {
            t.pushed(event.deliver_to());
        }
        self.queue.push(at.as_millis(), event);
    }

    /// Runs until the queue drains or `max_events` fire. Returns the number
    /// of events processed.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let mut processed = 0;
        while processed < max_events {
            if !self.step() {
                break;
            }
            processed += 1;
        }
        processed
    }

    /// Runs until virtual time exceeds `deadline` or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self
            .queue
            .next_due()
            .is_some_and(|at| at <= deadline.as_millis())
        {
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Processes a single event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop_due(u64::MAX) else {
            return false;
        };
        self.now = self.now.max(SimTime::from_millis(at));
        let now_ms = self.now.as_millis();
        if let Some(t) = &mut self.telemetry {
            t.popped(event.deliver_to());
        }
        match event {
            Event::Deliver { to, from, msg } => {
                if self.fault.admit_delivery(to.0, now_ms) {
                    self.delivered += 1;
                    if let Some(t) = &self.telemetry {
                        t.delivered.inc();
                    }
                    self.invoke(to, |node, ctx| node.on_message(ctx, from, msg));
                }
            }
            Event::Timer { node, token } => match self.fault.defer_timer(node.0, now_ms) {
                Some(restart) => {
                    self.schedule(SimTime::from_millis(restart), Event::Timer { node, token });
                }
                None => {
                    if let Some(t) = &self.telemetry {
                        t.timers_fired.inc();
                    }
                    self.invoke(node, |n, ctx| n.on_timer(ctx, token));
                }
            },
            Event::Restart { node } => {
                if self.fault.admit_restart(node.0, now_ms) {
                    self.invoke(node, Node::on_restart);
                }
            }
        }
        true
    }

    /// Runs one callback of node `id`, then schedules what it asked for.
    fn invoke(&mut self, id: NodeId, call: impl FnOnce(&mut dyn Node<M>, &mut Ctx<'_, M>)) {
        let Some(node) = self.nodes.get_mut(id.0) else {
            return;
        };
        let mut actions = std::mem::take(&mut self.actions);
        let mut ctx = Ctx {
            now: self.now,
            self_id: id,
            actions: &mut actions,
            rng: &mut self.rng,
        };
        call(node.as_mut(), &mut ctx);
        for action in actions.drain(..) {
            match action {
                Action::Send {
                    to,
                    msg,
                    extra_delay,
                } => self.send(id, to, msg, extra_delay),
                Action::Timer { delay, token } => {
                    self.schedule(self.now.plus(delay), Event::Timer { node: id, token });
                }
            }
        }
        self.actions = actions;
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: M, extra_delay: SimTime) {
        // Latency is drawn from the shared RNG *before* the gate is asked,
        // so a plan — active or not — never shifts the RNG stream a
        // plan-free run would draw.
        let lat = self.latency.latency(from, to, &mut self.rng);
        let Some((copies, held_ms)) = self.fault.send(self.now.as_millis(), from.0, to.0) else {
            return;
        };
        let at = self
            .now
            .plus(extra_delay)
            .plus(lat)
            .plus(SimTime::from_millis(held_ms));
        let copy = (copies > 1).then(|| {
            let clone = self.cloner.expect("cloner is set with the plan");
            clone(&msg)
        });
        self.schedule(at, Event::Deliver { to, from, msg });
        if let Some(msg) = copy {
            self.schedule(at, Event::Deliver { to, from, msg });
        }
    }
}

impl<M: Clone + 'static> Simulator<M> {
    /// Installs a fault schedule. A restart event is queued for every crash
    /// window so nodes get their [`Node::on_restart`] callback the instant
    /// they come back. Requires `M: Clone` so duplicated deliveries can
    /// carry a second copy of the message.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for window in plan.crash_windows() {
            let node = NodeId(window.node);
            self.schedule(
                SimTime::from_millis(window.until_ms),
                Event::Restart { node },
            );
        }
        self.cloner = Some(|m: &M| m.clone());
        self.fault.install(plan);
    }

    /// Running decision totals of the installed plan, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ConstantLatency;

    #[derive(Default)]
    struct Echo {
        received: Vec<(NodeId, u32)>,
    }

    impl Node<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            self.received.push((from, msg));
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    fn sim() -> Simulator<u32> {
        Simulator::new(Box::new(ConstantLatency(SimTime::from_millis(10))), 1)
    }

    #[test]
    fn telemetry_tracks_queue_and_deliveries() {
        let registry = Arc::new(Registry::new());
        let mut s = sim();
        let a = s.add_node(Box::<Echo>::default());
        let b = s.add_node(Box::<Echo>::default());
        s.set_telemetry(Arc::clone(&registry));
        s.inject(SimTime::ZERO, a, b, 5);
        s.inject_timer(SimTime::from_millis(5), a, 1);
        s.run_until_idle(1000);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["netsim.messages_delivered"], s.delivered());
        assert_eq!(snap.counters["netsim.timers_fired"], 1);
        assert_eq!(snap.gauges["netsim.queue_depth"], 0, "queue drained");
        assert!(snap.gauges["netsim.queue_depth_max"] >= 1);
        assert_eq!(snap.gauges["netsim.node.000.backlog"], 0);
        assert_eq!(snap.gauges["netsim.node.001.backlog"], 0);
    }

    #[test]
    fn telemetry_attached_mid_run_seeds_queue_gauges() {
        let mut s = sim();
        let a = s.add_node(Box::<Echo>::default());
        let b = s.add_node(Box::<Echo>::default());
        s.inject(SimTime::ZERO, a, b, 5);
        s.inject(SimTime::from_millis(1), b, a, 2);
        let registry = Arc::new(Registry::new());
        s.set_telemetry(Arc::clone(&registry));
        assert_eq!(registry.snapshot().gauges["netsim.queue_depth"], 2);
        s.run_until_idle(1000);
        assert_eq!(registry.snapshot().gauges["netsim.queue_depth"], 0);
    }

    #[test]
    fn ping_pong_terminates() {
        let mut s = sim();
        let a = s.add_node(Box::<Echo>::default());
        let b = s.add_node(Box::<Echo>::default());
        s.inject(SimTime::ZERO, a, b, 5);
        let events = s.run_until_idle(1000);
        assert_eq!(events, 6, "5..0 inclusive");
        // Total messages: a gets 5,3,1; b gets 4,2,0.
        assert_eq!(s.node_ref::<Echo>(a).unwrap().received.len(), 3);
        assert_eq!(s.node_ref::<Echo>(b).unwrap().received.len(), 3);
        // Each hop costs 10ms; last delivery at t=50.
        assert_eq!(s.now(), SimTime::from_millis(50));
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut s = sim();
            let a = s.add_node(Box::<Echo>::default());
            let b = s.add_node(Box::<Echo>::default());
            s.inject(SimTime::ZERO, a, b, 20);
            s.run_until_idle(10_000);
            (s.now(), s.delivered())
        };
        assert_eq!(run(), run());
    }

    #[derive(Default)]
    struct TimerNode {
        fired: Vec<(u64, SimTime)>,
    }

    impl Node<u32> for TimerNode {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, _msg: u32) {
            ctx.set_timer(SimTime::from_millis(100), 7);
            ctx.set_timer(SimTime::from_millis(50), 8);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, token: u64) {
            self.fired.push((token, ctx.now));
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut s = sim();
        let n = s.add_node(Box::<TimerNode>::default());
        s.inject(SimTime::ZERO, n, n, 0);
        s.run_until_idle(100);
        let fired = &s.node_ref::<TimerNode>(n).unwrap().fired;
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0], (8, SimTime::from_millis(50)));
        assert_eq!(fired[1], (7, SimTime::from_millis(100)));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut s = sim();
        let n = s.add_node(Box::<TimerNode>::default());
        s.inject(SimTime::ZERO, n, n, 0);
        s.run_until(SimTime::from_millis(60));
        let fired_count = s.node_ref::<TimerNode>(n).unwrap().fired.len();
        assert_eq!(fired_count, 1, "only the 50ms timer fires by t=60");
        assert_eq!(s.now(), SimTime::from_millis(60));
    }

    #[test]
    fn same_time_events_fifo() {
        // Two messages injected at the same instant arrive in injection
        // order (stable by sequence number).
        #[derive(Default)]
        struct Recorder {
            seen: Vec<u32>,
        }
        impl Node<u32> for Recorder {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
                self.seen.push(msg);
            }
        }
        let mut s: Simulator<u32> = Simulator::new(Box::new(ConstantLatency(SimTime::ZERO)), 3);
        let r = s.add_node(Box::<Recorder>::default());
        for v in 0..10 {
            s.inject(SimTime::from_millis(5), r, r, v);
        }
        s.run_until_idle(100);
        assert_eq!(
            s.node_ref::<Recorder>(r).unwrap().seen,
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn wrong_downcast_is_none() {
        let mut s = sim();
        let a = s.add_node(Box::<Echo>::default());
        assert!(s.node_ref::<TimerNode>(a).is_none());
        assert!(s.node_ref::<Echo>(NodeId(99)).is_none());
    }

    use crate::fault::{FaultPlan, LinkFaults};

    #[test]
    fn zero_probability_plan_is_a_strict_noop() {
        let run = |plan: Option<FaultPlan>| {
            let mut s = sim();
            let a = s.add_node(Box::<Echo>::default());
            let b = s.add_node(Box::<Echo>::default());
            if let Some(p) = plan {
                s.set_fault_plan(p);
            }
            s.inject(SimTime::ZERO, a, b, 20);
            s.run_until_idle(10_000);
            let seen = s.node_ref::<Echo>(a).unwrap().received.clone();
            (s.now(), s.delivered(), seen)
        };
        assert_eq!(run(None), run(Some(FaultPlan::new(42))));
    }

    #[test]
    fn drop_all_links_silence_replies_but_not_injections() {
        let mut s = sim();
        let a = s.add_node(Box::<Echo>::default());
        let b = s.add_node(Box::<Echo>::default());
        s.set_fault_plan(FaultPlan::new(1).with_default_link(LinkFaults {
            drop: 1.0,
            ..LinkFaults::NONE
        }));
        // The injected message is external (exempt); a's reply is eaten.
        s.inject(SimTime::ZERO, a, b, 5);
        s.run_until_idle(1000);
        assert_eq!(s.delivered(), 1);
        assert_eq!(s.fault_stats().unwrap().dropped, 1);
    }

    #[test]
    fn duplicate_links_deliver_twice() {
        let mut s = sim();
        let a = s.add_node(Box::<Echo>::default());
        let b = s.add_node(Box::<Echo>::default());
        s.set_fault_plan(FaultPlan::new(1).with_link(
            a.0,
            b.0,
            LinkFaults {
                duplicate: 1.0,
                ..LinkFaults::NONE
            },
        ));
        // b receives the injected 5 and replies 4 to a (clean link); a's
        // reply of 3 crosses the duplicated a→b link, so b sees 3 twice.
        s.inject(SimTime::ZERO, b, a, 5);
        s.run_until_idle(1000);
        let b_seen = &s.node_ref::<Echo>(b).unwrap().received;
        assert_eq!(b_seen.iter().filter(|(_, v)| *v == 3).count(), 2);
        assert!(s.fault_stats().unwrap().duplicated >= 1);
    }

    #[derive(Default)]
    struct CrashProbe {
        fired_at: Vec<SimTime>,
        restarts: Vec<SimTime>,
    }
    impl Node<u32> for CrashProbe {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, _msg: u32) {
            ctx.set_timer(SimTime::from_millis(100), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _token: u64) {
            self.fired_at.push(ctx.now);
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.restarts.push(ctx.now);
        }
    }

    #[test]
    fn crash_defers_timers_and_invokes_on_restart() {
        let registry = Arc::new(Registry::new());
        let mut s = sim();
        let n = s.add_node(Box::<CrashProbe>::default());
        s.set_telemetry(Arc::clone(&registry));
        // Timer armed at t=10 (message arrives then) fires at t=110 — but
        // the node is dead on [50, 400), so it fires at t=400 instead.
        s.set_fault_plan(FaultPlan::new(9).with_crash(n.0, 50, 400));
        s.inject(SimTime::ZERO, n, n, 0);
        s.run_until_idle(1000);
        let probe = s.node_ref::<CrashProbe>(n).unwrap();
        assert_eq!(probe.restarts, vec![SimTime::from_millis(400)]);
        assert_eq!(probe.fired_at, vec![SimTime::from_millis(400)]);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["faults.timers_deferred"], 1);
        assert_eq!(snap.counters["faults.node_restarts"], 1);
    }

    #[test]
    fn deliveries_to_a_crashed_node_are_lost() {
        let registry = Arc::new(Registry::new());
        let mut s = sim();
        let a = s.add_node(Box::<Echo>::default());
        let b = s.add_node(Box::<Echo>::default());
        s.set_telemetry(Arc::clone(&registry));
        s.set_fault_plan(FaultPlan::new(9).with_crash(b.0, 0, 1000));
        s.inject(SimTime::ZERO, b, a, 5);
        s.run_until_idle(1000);
        assert_eq!(s.delivered(), 0);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["faults.crash_dropped"], 1);
        assert_eq!(snap.gauges["netsim.queue_depth"], 0);
    }

    #[test]
    fn simtime_arithmetic() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2000);
        assert_eq!(SimTime::from_mins(1), SimTime::from_secs(60));
        assert_eq!(
            SimTime::from_millis(30).plus(SimTime::from_millis(12)),
            SimTime::from_millis(42)
        );
        assert_eq!(
            SimTime::from_millis(30).since(SimTime::from_millis(40)),
            SimTime::ZERO
        );
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }
}
