//! What a [`FaultPlan`] does to a running node — decided once, for
//! both backends.
//!
//! The plan is a schedule; the [`FaultGate`] is the schedule applied. It
//! owns the plan and the seven `faults.*` counters and answers the four
//! questions a driver has while it runs nodes under a plan:
//!
//! * a delivery is about to land — [`FaultGate::admit_delivery`]: a
//!   crashed receiver loses it outright;
//! * a timer came due — [`FaultGate::defer_timer`]: a crashed node's
//!   timer is re-armed for its restart instant, never lost;
//! * the restart event of a crash window came due —
//!   [`FaultGate::admit_restart`]: with overlapping windows only the
//!   last one brings the node back;
//! * a node sends — [`FaultGate::send`]: dropped, or delivered as one or
//!   two copies after an extra hold.
//!
//! The [`crate::Simulator`] asks in virtual time and the `sheriff-wire`
//! reactor in elapsed real milliseconds; neither asks the plan whether a
//! node is down, calls [`FaultPlan::decide`] or touches a `faults.*`
//! counter itself, so one schedule means the same thing on either. Drivers do
//! keep one duty: queue a restart event at `until_ms` of every window in
//! [`FaultGate::crash_windows`], *before* the run starts — on an
//! [`crate::Agenda`] that puts the restart ahead of any timer later
//! deferred to the same millisecond.

use std::sync::Arc;

use sheriff_telemetry::{Counter, Registry};

use crate::fault::{CrashWindow, FaultPlan, FaultStats};

/// The seven `faults.*` counters.
struct Tally {
    dropped: Arc<Counter>,
    duplicated: Arc<Counter>,
    delayed: Arc<Counter>,
    partition_drops: Arc<Counter>,
    crash_dropped: Arc<Counter>,
    node_restarts: Arc<Counter>,
    timers_deferred: Arc<Counter>,
}

/// A fault plan applied: see the module docs. The default gate holds no
/// plan and lets everything through.
#[derive(Default)]
pub struct FaultGate {
    plan: Option<FaultPlan>,
    /// `plan.is_active()`, computed once: an installed but all-zero plan
    /// is never consulted, which is what makes it a strict no-op.
    active: bool,
    tally: Option<Tally>,
}

impl FaultGate {
    /// Installs `plan`, replacing any earlier one.
    pub fn install(&mut self, plan: FaultPlan) {
        self.active = plan.is_active();
        self.plan = Some(plan);
    }

    /// Publishes the `faults.*` counters into `registry` from now on.
    /// They are registered (at zero) whether or not a plan is installed,
    /// so a plan-free run exports the same key set as a faulty one.
    pub fn publish_to(&mut self, registry: &Registry) {
        self.tally = Some(Tally {
            dropped: registry.counter("faults.dropped"),
            duplicated: registry.counter("faults.duplicated"),
            delayed: registry.counter("faults.delayed"),
            partition_drops: registry.counter("faults.partition_drops"),
            crash_dropped: registry.counter("faults.crash_dropped"),
            node_restarts: registry.counter("faults.node_restarts"),
            timers_deferred: registry.counter("faults.timers_deferred"),
        });
    }

    /// Running send-decision totals of the installed plan, if any.
    pub fn stats(&self) -> Option<FaultStats> {
        self.plan.as_ref().map(|p| p.stats)
    }

    /// The installed plan's crash windows: the driver queues one restart
    /// event per window, at its `until_ms`.
    pub fn crash_windows(&self) -> &[CrashWindow] {
        self.plan.as_ref().map_or(&[], FaultPlan::crash_windows)
    }

    /// The plan, when there is one that can alter anything.
    fn active_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref().filter(|_| self.active)
    }

    /// Is `node` inside a crash window at `now_ms`? Counts nothing.
    pub fn crashed(&self, node: usize, now_ms: u64) -> bool {
        self.active_plan()
            .is_some_and(|p| p.is_crashed(node, now_ms))
    }

    fn count(&self, pick: impl Fn(&Tally) -> &Arc<Counter>) {
        if let Some(tally) = &self.tally {
            pick(tally).inc();
        }
    }

    /// May a delivery to `to` land at `now_ms`? `false` means the
    /// receiver is inside a crash window and the message is lost
    /// (counted as `faults.crash_dropped`).
    pub fn admit_delivery(&self, to: usize, now_ms: u64) -> bool {
        let crashed = self.crashed(to, now_ms);
        if crashed {
            self.count(|t| &t.crash_dropped);
        }
        !crashed
    }

    /// A timer owed to `node` came due at `now_ms`. `None`: fire it.
    /// `Some(ms)`: the node is down — re-arm the timer for `ms`, the
    /// instant the node is back (the latest `until_ms` of the windows
    /// covering `now_ms`; counted as `faults.timers_deferred`).
    pub fn defer_timer(&self, node: usize, now_ms: u64) -> Option<u64> {
        let restart = self.active_plan()?.restart_at(node, now_ms)?;
        self.count(|t| &t.timers_deferred);
        Some(restart)
    }

    /// The restart event of one of `node`'s crash windows came due at
    /// `now_ms`. `true`: the node is back — run its restart callback
    /// (counted as `faults.node_restarts`). `false`: another window
    /// still covers `now_ms`; that window's own restart event will bring
    /// the node back.
    pub fn admit_restart(&self, node: usize, now_ms: u64) -> bool {
        let back = !self.crashed(node, now_ms);
        if back {
            self.count(|t| &t.node_restarts);
        }
        back
    }

    /// The fate of the next message `from → to`, sent at `now_ms`:
    /// `None` when the schedule eats it, otherwise `(copies,
    /// extra_delay_ms)` with one or two copies. Advances the plan's
    /// per-link occurrence counter and folds its verdict into
    /// `faults.{dropped,duplicated,delayed,partition_drops}`.
    pub fn send(&mut self, now_ms: u64, from: usize, to: usize) -> Option<(usize, u64)> {
        let Some(plan) = self.plan.as_mut().filter(|_| self.active) else {
            return Some((1, 0));
        };
        let before = plan.stats;
        let decision = plan.decide(now_ms, from, to);
        let after = plan.stats;
        if let Some(t) = &self.tally {
            // The plan keeps totals; registry counters only ever grow.
            t.dropped.add(after.dropped - before.dropped);
            t.duplicated.add(after.duplicated - before.duplicated);
            t.delayed.add(after.delayed - before.delayed);
            t.partition_drops
                .add(after.partition_drops - before.partition_drops);
        }
        (!decision.drop).then_some((1 + usize::from(decision.duplicate), decision.extra_delay_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkFaults;

    fn gate(plan: FaultPlan) -> (FaultGate, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let mut gate = FaultGate::default();
        gate.install(plan);
        gate.publish_to(&registry);
        (gate, registry)
    }

    #[test]
    fn overlapping_windows_restart_once_at_the_later_end() {
        // Node 2 is down on [100, 300) and again on [200, 500): one
        // outage, two scheduled restart events.
        let (gate, registry) = gate(
            FaultPlan::new(1)
                .with_crash(2, 100, 300)
                .with_crash(2, 200, 500),
        );
        assert_eq!(gate.crash_windows().len(), 2);
        assert!(!gate.admit_restart(2, 300), "second window still open");
        assert!(gate.admit_restart(2, 500));
        // A timer due inside the overlap waits for the later end; one
        // due after it fires.
        assert_eq!(gate.defer_timer(2, 250), Some(500));
        assert_eq!(gate.defer_timer(2, 150), Some(300));
        assert_eq!(gate.defer_timer(2, 500), None);
        assert_eq!(gate.defer_timer(3, 250), None, "other nodes are up");
        let snap = registry.snapshot();
        assert_eq!(snap.counters["faults.node_restarts"], 1);
        assert_eq!(snap.counters["faults.timers_deferred"], 2);
    }

    #[test]
    fn crashed_receivers_lose_deliveries_and_only_those() {
        let (gate, registry) = gate(FaultPlan::new(1).with_crash(0, 10, 20));
        assert!(gate.admit_delivery(0, 9));
        assert!(!gate.admit_delivery(0, 10));
        assert!(!gate.admit_delivery(0, 19));
        assert!(gate.admit_delivery(0, 20), "restart is at until_ms");
        assert!(gate.admit_delivery(1, 15));
        assert_eq!(registry.snapshot().counters["faults.crash_dropped"], 2);
    }

    #[test]
    fn send_verdicts_fold_into_the_registry() {
        let (mut gate, registry) = gate(
            FaultPlan::new(1)
                .with_link(
                    0,
                    1,
                    LinkFaults {
                        drop: 1.0,
                        ..LinkFaults::NONE
                    },
                )
                .with_link(
                    1,
                    0,
                    LinkFaults {
                        duplicate: 1.0,
                        delay: 1.0,
                        delay_ms: (7, 7),
                        ..LinkFaults::NONE
                    },
                )
                .with_partition(vec![2], 0, 50),
        );
        assert_eq!(gate.send(0, 0, 1), None);
        assert_eq!(gate.send(0, 1, 0), Some((2, 7)));
        assert_eq!(gate.send(0, 2, 3), None, "cut by the partition");
        assert_eq!(gate.send(50, 2, 3), Some((1, 0)), "healed");
        let snap = registry.snapshot();
        assert_eq!(snap.counters["faults.dropped"], 1);
        assert_eq!(snap.counters["faults.duplicated"], 1);
        assert_eq!(snap.counters["faults.delayed"], 1);
        assert_eq!(snap.counters["faults.partition_drops"], 1);
        let stats = gate.stats().expect("plan installed");
        assert_eq!((stats.dropped, stats.partition_drops), (1, 1));
    }

    #[test]
    fn an_inactive_plan_ticks_nothing() {
        for plan in [None, Some(FaultPlan::new(9))] {
            let registry = Arc::new(Registry::new());
            let mut gate = FaultGate::default();
            let installed = plan.is_some();
            if let Some(plan) = plan {
                gate.install(plan);
            }
            gate.publish_to(&registry);
            assert!(gate.crash_windows().is_empty());
            for now in 0..50 {
                assert!(gate.admit_delivery(0, now));
                assert_eq!(gate.defer_timer(0, now), None);
                assert_eq!(gate.send(now, 0, 1), Some((1, 0)));
            }
            let snap = registry.snapshot();
            let faults: Vec<_> = snap
                .counters
                .iter()
                .filter(|(name, _)| name.starts_with("faults."))
                .collect();
            assert_eq!(faults.len(), 7, "all seven keys exported");
            assert!(faults.iter().all(|(_, &v)| v == 0), "{faults:?}");
            assert_eq!(gate.stats().is_some(), installed);
            assert_eq!(gate.stats().unwrap_or_default(), FaultStats::default());
        }
    }
}
