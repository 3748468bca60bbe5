//! Seed-deterministic fault injection for the delivery path.
//!
//! A [`FaultPlan`] describes per-link loss/duplication/delay probabilities,
//! scheduled node crash+restart windows, and network partitions. The same
//! plan drives both backends, and through the same code: the
//! [`crate::Simulator`] and the TCP reactor each hand it to a
//! [`crate::FaultGate`] and ask that — so one seeded schedule exercises
//! the protocol identically under simulation and over real sockets.
//!
//! Determinism contract: every per-message decision is a pure function of
//! `(plan seed, from, to, n)` where `n` is the per-directed-link occurrence
//! counter. The plan owns a *private* RNG stream per message (derived by
//! hashing, never shared with the simulator's RNG), so installing a plan of
//! all-zero probabilities and no crash windows perturbs nothing: the engine
//! draws exactly the same shared-RNG sequence as with no plan at all.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Loss/duplication/delay probabilities for one directed link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently dropped.
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message is held back by an extra delay.
    pub delay: f64,
    /// Inclusive bounds (ms) for the extra delay when it applies.
    pub delay_ms: (u64, u64),
    /// Probability a message is held back long enough to overtake later
    /// traffic on the same link (reordering, modelled as a larger hold).
    pub reorder: f64,
    /// Inclusive bounds (ms) for the reorder hold when it applies.
    pub reorder_ms: (u64, u64),
}

impl LinkFaults {
    /// A perfectly reliable link (all probabilities zero).
    pub const NONE: LinkFaults = LinkFaults {
        drop: 0.0,
        duplicate: 0.0,
        delay: 0.0,
        delay_ms: (0, 0),
        reorder: 0.0,
        reorder_ms: (0, 0),
    };

    /// True when every probability is zero.
    pub fn is_none(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.delay == 0.0 && self.reorder == 0.0
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::NONE
    }
}

/// A scheduled crash: the node is dead on `[from_ms, until_ms)` and
/// restarts (with its state intact but its timers deferred) at `until_ms`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// Fault index of the crashed node.
    pub node: usize,
    /// First dead millisecond.
    pub from_ms: u64,
    /// First millisecond back up (exclusive end of the window).
    pub until_ms: u64,
}

/// A network partition: messages crossing the island boundary (either
/// direction) during the window are dropped deterministically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Nodes cut off from everyone outside this set.
    pub island: Vec<usize>,
    /// Partition start (ms).
    pub from_ms: u64,
    /// Partition heal time (ms, exclusive).
    pub until_ms: u64,
}

/// What the plan decided for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultDecision {
    /// Drop the message entirely (loss, partition cut, or dead receiver).
    pub drop: bool,
    /// Deliver a second copy as well.
    pub duplicate: bool,
    /// Extra hold (ms) on top of normal transport latency.
    pub extra_delay_ms: u64,
}

impl FaultDecision {
    /// Normal delivery, untouched.
    pub const DELIVER: FaultDecision = FaultDecision {
        drop: false,
        duplicate: false,
        extra_delay_ms: 0,
    };

    /// Deterministic drop (partition / dead node), no RNG involved.
    pub const DROP: FaultDecision = FaultDecision {
        drop: true,
        duplicate: false,
        extra_delay_ms: 0,
    };
}

/// Running totals kept by the plan itself (transport-independent; the
/// [`crate::FaultGate`] folds them into the telemetry registry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by link-loss probability.
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages held back (delay or reorder).
    pub delayed: u64,
    /// Messages cut by an active partition.
    pub partition_drops: u64,
}

/// The full fault schedule for one run. See the module docs for the
/// determinism contract.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    default_link: LinkFaults,
    links: BTreeMap<(usize, usize), LinkFaults>,
    crashes: Vec<CrashWindow>,
    partitions: Vec<Partition>,
    counts: BTreeMap<(usize, usize), u64>,
    scripts: BTreeMap<(usize, usize, u64), FaultDecision>,
    /// Running decision totals.
    pub stats: FaultStats,
}

/// The splitmix64 finalizer: the hash behind every seeded per-message
/// decision (fault and Byzantine plans, retransmit jitter).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no faults) under `seed`; add links/crashes/partitions
    /// with the builder methods.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_link: LinkFaults::NONE,
            links: BTreeMap::new(),
            crashes: Vec::new(),
            partitions: Vec::new(),
            counts: BTreeMap::new(),
            scripts: BTreeMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// Sets the fault profile applied to every link without an override.
    pub fn with_default_link(mut self, faults: LinkFaults) -> Self {
        self.default_link = faults;
        self
    }

    /// Overrides the profile of one directed link.
    pub fn with_link(mut self, from: usize, to: usize, faults: LinkFaults) -> Self {
        self.links.insert((from, to), faults);
        self
    }

    /// Pins the fate of the `occurrence`-th message (0-based) on the
    /// directed link `from → to`, bypassing that message's probability
    /// draws. This is how `sheriff-model` counterexamples are replayed
    /// under the DES: a model trace names exact per-link message ordinals
    /// to drop or duplicate, and a scripted plan reproduces those exact
    /// decisions regardless of seed. Unscripted messages on the same
    /// link still follow the link's probabilistic profile.
    pub fn with_scripted(
        mut self,
        from: usize,
        to: usize,
        occurrence: u64,
        decision: FaultDecision,
    ) -> Self {
        self.scripts.insert((from, to, occurrence), decision);
        self
    }

    /// Schedules a crash window (restart at `until_ms`).
    pub fn with_crash(mut self, node: usize, from_ms: u64, until_ms: u64) -> Self {
        assert!(from_ms < until_ms, "crash window must be non-empty");
        self.crashes.push(CrashWindow {
            node,
            from_ms,
            until_ms,
        });
        self
    }

    /// Schedules the same crash window over a whole node set — the
    /// correlated-failure shape a dead reactor shard produces: every
    /// node a thread owns goes dark together and returns together.
    pub fn with_crash_all(mut self, nodes: &[usize], from_ms: u64, until_ms: u64) -> Self {
        for &node in nodes {
            self = self.with_crash(node, from_ms, until_ms);
        }
        self
    }

    /// Schedules a partition isolating `island` during the window.
    pub fn with_partition(mut self, island: Vec<usize>, from_ms: u64, until_ms: u64) -> Self {
        assert!(from_ms < until_ms, "partition window must be non-empty");
        self.partitions.push(Partition {
            island,
            from_ms,
            until_ms,
        });
        self
    }

    /// True when the plan can ever alter a delivery — the gate skips the
    /// consult entirely on the common fault-free path.
    pub fn is_active(&self) -> bool {
        !self.default_link.is_none()
            || self.links.values().any(|l| !l.is_none())
            || !self.crashes.is_empty()
            || !self.partitions.is_empty()
            || !self.scripts.is_empty()
    }

    /// The crash windows (drivers schedule one restart event per window).
    pub fn crash_windows(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// True when `node` is dead at `now_ms`.
    pub fn is_crashed(&self, node: usize, now_ms: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && now_ms >= c.from_ms && now_ms < c.until_ms)
    }

    /// When `node` is dead at `now_ms`, the millisecond it comes back.
    pub fn restart_at(&self, node: usize, now_ms: u64) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|c| c.node == node && now_ms >= c.from_ms && now_ms < c.until_ms)
            .map(|c| c.until_ms)
            .max()
    }

    /// True when an active partition separates `from` and `to` at `now_ms`.
    pub fn partitioned(&self, from: usize, to: usize, now_ms: u64) -> bool {
        self.partitions.iter().any(|p| {
            now_ms >= p.from_ms
                && now_ms < p.until_ms
                && (p.island.contains(&from) != p.island.contains(&to))
        })
    }

    /// Decides the fate of the next message on the directed link
    /// `from → to` sent at `now_ms`. Advances the link's occurrence
    /// counter; decisions never touch any RNG outside this call.
    pub fn decide(&mut self, now_ms: u64, from: usize, to: usize) -> FaultDecision {
        let n = self.counts.entry((from, to)).or_insert(0);
        let occurrence = *n;
        *n += 1;

        // Scripted ordinals win over everything: a replayed counterexample
        // must reproduce the model's exact decision for this message.
        if let Some(&decision) = self.scripts.get(&(from, to, occurrence)) {
            if decision.drop {
                self.stats.dropped += 1;
            }
            if decision.duplicate {
                self.stats.duplicated += 1;
            }
            if decision.extra_delay_ms > 0 {
                self.stats.delayed += 1;
            }
            return decision;
        }

        if self.partitioned(from, to, now_ms) {
            self.stats.partition_drops += 1;
            return FaultDecision::DROP;
        }

        let link = *self.links.get(&(from, to)).unwrap_or(&self.default_link);
        if link.is_none() {
            return FaultDecision::DELIVER;
        }

        // One private RNG per message, derived purely from (seed, link, n):
        // both backends reach the same decision for the n-th message on a
        // link regardless of wall-clock or virtual timing.
        let per_msg = splitmix64(
            self.seed ^ splitmix64(((from as u64) << 32) | to as u64).wrapping_add(occurrence),
        );
        let mut rng = StdRng::seed_from_u64(per_msg);

        // Fixed draw order so adding one fault kind never shifts another.
        let dropped = link.drop > 0.0 && rng.gen_bool(link.drop.min(1.0));
        let duplicated = link.duplicate > 0.0 && rng.gen_bool(link.duplicate.min(1.0));
        let delayed = link.delay > 0.0 && rng.gen_bool(link.delay.min(1.0));
        let delay_ms = if link.delay_ms.1 > link.delay_ms.0 {
            rng.gen_range(link.delay_ms.0..=link.delay_ms.1)
        } else {
            link.delay_ms.0
        };
        let reordered = link.reorder > 0.0 && rng.gen_bool(link.reorder.min(1.0));
        let reorder_ms = if link.reorder_ms.1 > link.reorder_ms.0 {
            rng.gen_range(link.reorder_ms.0..=link.reorder_ms.1)
        } else {
            link.reorder_ms.0
        };

        if dropped {
            self.stats.dropped += 1;
            return FaultDecision::DROP;
        }
        let mut extra = 0;
        if delayed {
            extra += delay_ms;
        }
        if reordered {
            extra += reorder_ms;
        }
        if extra > 0 {
            self.stats.delayed += 1;
        }
        if duplicated {
            self.stats.duplicated += 1;
        }
        FaultDecision {
            drop: false,
            duplicate: duplicated,
            extra_delay_ms: extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy() -> LinkFaults {
        LinkFaults {
            drop: 0.3,
            duplicate: 0.2,
            delay: 0.4,
            delay_ms: (5, 50),
            reorder: 0.1,
            reorder_ms: (60, 120),
        }
    }

    #[test]
    fn decisions_are_a_pure_function_of_seed_link_and_occurrence() {
        let run = || {
            let mut plan = FaultPlan::new(99).with_default_link(lossy());
            (0..200)
                .map(|i| plan.decide(i * 7, i as usize % 3, (i as usize + 1) % 3))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn interleaving_across_links_does_not_change_per_link_decisions() {
        // Backend A sends link (0,1) and (1,0) strictly alternating;
        // backend B sends all of (0,1) first. Per-link decision sequences
        // must match — this is what licenses DES↔TCP parity.
        let mut a = FaultPlan::new(7).with_default_link(lossy());
        let mut b = FaultPlan::new(7).with_default_link(lossy());
        let mut a01 = Vec::new();
        let mut a10 = Vec::new();
        for i in 0..50 {
            a01.push(a.decide(i, 0, 1));
            a10.push(a.decide(i + 1000, 1, 0));
        }
        let b01: Vec<_> = (0..50).map(|i| b.decide(i * 3, 0, 1)).collect();
        let b10: Vec<_> = (0..50).map(|i| b.decide(i * 5, 1, 0)).collect();
        assert_eq!(a01, b01);
        assert_eq!(a10, b10);
    }

    #[test]
    fn crash_all_is_one_shared_window_per_node() {
        let plan = FaultPlan::new(3).with_crash_all(&[2, 6, 10], 50, 5_000);
        for node in [2, 6, 10] {
            assert!(plan.is_crashed(node, 60));
            assert_eq!(plan.restart_at(node, 60), Some(5_000));
            assert!(!plan.is_crashed(node, 5_000), "restart is at until_ms");
        }
        assert!(!plan.is_crashed(4, 60), "nodes outside the set are spared");
    }

    #[test]
    fn zero_probability_plan_always_delivers_and_is_inactive() {
        let mut plan = FaultPlan::new(1);
        assert!(!plan.is_active());
        for i in 0..100 {
            assert_eq!(plan.decide(i, 0, 1), FaultDecision::DELIVER);
        }
        assert_eq!(plan.stats, FaultStats::default());
    }

    #[test]
    fn crash_windows_and_restart_times() {
        let plan = FaultPlan::new(2).with_crash(3, 100, 250);
        assert!(plan.is_active());
        assert!(!plan.is_crashed(3, 99));
        assert!(plan.is_crashed(3, 100));
        assert!(plan.is_crashed(3, 249));
        assert!(!plan.is_crashed(3, 250));
        assert!(!plan.is_crashed(2, 150));
        assert_eq!(plan.restart_at(3, 150), Some(250));
        assert_eq!(plan.restart_at(3, 250), None);
    }

    #[test]
    fn partitions_cut_island_boundary_both_ways_only_during_window() {
        let mut plan = FaultPlan::new(3).with_partition(vec![0, 1], 50, 100);
        assert!(plan.partitioned(0, 2, 60));
        assert!(plan.partitioned(2, 1, 60));
        assert!(!plan.partitioned(0, 1, 60), "inside the island is fine");
        assert!(!plan.partitioned(2, 3, 60), "outside the island is fine");
        assert!(!plan.partitioned(0, 2, 49));
        assert!(!plan.partitioned(0, 2, 100));
        assert_eq!(plan.decide(60, 0, 2), FaultDecision::DROP);
        assert_eq!(plan.stats.partition_drops, 1);
    }

    #[test]
    fn stats_add_up() {
        let mut plan = FaultPlan::new(4).with_default_link(LinkFaults {
            drop: 1.0,
            ..LinkFaults::NONE
        });
        for i in 0..10 {
            assert!(plan.decide(i, 0, 1).drop);
        }
        assert_eq!(plan.stats.dropped, 10);
    }

    #[test]
    fn scripted_ordinals_override_only_their_own_message() {
        // A fully reliable plan with one scripted drop: exactly the 2nd
        // message on (0, 1) dies, everything else is untouched.
        let mut plan = FaultPlan::new(11).with_scripted(0, 1, 1, FaultDecision::DROP);
        assert!(plan.is_active(), "a scripted plan can alter deliveries");
        assert_eq!(plan.decide(0, 0, 1), FaultDecision::DELIVER);
        assert_eq!(plan.decide(5, 0, 1), FaultDecision::DROP);
        assert_eq!(plan.decide(9, 0, 1), FaultDecision::DELIVER);
        assert_eq!(plan.decide(9, 1, 0), FaultDecision::DELIVER, "other link");
        assert_eq!(plan.stats.dropped, 1);

        // Scripts beat the link's probability profile (drop: 1.0 would
        // kill everything, the scripted ordinal still delivers + dups).
        let mut lossy_plan = FaultPlan::new(12)
            .with_default_link(LinkFaults {
                drop: 1.0,
                ..LinkFaults::NONE
            })
            .with_scripted(
                2,
                3,
                0,
                FaultDecision {
                    drop: false,
                    duplicate: true,
                    extra_delay_ms: 0,
                },
            );
        let d = lossy_plan.decide(0, 2, 3);
        assert!(!d.drop);
        assert!(d.duplicate);
        assert!(lossy_plan.decide(1, 2, 3).drop, "ordinal 1 is unscripted");
    }

    #[test]
    fn duplicate_only_links_duplicate_without_dropping() {
        let mut plan = FaultPlan::new(5).with_link(
            0,
            1,
            LinkFaults {
                duplicate: 1.0,
                ..LinkFaults::NONE
            },
        );
        let d = plan.decide(0, 0, 1);
        assert!(!d.drop);
        assert!(d.duplicate);
        // The override applies only to its own directed link.
        assert_eq!(plan.decide(0, 1, 0), FaultDecision::DELIVER);
    }
}
