//! Bounded exhaustive exploration.
//!
//! Depth-first search over [`ModelWorld`] interleavings. The machines
//! are deliberately not `Clone` (they own `Box<dyn Storage>`), so the
//! search is *stateless*: each state is materialized by replaying its
//! event prefix from [`ModelWorld::new`]. Replays are cheap (a handful
//! of message handlers) and the approach guarantees the checker drives
//! exactly the code the deployment runs — no shadow model to drift.
//!
//! Two reductions keep the small worlds tractable:
//!
//! * **Canonical-digest dedup** — states are fingerprinted by
//!   [`ModelWorld::digest`] (timers folded as relative offsets, so
//!   time-shifted copies of the same protocol situation collapse). A
//!   digest collision could at worst *hide* part of the space, never
//!   fabricate a violation; with ~10⁵ states against a 64-bit FNV the
//!   collision odds are ~10⁻⁹.
//! * **Drop-only sleep sets** — a classical sleep-set partial-order
//!   reduction restricted to the one event class whose independence is
//!   *exact*: `Drop(slot)` mutates nothing but its own slot and a
//!   budget counter and appends no new slots, so it commutes with any
//!   event not touching that slot, including the slot numbering of
//!   everything either event creates. After exploring `Drop(i)` from a
//!   state, sibling subtrees put `Drop(i)` to sleep: every interleaving
//!   they could reach through it is a permutation of one already
//!   explored. Because sleep sets interact with state caching (a state
//!   first reached with a big sleep set explores fewer children), a
//!   cached state is re-expanded when reached with a sleep set that is
//!   not a superset of one it was already expanded under.
//!
//! A transition that produces a finding becomes a counterexample: its
//! prefix is greedily minimized ([`crate::trace`]) and the branch is
//! pruned (the damage is already proven). No finding is accepted: any
//! one, in any world, fails the run.

use std::collections::{HashMap, HashSet};

use crate::trace::{minimize, TraceStep};
use crate::world::{independent, Event, Finding, ModelWorld, WorldCfg};

/// Counterexample traces kept in full; occurrences beyond this are
/// only counted.
const MAX_TRACES: usize = 8;

/// Search counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Distinct canonical states reached (including the root).
    pub states: u64,
    /// Transitions applied.
    pub transitions: u64,
    /// Transitions that reached an already-visited state.
    pub deduped: u64,
    /// States whose expansion was cut by the depth bound.
    pub truncated: u64,
    /// Deepest prefix reached.
    pub max_depth: usize,
}

/// One recorded (and minimized) finding occurrence.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Stable rule id.
    pub rule: String,
    /// Human context from the invariant.
    pub detail: String,
    /// True when found by the quiescence sweep rather than a transition.
    pub at_quiescence: bool,
    /// Minimized reproducing schedule.
    pub trace: Vec<TraceStep>,
}

/// The result of one exploration.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The explored configuration.
    pub cfg: WorldCfg,
    /// The depth bound used.
    pub depth_limit: usize,
    /// Findings (distinct per `(state, rule)`), minimized.
    pub violations: Vec<Violation>,
    /// Total `(state, rule)` occurrences (uncapped).
    pub violations_total: u64,
    /// Search counters.
    pub stats: Stats,
}

impl Outcome {
    /// True when the run is clean: nothing was found.
    pub fn ok(&self) -> bool {
        self.violations_total == 0
    }
}

/// Explores `cfg` to `depth_limit` events and returns everything found.
pub fn explore(cfg: WorldCfg, depth_limit: usize) -> Outcome {
    let mut ex = Explorer {
        cfg,
        depth_limit,
        seen: HashSet::new(),
        expanded: HashMap::new(),
        recorded: HashSet::new(),
        outcome: Outcome {
            cfg,
            depth_limit,
            violations: Vec::new(),
            violations_total: 0,
            stats: Stats::default(),
        },
    };

    let root = ModelWorld::new(cfg);
    let root_digest = root.digest();
    let root_enabled = root.enabled_events();
    drop(root);
    ex.seen.insert(root_digest);
    ex.outcome.stats.states = 1;
    ex.expanded.insert(root_digest, vec![Vec::new().into()]);
    let mut prefix = Vec::new();
    ex.expand(&mut prefix, &[], root_enabled);
    ex.outcome
}

struct Explorer {
    cfg: WorldCfg,
    depth_limit: usize,
    /// Every canonical digest ever reached.
    seen: HashSet<u64>,
    /// Digest → sleep sets (sorted) it has been expanded under.
    expanded: HashMap<u64, Vec<Box<[Event]>>>,
    /// `(digest, rule)` pairs already recorded, so revisits of a
    /// violating state through other paths don't re-count.
    recorded: HashSet<(u64, &'static str)>,
    outcome: Outcome,
}

impl Explorer {
    /// Rebuilds the state at the end of `events` with invariant
    /// evaluation off (the prefix was checked when first explored) and
    /// back on for whatever the caller applies next.
    fn replay(&self, events: &[Event]) -> ModelWorld {
        let mut w = ModelWorld::new(self.cfg);
        w.set_checking(false);
        for &e in events {
            w.apply_event(e)
                .expect("replaying an already-explored prefix");
        }
        w.set_checking(true);
        w
    }

    /// True when this digest still needs expansion under `sleep` —
    /// false only if it was already expanded under a subset sleep set
    /// (which explored a superset of the children).
    fn needs_expansion(&mut self, digest: u64, sleep: &[Event]) -> bool {
        let prior = self.expanded.entry(digest).or_default();
        if prior.iter().any(|s| s.iter().all(|e| sleep.contains(e))) {
            return false;
        }
        prior.push(sleep.to_vec().into_boxed_slice());
        true
    }

    /// Expands the state reached by `prefix` (already marked seen).
    /// `sleep` holds events whose exploration here would only permute
    /// an already-explored interleaving; `enabled` is this state's
    /// event menu, computed by the caller (saves a replay per node).
    fn expand(&mut self, prefix: &mut Vec<Event>, sleep: &[Event], enabled: Vec<Event>) {
        if prefix.len() >= self.depth_limit {
            self.outcome.stats.truncated += 1;
            return;
        }
        let mut explored: Vec<Event> = Vec::new();
        for e in enabled {
            if sleep.contains(&e) {
                continue;
            }
            let mut w = self.replay(prefix);
            let findings = w.apply_event(e).expect("enabled event applies");
            self.outcome.stats.transitions += 1;
            let digest = w.digest();
            prefix.push(e);

            let first_visit = self.seen.insert(digest);
            if first_visit {
                self.outcome.stats.states += 1;
                self.outcome.stats.max_depth = self.outcome.stats.max_depth.max(prefix.len());
            } else {
                self.outcome.stats.deduped += 1;
            }

            let mut fatal = !findings.is_empty();
            for f in &findings {
                self.record(digest, f, prefix, false);
            }
            // Quiescence invariants are a pure function of the state, so
            // the first visit covers them.
            if first_visit && w.protocol_quiescent() {
                for f in w.quiescence_findings() {
                    fatal = true;
                    self.record(digest, &f, prefix, true);
                }
            }

            if fatal {
                // Counterexample found: the branch is already damned,
                // deeper states would only restate it.
                drop(w);
            } else {
                let child_sleep: Vec<Event> = sleep
                    .iter()
                    .chain(explored.iter())
                    .copied()
                    .filter(|x| independent(x, &e))
                    .collect();
                if self.needs_expansion(digest, &child_sleep) {
                    let child_enabled = w.enabled_events();
                    drop(w);
                    self.expand(prefix, &child_sleep, child_enabled);
                }
            }
            prefix.pop();
            explored.push(e);
        }
    }

    fn record(&mut self, digest: u64, f: &Finding, prefix: &[Event], at_quiescence: bool) {
        if !self.recorded.insert((digest, f.rule)) {
            return;
        }
        self.outcome.violations_total += 1;
        if self.outcome.violations.len() < MAX_TRACES {
            let trace = minimize(self.cfg, prefix, f.rule, at_quiescence);
            self.outcome.violations.push(Violation {
                rule: f.rule.to_string(),
                detail: f.detail.clone(),
                at_quiescence,
                trace,
            });
        }
    }
}
