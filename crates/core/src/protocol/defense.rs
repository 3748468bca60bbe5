//! Misbehavior defense: per-peer scoring, quotas, and the quarantine
//! state machine (paper §6's adversarial model, hardened).
//!
//! Sheriff's measurements come from *untrusted* volunteer peers, so the
//! admission path must bound what any single peer can pollute (the
//! robust-aggregation stance of the Poplar line). [`DefenseBook`] is the
//! sans-IO bookkeeping both the Coordinator and each Measurement server
//! embed:
//!
//! * **Validation rejects** — an inbound message failed schema/envelope
//!   plausibility *before* any state mutation (+2 score).
//! * **Quota trips** — a per-peer token bucket emptied: outstanding
//!   requests at the Coordinator, replies-per-job at a Measurement
//!   server (+1 score). Buckets refill on protocol *events* (job
//!   completion), never on time, so totals are identical across the DES
//!   and TCP backends.
//! * **Doppelganger mismatches** — a state request bearing an unknown /
//!   corrupted token (+3 score).
//! * **Pollution-budget exhaustion** — a peer exceeded its server-side
//!   influence budget of admitted observations,
//!   [`DefenseParams::admit_budget`] (+1 score).
//!
//! Standing walks `Good → Probation` (any score) `→ Quarantined` (score
//! reaches the threshold) `→ Parole` (quarantine timer elapses) `→ Good`
//! (clean parole) — or straight back to `Quarantined` on any violation
//! while on parole. Transitions out of quarantine are timer-driven
//! ([`crate::protocol::TimerKind::Quarantine`] /
//! [`crate::protocol::TimerKind::Parole`]); the book itself never sees a
//! clock, it only reacts, which keeps it deterministic under both
//! backends' schedulers.
//!
//! Telemetry (`defense.*`) is registered per book; all books of one
//! deployment share counter names, so the registry aggregates across
//! nodes exactly like the reliable channel's `protocol.*` counters.

use std::collections::BTreeMap;
use std::sync::Arc;

use sheriff_telemetry::{Counter, Registry};

use crate::protocol::digest::Digest;
use crate::protocol::Address;

/// Defense-book keys for IPC senders live above this base so they can
/// never collide with real peer ids (which are far below 2^32). Keys at
/// or above the base are infrastructure: they are scored and can be
/// quarantined locally, but the Coordinator never sends them a
/// [`crate::protocol::ProtoMsg::QuarantineNotice`] (there is no peer
/// address to notify).
pub const IPC_KEY_BASE: u64 = 1 << 32;

/// The defense-book key for a message source, if it is a scoreable
/// vantage (peers and IPCs; infrastructure roles are not scored).
pub fn defense_key(from: Address) -> Option<u64> {
    match from {
        Address::Peer { id } => Some(id),
        Address::Ipc { index } => Some(IPC_KEY_BASE + index as u64),
        _ => None,
    }
}

/// Tuning knobs for a [`DefenseBook`]. The defaults are generous enough
/// that honest traffic — including transport-duplicated replies under
/// active fault plans — never trips anything; Byzantine suites tighten
/// them deliberately.
#[derive(Clone, Copy, Debug)]
pub struct DefenseParams {
    /// Misbehavior score at which a peer is quarantined.
    pub quarantine_threshold: u32,
    /// How long a quarantine lasts before parole (ms).
    pub quarantine_ms: u64,
    /// How long parole lasts before full reinstatement (ms).
    pub parole_ms: u64,
    /// Measurement bucket: inbound replies tolerated per `(peer, job)`.
    /// One is legitimate; fault plans can duplicate it once per copy, so
    /// the default leaves room before a trip.
    pub replies_per_job: u32,
    /// Per-peer influence budget: admitted observations beyond this are
    /// rejected as pollution. `u64::MAX` disables the bound.
    pub admit_budget: u64,
}

/// Coordinator bucket: concurrently outstanding (admitted, unfinished)
/// jobs a single peer may hold.
pub const MAX_OUTSTANDING_REQUESTS: usize = 8;

/// Plausibility band: a reply whose converted amount differs from the
/// initiator's own observation by more than this factor (either
/// direction) is rejected. Honest geo price discrimination is a few ×;
/// an 80×+ swing (one equivocation zero-run) is an attack.
pub const PLAUSIBILITY_BAND: f64 = 25.0;

impl Default for DefenseParams {
    fn default() -> Self {
        DefenseParams {
            quarantine_threshold: 6,
            quarantine_ms: 30_000,
            parole_ms: 15_000,
            replies_per_job: 3,
            admit_budget: u64::MAX,
        }
    }
}

/// A peer's standing with one book.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Standing {
    /// No recorded misbehavior.
    #[default]
    Good,
    /// Non-zero score below the quarantine threshold.
    Probation,
    /// Nothing from this peer is admitted.
    Quarantined,
    /// Re-admitted on trial; any violation re-quarantines immediately.
    Parole,
}

/// What the caller must do after recording a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefenseAction {
    /// Nothing beyond the recorded score.
    None,
    /// The peer just crossed into quarantine: arm a
    /// [`crate::protocol::TimerKind::Quarantine`] timer for
    /// [`DefenseParams::quarantine_ms`] and notify interested parties.
    Quarantine {
        /// The newly quarantined peer.
        peer: u64,
    },
}

/// Registry-free running totals (mirrors the `defense.*` counters; kept
/// separately so parity tests can compare books without a registry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DefenseTotals {
    /// Messages rejected by validation.
    pub validation_rejects: u64,
    /// Token-bucket quota trips.
    pub quota_trips: u64,
    /// Quarantine entries (including re-quarantines from parole).
    pub quarantines: u64,
    /// Clean paroles (full reinstatements).
    pub paroles: u64,
    /// Messages dropped because the sender was quarantined.
    pub quarantine_drops: u64,
    /// Admissions refused by the influence budget.
    pub budget_exhaustions: u64,
}

impl std::ops::AddAssign for DefenseTotals {
    fn add_assign(&mut self, t: DefenseTotals) {
        self.validation_rejects += t.validation_rejects;
        self.quota_trips += t.quota_trips;
        self.quarantines += t.quarantines;
        self.paroles += t.paroles;
        self.quarantine_drops += t.quarantine_drops;
        self.budget_exhaustions += t.budget_exhaustions;
    }
}

struct DefenseTelemetry {
    validation_rejects: Arc<Counter>,
    quota_trips: Arc<Counter>,
    quarantines: Arc<Counter>,
    paroles: Arc<Counter>,
    quarantine_drops: Arc<Counter>,
    budget_exhaustions: Arc<Counter>,
}

#[derive(Default)]
struct PeerRecord {
    score: u32,
    standing: Standing,
    /// Observations admitted from this peer (influence accounting).
    admitted: u64,
    /// Replies seen per job (the measurement-side bucket). Pruned by
    /// [`DefenseBook::forget_job`] when the job leaves the table.
    job_replies: BTreeMap<u64, u32>,
}

/// Per-peer misbehavior bookkeeping. See the module docs.
pub struct DefenseBook {
    params: DefenseParams,
    records: BTreeMap<u64, PeerRecord>,
    telemetry: Option<DefenseTelemetry>,
    /// Running totals, registry or not.
    pub totals: DefenseTotals,
}

impl DefenseBook {
    /// A book under `params`.
    pub fn new(params: DefenseParams) -> Self {
        DefenseBook {
            params,
            records: BTreeMap::new(),
            telemetry: None,
            totals: DefenseTotals::default(),
        }
    }

    /// Registers the book's counters (`defense.*`) in `registry`.
    pub fn with_telemetry(mut self, registry: &Arc<Registry>) -> Self {
        self.telemetry = Some(DefenseTelemetry {
            validation_rejects: registry.counter("defense.validation_rejects"),
            quota_trips: registry.counter("defense.quota_trips"),
            quarantines: registry.counter("defense.quarantines"),
            paroles: registry.counter("defense.paroles"),
            quarantine_drops: registry.counter("defense.quarantine_drops"),
            budget_exhaustions: registry.counter("defense.budget_exhaustions"),
        });
        self
    }

    /// The tuning this book runs under.
    pub fn params(&self) -> &DefenseParams {
        &self.params
    }

    /// Replaces the tuning (drivers configure after construction).
    pub fn set_params(&mut self, params: DefenseParams) {
        self.params = params;
    }

    /// The peer's current standing.
    pub fn standing(&self, peer: u64) -> Standing {
        self.records
            .get(&peer)
            .map_or(Standing::Good, |r| r.standing)
    }

    /// True when nothing from `peer` may be admitted right now.
    pub fn is_quarantined(&self, peer: u64) -> bool {
        self.standing(peer) == Standing::Quarantined
    }

    /// Observations admitted from `peer` so far.
    pub fn admitted_by(&self, peer: u64) -> u64 {
        self.records.get(&peer).map_or(0, |r| r.admitted)
    }

    /// Records a message dropped because its sender is quarantined.
    pub fn note_quarantine_drop(&mut self) {
        self.totals.quarantine_drops += 1;
        if let Some(t) = &self.telemetry {
            t.quarantine_drops.inc();
        }
    }

    /// An inbound message failed validation (+2 score).
    pub fn note_validation_reject(&mut self, peer: u64) -> DefenseAction {
        self.totals.validation_rejects += 1;
        if let Some(t) = &self.telemetry {
            t.validation_rejects.inc();
        }
        self.add_score(peer, 2)
    }

    /// A per-peer quota bucket emptied (+1 score).
    pub fn note_quota_trip(&mut self, peer: u64) -> DefenseAction {
        self.totals.quota_trips += 1;
        if let Some(t) = &self.telemetry {
            t.quota_trips.inc();
        }
        self.add_score(peer, 1)
    }

    /// A doppelganger state request bore an unknown token (+3 score).
    pub fn note_dopp_mismatch(&mut self, peer: u64) -> DefenseAction {
        self.add_score(peer, 3)
    }

    /// A remote book reported `score` worth of misbehavior (the
    /// Coordinator folding a Measurement server's `MisbehaviorReport`).
    pub fn note_remote_report(&mut self, peer: u64, score: u32) -> DefenseAction {
        self.add_score(peer, score)
    }

    /// Spends one reply token for `(peer, job)`. Returns `false` when
    /// the bucket is empty — the caller should reject and record a
    /// quota trip.
    pub fn spend_reply_token(&mut self, peer: u64, job: u64) -> bool {
        let limit = self.params.replies_per_job;
        let record = self.records.entry(peer).or_default();
        let seen = record.job_replies.entry(job).or_insert(0);
        *seen += 1;
        *seen <= limit
    }

    /// Releases every peer's reply bucket for a finished job.
    pub fn forget_job(&mut self, job: u64) {
        for record in self.records.values_mut() {
            record.job_replies.remove(&job);
        }
    }

    /// Accounts one admitted observation against the influence budget.
    /// Returns `false` (and scores the exhaustion) when the budget is
    /// already spent — the observation must then be rejected.
    pub fn admit_observation(&mut self, peer: u64) -> (bool, DefenseAction) {
        let budget = self.params.admit_budget;
        let record = self.records.entry(peer).or_default();
        if record.admitted >= budget {
            self.totals.budget_exhaustions += 1;
            if let Some(t) = &self.telemetry {
                t.budget_exhaustions.inc();
            }
            return (false, self.add_score(peer, 1));
        }
        record.admitted += 1;
        (true, DefenseAction::None)
    }

    /// The quarantine timer for `peer` elapsed: move to parole. Returns
    /// `true` when the caller should arm the parole timer. At most one
    /// quarantine timer is ever in flight per peer — entering quarantine
    /// arms exactly one, and violations *while* quarantined add score
    /// without re-arming — so a firing timer is never stale.
    pub fn on_quarantine_elapsed(&mut self, peer: u64) -> bool {
        let Some(record) = self.records.get_mut(&peer) else {
            return false;
        };
        if record.standing != Standing::Quarantined {
            return false;
        }
        record.standing = Standing::Parole;
        true
    }

    /// The parole timer for `peer` elapsed with no violation: full
    /// reinstatement, score forgiven.
    pub fn on_parole_elapsed(&mut self, peer: u64) {
        let Some(record) = self.records.get_mut(&peer) else {
            return;
        };
        if record.standing != Standing::Parole {
            return;
        }
        record.standing = Standing::Good;
        record.score = 0;
        self.totals.paroles += 1;
        if let Some(t) = &self.telemetry {
            t.paroles.inc();
        }
    }

    /// The peer's accumulated misbehavior score.
    pub fn score(&self, peer: u64) -> u32 {
        self.records.get(&peer).map_or(0, |r| r.score)
    }

    /// Every tracked peer's `(key, standing)`, in key order — the model
    /// checker's ladder-monotonicity invariant compares these snapshots
    /// across transitions.
    pub fn standings(&self) -> Vec<(u64, Standing)> {
        self.records
            .iter()
            .map(|(key, record)| (*key, record.standing))
            .collect()
    }

    /// Folds the book's logical state into `d` for model-checker state
    /// canonicalization. The book never sees a clock, so everything it
    /// holds is already time-translation invariant.
    pub fn state_digest(&self, d: &mut Digest) {
        d.write_u64(self.records.len() as u64);
        for (peer, record) in &self.records {
            d.write_u64(*peer);
            d.write_u64(u64::from(record.score));
            d.write_u64(record.standing as u64);
            d.write_u64(record.admitted);
            d.write_u64(record.job_replies.len() as u64);
            for (job, replies) in &record.job_replies {
                d.write_u64(*job);
                d.write_u64(u64::from(*replies));
            }
        }
    }

    fn add_score(&mut self, peer: u64, points: u32) -> DefenseAction {
        let threshold = self.params.quarantine_threshold;
        let record = self.records.entry(peer).or_default();
        record.score = record.score.saturating_add(points);
        match record.standing {
            // Already serving: the score grows but no new quarantine
            // entry is counted and no new timer is armed — at most one
            // quarantine timer is ever in flight per peer.
            Standing::Quarantined => DefenseAction::None,
            // Any violation on parole re-quarantines immediately.
            Standing::Parole => {
                record.standing = Standing::Quarantined;
                self.count_quarantine();
                DefenseAction::Quarantine { peer }
            }
            Standing::Good | Standing::Probation => {
                if record.score >= threshold {
                    record.standing = Standing::Quarantined;
                    self.count_quarantine();
                    DefenseAction::Quarantine { peer }
                } else {
                    record.standing = Standing::Probation;
                    DefenseAction::None
                }
            }
        }
    }

    fn count_quarantine(&mut self) {
        self.totals.quarantines += 1;
        if let Some(t) = &self.telemetry {
            t.quarantines.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book() -> DefenseBook {
        DefenseBook::new(DefenseParams {
            quarantine_threshold: 4,
            admit_budget: 2,
            replies_per_job: 1,
            ..DefenseParams::default()
        })
    }

    #[test]
    fn scores_walk_good_probation_quarantined() {
        let mut b = book();
        assert_eq!(b.standing(7), Standing::Good);
        assert_eq!(b.note_validation_reject(7), DefenseAction::None);
        assert_eq!(b.standing(7), Standing::Probation);
        assert_eq!(
            b.note_validation_reject(7),
            DefenseAction::Quarantine { peer: 7 }
        );
        assert!(b.is_quarantined(7));
        assert_eq!(b.totals.quarantines, 1);
        assert_eq!(b.totals.validation_rejects, 2);
    }

    #[test]
    fn quarantine_parole_reinstate_cycle() {
        let mut b = book();
        b.note_validation_reject(7);
        b.note_validation_reject(7);
        assert!(b.on_quarantine_elapsed(7));
        assert_eq!(b.standing(7), Standing::Parole);
        b.on_parole_elapsed(7);
        assert_eq!(b.standing(7), Standing::Good);
        assert_eq!(b.score(7), 0, "clean parole forgives the score");
        assert_eq!(b.totals.paroles, 1);
    }

    #[test]
    fn any_violation_on_parole_requarantines() {
        let mut b = book();
        b.note_validation_reject(7);
        b.note_validation_reject(7);
        assert!(b.on_quarantine_elapsed(7));
        assert_eq!(b.note_quota_trip(7), DefenseAction::Quarantine { peer: 7 });
        assert_eq!(b.totals.quarantines, 2);
        // The parole timer armed earlier is now stale and must not
        // reinstate the re-quarantined peer.
        b.on_parole_elapsed(7);
        assert!(b.is_quarantined(7));
    }

    #[test]
    fn quarantine_timer_ignores_non_quarantined_peers() {
        let mut b = book();
        assert!(!b.on_quarantine_elapsed(7), "unknown peer");
        b.note_quota_trip(7);
        assert!(!b.on_quarantine_elapsed(7), "probation is not quarantine");
        assert_eq!(b.standing(7), Standing::Probation);
    }

    #[test]
    fn reply_bucket_tolerates_the_limit_then_trips() {
        let mut b = book();
        assert!(b.spend_reply_token(7, 1), "the legitimate reply");
        assert!(!b.spend_reply_token(7, 1), "the flood");
        b.forget_job(1);
        assert!(b.spend_reply_token(7, 1), "bucket refills per job");
    }

    #[test]
    fn influence_budget_bounds_admissions() {
        let mut b = book();
        assert!(b.admit_observation(7).0);
        assert!(b.admit_observation(7).0);
        let (admitted, _) = b.admit_observation(7);
        assert!(!admitted, "third observation exceeds the budget of 2");
        assert_eq!(b.totals.budget_exhaustions, 1);
        assert_eq!(b.admitted_by(7), 2);
    }

    #[test]
    fn telemetry_counters_mirror_totals() {
        let registry = Arc::new(Registry::new());
        let mut b = book().with_telemetry(&registry);
        b.note_validation_reject(7);
        b.note_validation_reject(7);
        b.on_quarantine_elapsed(7);
        b.on_parole_elapsed(7);
        b.note_quarantine_drop();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["defense.validation_rejects"], 2);
        assert_eq!(snap.counters["defense.quarantines"], 1);
        assert_eq!(snap.counters["defense.paroles"], 1);
        assert_eq!(snap.counters["defense.quarantine_drops"], 1);
    }

    #[test]
    fn dopp_mismatch_scores_hardest() {
        let mut b = book();
        assert_eq!(b.note_dopp_mismatch(7), DefenseAction::None);
        assert_eq!(
            b.note_dopp_mismatch(7),
            DefenseAction::Quarantine { peer: 7 }
        );
    }
}
