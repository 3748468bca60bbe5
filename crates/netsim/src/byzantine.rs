//! Seed-deterministic Byzantine *peer* misbehavior for the delivery path.
//!
//! Where [`crate::fault::FaultPlan`] models an unreliable network (drops,
//! duplicates, delays, crashes), a [`ByzantinePlan`] models unreliable
//! *participants*: peers that lie. Each misbehaving node carries a
//! [`ByzProfile`] describing how it corrupts its own outbound traffic —
//! price equivocation (different values to different recipients),
//! fabricated vantage metadata, stale-replay of old content, flooding,
//! and codec-boundary attacks (malformed / oversized / slow-loris
//! frames). The plan only *decides*; the protocol-typed mutation lives in
//! `sheriff-core` (which knows the message shapes), and both backends
//! apply it at the sender's edge: the DES dispatch path and the TCP
//! reactor's write edge.
//!
//! Determinism contract, identical to `FaultPlan`'s: every decision is a
//! pure function of `(plan seed, from, to, n)` where `n` is the
//! per-directed-link occurrence counter, drawn from a *private* hashed
//! RNG stream. A plan with no profiles (or all-zero profiles) is a
//! strict no-op: [`ByzantinePlan::is_active`] is `false` and no driver
//! consults it at all. Because decisions are counted at the *sender's*
//! edge — before network faults, before any socket — the running
//! [`ByzStats`] totals are identical across backends by construction.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::splitmix64;

/// How one Byzantine node corrupts its outbound traffic. All
/// probabilities are per-eligible-message; `flood_copies` is a count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ByzProfile {
    /// Probability an outbound price reply is *equivocated*: skewed by a
    /// recipient-dependent amount, so two recipients see two different
    /// prices for the same fetch.
    pub equivocate: f64,
    /// Probability the vantage metadata is fabricated (identity / geo /
    /// currency envelope forged).
    pub fabricate: f64,
    /// Probability the payload is replaced with stale replayed content
    /// (old page bytes, expired doppelganger tokens).
    pub stale_replay: f64,
    /// Junk messages injected alongside each eligible send (Ack-flood /
    /// request-flood). Zero disables.
    pub flood_copies: u32,
    /// Probability the frame is written malformed (valid length prefix,
    /// garbage payload) — a codec-boundary attack. Under DES, where no
    /// codec exists, the message is simply destroyed.
    pub codec_garbage: f64,
    /// Probability the frame lies about its length (`MAX_FRAME_LEN + 1`).
    pub codec_oversize: f64,
    /// Probability the frame is written partially and abandoned
    /// (slow-loris: the receiver waits on bytes that never come).
    pub slow_loris: f64,
}

impl ByzProfile {
    /// A perfectly honest node (all probabilities zero, no flooding).
    pub const HONEST: ByzProfile = ByzProfile {
        equivocate: 0.0,
        fabricate: 0.0,
        stale_replay: 0.0,
        flood_copies: 0,
        codec_garbage: 0.0,
        codec_oversize: 0.0,
        slow_loris: 0.0,
    };

    /// True when every knob is zero.
    pub fn is_honest(&self) -> bool {
        self.equivocate == 0.0
            && self.fabricate == 0.0
            && self.stale_replay == 0.0
            && self.flood_copies == 0
            && self.codec_garbage == 0.0
            && self.codec_oversize == 0.0
            && self.slow_loris == 0.0
    }
}

impl Default for ByzProfile {
    fn default() -> Self {
        ByzProfile::HONEST
    }
}

/// Which codec-boundary attack a send was turned into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecAttack {
    /// Well-formed length prefix, garbage payload bytes.
    Garbage,
    /// Length prefix claiming more than the receiver's frame cap.
    Oversize,
    /// Partial frame then silence (slow-loris).
    SlowLoris,
}

/// What the plan decided for one outbound message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByzDecision {
    /// Recipient-dependent skew salt when equivocating.
    pub equivocate_salt: Option<u64>,
    /// Forge the vantage metadata.
    pub fabricate: bool,
    /// Replace the payload with stale replayed content.
    pub stale_replay: bool,
    /// Junk messages to inject alongside this send.
    pub flood_copies: u32,
    /// Turn the frame itself into a codec-boundary attack (the payload
    /// never reaches the receiving machine on either backend).
    pub codec: Option<CodecAttack>,
    /// Occurrence number of this message on its directed link — the
    /// mutation layer salts deterministic junk (tags, token bits) with it.
    pub occurrence: u64,
}

impl ByzDecision {
    /// Honest delivery, untouched.
    pub const HONEST: ByzDecision = ByzDecision {
        equivocate_salt: None,
        fabricate: false,
        stale_replay: false,
        flood_copies: 0,
        codec: None,
        occurrence: 0,
    };

    /// True when the decision leaves the message untouched.
    pub fn is_honest(&self) -> bool {
        self.equivocate_salt.is_none()
            && !self.fabricate
            && !self.stale_replay
            && self.flood_copies == 0
            && self.codec.is_none()
    }
}

/// Running totals kept by the plan itself. Counted at decision time —
/// the sender's edge — so the same plan yields the same totals on the
/// DES and TCP backends regardless of what the defense layer later
/// rejects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByzStats {
    /// Messages skewed per-recipient.
    pub equivocated: u64,
    /// Messages with forged vantage metadata.
    pub fabricated: u64,
    /// Messages replaced with stale replayed content.
    pub stale_replayed: u64,
    /// Junk messages injected by flooding.
    pub flooded: u64,
    /// Frames destroyed at the codec boundary (garbage + oversize +
    /// slow-loris).
    pub codec_attacks: u64,
}

/// Per-node misbehavior schedule. Nodes are identified by the same
/// fault indices `FaultPlan` uses (`coordinator, aggregator, db?,
/// servers…, ipcs…, ppcs…`), so one index map serves both plans.
#[derive(Clone, Debug, Default)]
pub struct ByzantinePlan {
    seed: u64,
    profiles: BTreeMap<usize, ByzProfile>,
    /// Per-directed-link occurrence counters (send order on a link is
    /// FIFO on both backends, so the counters advance identically).
    counts: BTreeMap<(usize, usize), u64>,
    /// Running decision totals.
    pub stats: ByzStats,
}

impl ByzantinePlan {
    /// An empty (honest) plan under `seed`.
    pub fn new(seed: u64) -> Self {
        ByzantinePlan {
            seed,
            profiles: BTreeMap::new(),
            counts: BTreeMap::new(),
            stats: ByzStats::default(),
        }
    }

    /// Marks node `node` Byzantine with `profile`.
    pub fn with_profile(mut self, node: usize, profile: ByzProfile) -> Self {
        self.profiles.insert(node, profile);
        self
    }

    /// True when any node carries a non-honest profile. Drivers skip the
    /// plan entirely when inactive, which is what makes an all-zero plan
    /// a strict no-op.
    pub fn is_active(&self) -> bool {
        self.profiles.values().any(|p| !p.is_honest())
    }

    /// Nodes with a non-honest profile, ascending.
    pub fn byzantine_nodes(&self) -> Vec<usize> {
        self.profiles
            .iter()
            .filter(|(_, p)| !p.is_honest())
            .map(|(&n, _)| n)
            .collect()
    }

    /// Decides the corruption of the next message on the directed link
    /// `from → to`. Advances the link's occurrence counter; decisions
    /// never touch any RNG outside this call. `price_bearing` marks
    /// messages whose payload carries a price/metadata surface the
    /// content arms (equivocate / fabricate / stale-replay) can attack;
    /// flooding and codec attacks apply to any message.
    pub fn decide(&mut self, from: usize, to: usize, price_bearing: bool) -> ByzDecision {
        let n = self.counts.entry((from, to)).or_insert(0);
        let occurrence = *n;
        *n += 1;

        let Some(profile) = self.profiles.get(&from).copied() else {
            return ByzDecision::HONEST;
        };
        if profile.is_honest() {
            return ByzDecision::HONEST;
        }

        // One private RNG per message, derived purely from (seed, link,
        // n) — the FaultPlan recipe, under a distinct domain separator so
        // combining both plans never correlates their draws.
        let per_msg = splitmix64(
            self.seed
                ^ 0xB12A_17EE_5EED_C0DE
                ^ splitmix64(((from as u64) << 32) | to as u64).wrapping_add(occurrence),
        );
        let mut rng = StdRng::seed_from_u64(per_msg);

        // Fixed draw order so enabling one arm never shifts another.
        let equivocate = profile.equivocate > 0.0 && rng.gen_bool(profile.equivocate.min(1.0));
        let fabricate = profile.fabricate > 0.0 && rng.gen_bool(profile.fabricate.min(1.0));
        let stale = profile.stale_replay > 0.0 && rng.gen_bool(profile.stale_replay.min(1.0));
        let garbage = profile.codec_garbage > 0.0 && rng.gen_bool(profile.codec_garbage.min(1.0));
        let oversize =
            profile.codec_oversize > 0.0 && rng.gen_bool(profile.codec_oversize.min(1.0));
        let loris = profile.slow_loris > 0.0 && rng.gen_bool(profile.slow_loris.min(1.0));
        // The skew salt binds to the recipient: the same fetch answered
        // to two destinations lands on two different link streams and
        // thus two different salts — that *is* the equivocation.
        let salt = splitmix64(per_msg ^ (to as u64));

        let mut d = ByzDecision {
            occurrence,
            ..ByzDecision::HONEST
        };
        // Codec attacks destroy the frame outright and dominate the
        // content arms; precedence garbage > oversize > slow-loris.
        if garbage {
            d.codec = Some(CodecAttack::Garbage);
        } else if oversize {
            d.codec = Some(CodecAttack::Oversize);
        } else if loris {
            d.codec = Some(CodecAttack::SlowLoris);
        }
        if let Some(_attack) = d.codec {
            self.stats.codec_attacks += 1;
            return d;
        }
        if price_bearing {
            if equivocate {
                d.equivocate_salt = Some(salt);
                self.stats.equivocated += 1;
            }
            if fabricate {
                d.fabricate = true;
                self.stats.fabricated += 1;
            }
            if stale {
                d.stale_replay = true;
                self.stats.stale_replayed += 1;
            }
        }
        if profile.flood_copies > 0 {
            d.flood_copies = profile.flood_copies;
            self.stats.flooded += u64::from(profile.flood_copies);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lying(p: f64) -> ByzProfile {
        ByzProfile {
            equivocate: p,
            fabricate: p,
            stale_replay: p,
            ..ByzProfile::HONEST
        }
    }

    #[test]
    fn empty_and_all_zero_plans_are_inactive() {
        assert!(!ByzantinePlan::new(7).is_active());
        let p = ByzantinePlan::new(7).with_profile(3, ByzProfile::HONEST);
        assert!(!p.is_active());
        assert!(p.byzantine_nodes().is_empty());
    }

    #[test]
    fn honest_nodes_are_never_corrupted() {
        let mut p = ByzantinePlan::new(7).with_profile(3, lying(1.0));
        for _ in 0..50 {
            assert!(p.decide(4, 0, true).is_honest(), "node 4 is honest");
        }
        assert_eq!(p.stats, ByzStats::default());
    }

    #[test]
    fn decisions_are_a_pure_function_of_seed_link_and_occurrence() {
        let mut a = ByzantinePlan::new(42).with_profile(3, lying(0.5));
        let mut b = ByzantinePlan::new(42).with_profile(3, lying(0.5));
        for i in 0..100 {
            assert_eq!(a.decide(3, 0, true), b.decide(3, 0, true), "msg {i}");
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn equivocation_salt_differs_per_recipient() {
        let mut p = ByzantinePlan::new(42).with_profile(
            3,
            ByzProfile {
                equivocate: 1.0,
                ..ByzProfile::HONEST
            },
        );
        let to_a = p.decide(3, 0, true).equivocate_salt.expect("skewed");
        let to_b = p.decide(3, 1, true).equivocate_salt.expect("skewed");
        assert_ne!(to_a, to_b, "two recipients, two prices");
    }

    #[test]
    fn non_price_bearing_messages_escape_the_content_arms() {
        let mut p = ByzantinePlan::new(42).with_profile(3, lying(1.0));
        let d = p.decide(3, 0, false);
        assert!(d.is_honest());
        assert_eq!(p.stats.equivocated, 0);
    }

    #[test]
    fn flooding_and_codec_attacks_apply_to_any_message() {
        let mut p = ByzantinePlan::new(42).with_profile(
            3,
            ByzProfile {
                flood_copies: 4,
                ..ByzProfile::HONEST
            },
        );
        let d = p.decide(3, 0, false);
        assert_eq!(d.flood_copies, 4);
        assert_eq!(p.stats.flooded, 4);

        let mut p = ByzantinePlan::new(42).with_profile(
            3,
            ByzProfile {
                codec_oversize: 1.0,
                ..ByzProfile::HONEST
            },
        );
        let d = p.decide(3, 0, false);
        assert_eq!(d.codec, Some(CodecAttack::Oversize));
        assert_eq!(p.stats.codec_attacks, 1);
    }

    #[test]
    fn codec_attacks_dominate_content_arms() {
        let mut p = ByzantinePlan::new(42).with_profile(
            3,
            ByzProfile {
                equivocate: 1.0,
                codec_garbage: 1.0,
                flood_copies: 2,
                ..ByzProfile::HONEST
            },
        );
        let d = p.decide(3, 0, true);
        assert_eq!(d.codec, Some(CodecAttack::Garbage));
        assert!(d.equivocate_salt.is_none(), "frame is destroyed anyway");
        assert_eq!(d.flood_copies, 0, "no flood rides a destroyed frame");
    }

    #[test]
    fn occurrence_counters_advance_even_for_honest_senders() {
        // The counter is per-link bookkeeping, not per-profile: adding a
        // profile to a node mid-plan must not rewind its history.
        let mut p = ByzantinePlan::new(42).with_profile(3, lying(1.0));
        let first = p.decide(3, 0, true);
        let second = p.decide(3, 0, true);
        assert_eq!(first.occurrence, 0);
        assert_eq!(second.occurrence, 1);
    }
}
