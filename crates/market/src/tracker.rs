//! The third-party tracking ecosystem.
//!
//! Trackers are the suspected *information channel* for PDI-PD (§2.2
//! req. 2): they observe users across sites, build profiles, and could feed
//! them to pricing engines. The simulator models a small roster of tracker
//! domains; each maintains a per-user `profile_score` ∈ \[0,1\] (a wealth /
//! purchase-intent proxy) derived deterministically from the user's
//! browsing profile, and drops a third-party cookie carrying it whenever a
//! page embedding the tracker is fetched.

use serde::{Deserialize, Serialize};

use crate::cookies::{Cookie, CookieJar};
use crate::{hash_mix, hash_str};

/// Tracker domains embedded across the synthetic web.
pub const TRACKER_DOMAINS: &[&str] = &[
    "ads.trackly.example",
    "pixel.adnet.example",
    "sync.datapool.example",
    "tag.metric.example",
];

/// A third-party tracker.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Tracker {
    /// The tracker's domain.
    pub domain: String,
}

impl Tracker {
    /// Tracker by roster index (wraps).
    #[expect(clippy::indexing_slicing, reason = "the index is mod len")]
    pub fn by_index(i: usize) -> Tracker {
        Tracker {
            domain: TRACKER_DOMAINS[i % TRACKER_DOMAINS.len()].to_string(),
        }
    }

    /// The profile score this tracker assigns to a user whose (domain-level)
    /// browsing is summarized by `affluence` ∈ \[0,1\]. Trackers see slightly
    /// different views of the same user, so the score is affluence plus a
    /// small deterministic tracker-specific perturbation.
    pub fn score_for(&self, user_affluence: f64, user_id: u64) -> f64 {
        let h = hash_mix(&[hash_str(&self.domain), user_id]);
        let noise = (h % 1000) as f64 / 1000.0 * 0.1 - 0.05;
        (user_affluence + noise).clamp(0.0, 1.0)
    }

    /// Drops/updates this tracker's cookie in `jar` during a page fetch.
    pub fn drop_cookie(&self, jar: &mut CookieJar, user_affluence: f64, user_id: u64) {
        let score = self.score_for(user_affluence, user_id);
        jar.set(
            &self.domain,
            Cookie {
                name: "profile_score".into(),
                value: format!("{score:.3}"),
                third_party: true,
            },
        );
        jar.set(
            &self.domain,
            Cookie {
                name: "uid".into(),
                value: format!("{user_id:016x}"),
                third_party: true,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_is_nonempty_and_wraps() {
        assert!(TRACKER_DOMAINS.len() >= 3);
        assert_eq!(
            Tracker::by_index(0).domain,
            Tracker::by_index(TRACKER_DOMAINS.len()).domain
        );
    }

    #[test]
    fn score_tracks_affluence() {
        let t = Tracker::by_index(0);
        let low = t.score_for(0.1, 42);
        let high = t.score_for(0.9, 42);
        assert!(high > low);
        assert!((0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high));
    }

    #[test]
    fn score_is_deterministic_per_user_and_tracker() {
        let t = Tracker::by_index(1);
        assert_eq!(t.score_for(0.5, 7), t.score_for(0.5, 7));
        // Different trackers perturb differently (usually).
        let other = Tracker::by_index(2);
        assert_ne!(
            (t.score_for(0.5, 7) * 1e6) as u64,
            (other.score_for(0.5, 7) * 1e6) as u64
        );
    }

    #[test]
    fn drop_cookie_installs_third_party_state() {
        let t = Tracker::by_index(0);
        let mut jar = CookieJar::new();
        t.drop_cookie(&mut jar, 0.7, 99);
        assert!(jar.value(&t.domain, "profile_score").is_some());
        assert!(jar.value(&t.domain, "uid").is_some());
        assert_eq!(jar.third_party_domains(), vec![t.domain.as_str()]);
        // Idempotent size: re-dropping replaces, not duplicates.
        t.drop_cookie(&mut jar, 0.7, 99);
        assert_eq!(jar.len(), 2);
    }
}
