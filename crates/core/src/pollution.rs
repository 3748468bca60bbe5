//! Pollution accounting (paper §3.6.2).
//!
//! A PPC serving remote price checks with its own client-side state alters
//! the server-side state retailers keep about it. The paper bounds this:
//! "we allow one new product page request for every 4 product pages that
//! the real user of the PPC has visited on the given domain" (25% tolerable
//! pollution). Past the budget, the PPC swaps in its doppelganger. The same
//! rule (and a 50% saturation trigger for regeneration) governs
//! doppelgangers themselves.

use std::collections::BTreeMap;

/// How a remote fetch should be executed, per the §3.6.2 decision tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchMode {
    /// The user never visited the domain: fetch sandboxed with own state;
    /// all resulting client-side state is deleted, no budget is consumed.
    CleanOwnState,
    /// The user visits this domain and budget remains: fetch with own
    /// (real) state — the valuable PDI-PD vantage — consuming budget.
    RealOwnState,
    /// Budget exhausted: fetch with the doppelganger's client-side state.
    Doppelganger,
}

/// Per-domain visit/remote-fetch ledger for one browser profile.
#[derive(Clone, Debug, Default)]
pub struct PollutionLedger {
    /// domain → (real user product-page visits, remote fetches charged).
    counts: BTreeMap<String, (u64, u64)>,
    /// Remote fetches per 4 real visits (paper: 1).
    per_four: u64,
}

impl PollutionLedger {
    /// Ledger with the paper's 25% tolerance (1 remote per 4 real visits).
    pub fn new() -> Self {
        PollutionLedger {
            counts: BTreeMap::new(),
            per_four: 1,
        }
    }

    /// Records real user product-page visits on `domain`.
    pub fn record_real_visits(&mut self, domain: &str, n: u64) {
        self.counts.entry(domain.to_string()).or_default().0 += n;
    }

    /// Real visits recorded for `domain`.
    pub fn real_visits(&self, domain: &str) -> u64 {
        self.counts.get(domain).map_or(0, |c| c.0)
    }

    /// Remote fetches charged against `domain`.
    pub fn remote_fetches(&self, domain: &str) -> u64 {
        self.counts.get(domain).map_or(0, |c| c.1)
    }

    /// Remote-fetch budget for `domain`: ⌊visits / 4⌋ · per_four.
    pub fn budget(&self, domain: &str) -> u64 {
        self.real_visits(domain) / 4 * self.per_four
    }

    /// Decides how a remote fetch towards `domain` must execute, charging
    /// the budget when real state is used.
    pub fn decide_and_charge(&mut self, domain: &str) -> FetchMode {
        let visits = self.real_visits(domain);
        if visits == 0 {
            // Never visited: no server-side state to protect; fetch clean.
            return FetchMode::CleanOwnState;
        }
        let budget = self.budget(domain);
        let entry = self.counts.entry(domain.to_string()).or_default();
        if entry.1 < budget {
            entry.1 += 1;
            FetchMode::RealOwnState
        } else {
            FetchMode::Doppelganger
        }
    }

    /// Fraction of visited domains whose budget is exhausted — the
    /// saturation measure that triggers doppelganger regeneration at 50%.
    pub fn saturation(&self) -> f64 {
        let visited: Vec<_> = self.counts.iter().filter(|(_, (v, _))| *v > 0).collect();
        if visited.is_empty() {
            return 0.0;
        }
        let saturated = visited
            .iter()
            .filter(|(d, (_, r))| *r >= self.budget(d))
            .count();
        saturated as f64 / visited.len() as f64
    }

    /// Domains with any recorded activity.
    pub fn domains(&self) -> impl Iterator<Item = &str> {
        self.counts.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unvisited_domain_fetches_clean() {
        let mut l = PollutionLedger::new();
        assert_eq!(l.decide_and_charge("shop.com"), FetchMode::CleanOwnState);
        // Clean fetches never consume budget.
        assert_eq!(l.remote_fetches("shop.com"), 0);
    }

    #[test]
    fn one_remote_per_four_visits() {
        let mut l = PollutionLedger::new();
        l.record_real_visits("shop.com", 8);
        assert_eq!(l.budget("shop.com"), 2);
        assert_eq!(l.decide_and_charge("shop.com"), FetchMode::RealOwnState);
        assert_eq!(l.decide_and_charge("shop.com"), FetchMode::RealOwnState);
        assert_eq!(l.decide_and_charge("shop.com"), FetchMode::Doppelganger);
        assert_eq!(
            l.remote_fetches("shop.com"),
            2,
            "doppelganger fetches not charged"
        );
    }

    #[test]
    fn three_visits_grant_no_budget() {
        let mut l = PollutionLedger::new();
        l.record_real_visits("shop.com", 3);
        assert_eq!(l.budget("shop.com"), 0);
        assert_eq!(l.decide_and_charge("shop.com"), FetchMode::Doppelganger);
    }

    #[test]
    fn new_visits_replenish_budget() {
        let mut l = PollutionLedger::new();
        l.record_real_visits("shop.com", 4);
        assert_eq!(l.decide_and_charge("shop.com"), FetchMode::RealOwnState);
        assert_eq!(l.decide_and_charge("shop.com"), FetchMode::Doppelganger);
        l.record_real_visits("shop.com", 4);
        assert_eq!(l.decide_and_charge("shop.com"), FetchMode::RealOwnState);
    }

    #[test]
    fn saturation_counts_exhausted_domains() {
        let mut l = PollutionLedger::new();
        l.record_real_visits("a.com", 4);
        l.record_real_visits("b.com", 40);
        // a.com: budget 1, exhaust it.
        let _ = l.decide_and_charge("a.com");
        assert!((l.saturation() - 0.5).abs() < 1e-9, "a saturated, b not");
        assert!(l.saturation() >= 0.5, "regeneration threshold reached");
    }

    #[test]
    fn empty_ledger_zero_saturation() {
        assert_eq!(PollutionLedger::new().saturation(), 0.0);
    }
}
