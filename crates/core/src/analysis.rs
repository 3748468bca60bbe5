//! Analysis of collected price checks: the classification machinery behind
//! §6 (general findings), §7.3 (case studies), §7.4 (peer bias), and §7.5
//! (A/B-testing confirmation).

use std::collections::BTreeMap;

use sheriff_geo::Country;
use sheriff_stats::{ks_test, mean};

use crate::records::PriceCheck;

/// Per-domain aggregation of price-check outcomes.
#[derive(Clone, Debug)]
pub struct DomainAnalysis {
    /// Domain name.
    pub domain: String,
    /// Total checks against the domain.
    pub requests: usize,
    /// Checks where any two vantage points disagreed (beyond epsilon).
    pub requests_with_difference: usize,
    /// Relative spreads of the differing checks.
    pub spreads: Vec<f64>,
    /// Checks where vantage points disagreed *within one country*.
    pub within_country_events: usize,
    /// The within-country spreads observed.
    pub within_country_spreads: Vec<f64>,
}

impl DomainAnalysis {
    /// Median spread among differing checks (the Fig. 9 box median).
    pub fn median_spread(&self) -> Option<f64> {
        if self.spreads.is_empty() {
            return None;
        }
        Some(sheriff_stats::quantile(&self.spreads, 0.5))
    }

    /// Fraction of requests with a price difference (Table 5's metric).
    pub fn percent_with_difference(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        100.0 * self.requests_with_difference as f64 / self.requests as f64
    }
}

/// The paper's three-way outcome for a domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DomainVerdict {
    /// No price variation beyond tolerance.
    Uniform,
    /// Varies across locations only — location-based PD.
    LocationBased,
    /// Also varies within a country — candidate PDI-PD or A/B testing,
    /// needs the §7.4/§7.5 follow-up.
    WithinCountry,
}

/// Aggregates checks per domain.
///
/// `epsilon` is the relative tolerance below which two prices count as
/// equal (currency-conversion rounding noise; the paper manually excluded
/// such artifacts).
pub fn analyze_domains(checks: &[PriceCheck], epsilon: f64) -> Vec<DomainAnalysis> {
    let mut map: BTreeMap<&str, DomainAnalysis> = BTreeMap::new();
    for check in checks {
        let entry = map
            .entry(check.domain.as_str())
            .or_insert_with(|| DomainAnalysis {
                domain: check.domain.clone(),
                requests: 0,
                requests_with_difference: 0,
                spreads: Vec::new(),
                within_country_events: 0,
                within_country_spreads: Vec::new(),
            });
        entry.requests += 1;
        if let Some(spread) = check.relative_spread() {
            if spread > epsilon {
                entry.requests_with_difference += 1;
                entry.spreads.push(spread);
            }
        }
        // Within-country differences: any country with ≥2 observations.
        let mut countries: Vec<Country> = check.confident().map(|o| o.country).collect();
        countries.sort_unstable();
        countries.dedup();
        let mut within_event = false;
        for c in countries {
            if let Some(s) = check.within_country_spread(c) {
                if s > epsilon {
                    within_event = true;
                    entry.within_country_spreads.push(s);
                }
            }
        }
        if within_event {
            entry.within_country_events += 1;
        }
    }
    map.into_values().collect()
}

/// Classifies a domain, requiring `min_events` suspicious checks before the
/// within-country verdict (the paper required ≥10, §7.1).
pub fn classify(analysis: &DomainAnalysis, min_events: usize) -> DomainVerdict {
    if analysis.within_country_events >= min_events {
        DomainVerdict::WithinCountry
    } else if analysis.requests_with_difference > 0 {
        DomainVerdict::LocationBased
    } else {
        DomainVerdict::Uniform
    }
}

/// Per-peer price-difference distribution for one domain within one
/// country (Fig. 13's box plots).
#[derive(Clone, Debug)]
pub struct PeerBias {
    /// The peer's vantage id.
    pub peer: u64,
    /// Relative difference to the cheapest same-product observation, one
    /// entry per check the peer participated in.
    pub diffs: Vec<f64>,
}

impl PeerBias {
    /// Median difference — a peer consistently above 0 is "biased high".
    pub fn median(&self) -> f64 {
        if self.diffs.is_empty() {
            return 0.0;
        }
        sheriff_stats::quantile(&self.diffs, 0.5)
    }
}

/// Computes per-peer bias across `checks` of `domain` restricted to
/// `country`. For each check, every peer's price is compared against the
/// cheapest valid observation in that country.
pub fn peer_bias(checks: &[PriceCheck], domain: &str, country: Country) -> Vec<PeerBias> {
    let mut per_peer: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for check in checks.iter().filter(|c| c.domain == domain) {
        let in_country = check.in_country(country);
        if in_country.len() < 2 {
            continue;
        }
        let min = in_country
            .iter()
            .map(|o| o.amount_eur)
            .fold(f64::INFINITY, f64::min);
        if min <= 0.0 {
            continue;
        }
        for o in in_country {
            per_peer
                .entry(o.vantage_id)
                .or_default()
                .push((o.amount_eur - min) / min);
        }
    }
    per_peer
        .into_iter()
        .map(|(peer, diffs)| PeerBias { peer, diffs })
        .collect()
}

/// §7.5's distribution test: pairwise K-S over the per-peer difference
/// distributions. If all pairs look drawn from the same distribution, the
/// variation is A/B-style randomization, not peer-targeted.
#[derive(Clone, Copy, Debug)]
pub struct AbVerdict {
    /// Largest pairwise K-S statistic.
    pub max_d: f64,
    /// Smallest pairwise p-value.
    pub min_p: f64,
    /// Number of pairs tested.
    pub pairs: usize,
    /// True when no pair rejects the same-distribution hypothesis at 5%.
    pub same_distribution: bool,
}

/// Runs the pairwise K-S analysis over peers with enough samples.
pub fn ab_test_analysis(bias: &[PeerBias], min_samples: usize) -> AbVerdict {
    let eligible: Vec<&PeerBias> = bias
        .iter()
        .filter(|b| b.diffs.len() >= min_samples)
        .collect();
    let mut max_d: f64 = 0.0;
    let mut min_p: f64 = 1.0;
    let mut pairs = 0;
    for (i, a) in eligible.iter().enumerate() {
        for b in eligible.iter().skip(i + 1) {
            let r = ks_test(&a.diffs, &b.diffs);
            max_d = max_d.max(r.d);
            min_p = min_p.min(r.p_value);
            pairs += 1;
        }
    }
    AbVerdict {
        max_d,
        min_p,
        pairs,
        same_distribution: pairs == 0 || min_p > 0.05,
    }
}

/// Mean fraction of observations strictly above the check minimum — §7.5's
/// "approximately 50% probability to observe a higher price" signature of
/// A/B testing.
pub fn higher_price_probability(checks: &[PriceCheck], domain: &str) -> f64 {
    let mut fractions = Vec::new();
    for check in checks.iter().filter(|c| c.domain == domain) {
        let prices: Vec<f64> = check.confident().map(|o| o.amount_eur).collect();
        if prices.len() < 2 {
            continue;
        }
        let min = prices.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        if min <= 0.0 {
            continue;
        }
        let higher = prices.iter().filter(|&&p| p > min * 1.0001).count();
        fractions.push(higher as f64 / prices.len() as f64);
    }
    mean(&fractions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{PriceObservation, VantageKind};
    use sheriff_geo::IpV4;

    fn obs(peer: u64, country: Country, eur: f64) -> PriceObservation {
        PriceObservation {
            vantage: VantageKind::Ppc,
            vantage_id: peer,
            country,
            city: None,
            ip: IpV4(peer as u32),
            raw_text: String::new(),
            currency: "EUR".into(),
            amount: eur,
            amount_eur: eur,
            low_confidence: false,
            failed: false,
        }
    }

    fn check(domain: &str, observations: Vec<PriceObservation>) -> PriceCheck {
        PriceCheck {
            job_id: 0,
            domain: domain.into(),
            url: "/p".into(),
            day: 0,
            observations,
        }
    }

    #[test]
    fn uniform_domain_classified_uniform() {
        let checks = vec![check(
            "flat.com",
            vec![obs(1, Country::ES, 10.0), obs(2, Country::US, 10.0)],
        )];
        let a = analyze_domains(&checks, 0.001);
        assert_eq!(classify(&a[0], 1), DomainVerdict::Uniform);
        assert_eq!(a[0].percent_with_difference(), 0.0);
    }

    #[test]
    fn location_pd_detected() {
        let checks = vec![check(
            "geo.com",
            vec![obs(1, Country::ES, 10.0), obs(2, Country::US, 15.0)],
        )];
        let a = analyze_domains(&checks, 0.001);
        assert_eq!(classify(&a[0], 1), DomainVerdict::LocationBased);
        assert!((a[0].median_spread().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn within_country_detected_with_threshold() {
        let mk = || {
            check(
                "ab.com",
                vec![
                    obs(1, Country::ES, 10.0),
                    obs(2, Country::ES, 10.7),
                    obs(3, Country::US, 10.0),
                ],
            )
        };
        let one = vec![mk()];
        let a = analyze_domains(&one, 0.001);
        // One event, threshold 10 → only location-based.
        assert_eq!(classify(&a[0], 10), DomainVerdict::LocationBased);
        let many: Vec<PriceCheck> = (0..12).map(|_| mk()).collect();
        let a = analyze_domains(&many, 0.001);
        assert_eq!(classify(&a[0], 10), DomainVerdict::WithinCountry);
        assert_eq!(a[0].within_country_events, 12);
    }

    #[test]
    fn epsilon_suppresses_rounding_noise() {
        let checks = vec![check(
            "noise.com",
            vec![obs(1, Country::ES, 100.0), obs(2, Country::US, 100.04)],
        )];
        let a = analyze_domains(&checks, 0.001);
        assert_eq!(a[0].requests_with_difference, 0);
    }

    #[test]
    fn peer_bias_identifies_high_peer() {
        // Peer 9 always sees +7%, everyone else the base price.
        let checks: Vec<PriceCheck> = (0..20)
            .map(|_| {
                check(
                    "jcp.com",
                    vec![
                        obs(1, Country::GB, 100.0),
                        obs(2, Country::GB, 100.0),
                        obs(9, Country::GB, 107.0),
                    ],
                )
            })
            .collect();
        let bias = peer_bias(&checks, "jcp.com", Country::GB);
        let p9 = bias.iter().find(|b| b.peer == 9).unwrap();
        assert!((p9.median() - 0.07).abs() < 1e-9);
        let p1 = bias.iter().find(|b| b.peer == 1).unwrap();
        assert_eq!(p1.median(), 0.0);
    }

    #[test]
    fn ab_analysis_flags_same_distribution() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        // All peers draw diffs from the same two-point distribution.
        let bias: Vec<PeerBias> = (0..5)
            .map(|peer| PeerBias {
                peer,
                diffs: (0..60)
                    .map(|_| if rng.gen::<bool>() { 0.0 } else { 0.05 })
                    .collect(),
            })
            .collect();
        let v = ab_test_analysis(&bias, 30);
        assert!(v.same_distribution, "max_d={} min_p={}", v.max_d, v.min_p);
        assert!(v.pairs > 0);
    }

    #[test]
    fn ab_analysis_rejects_biased_peer() {
        // One peer sees only high prices: distribution differs.
        let mut bias: Vec<PeerBias> = (0..4)
            .map(|peer| PeerBias {
                peer,
                diffs: (0..60)
                    .map(|i| if i % 2 == 0 { 0.0 } else { 0.05 })
                    .collect(),
            })
            .collect();
        bias.push(PeerBias {
            peer: 99,
            diffs: vec![0.05; 60],
        });
        let v = ab_test_analysis(&bias, 30);
        assert!(!v.same_distribution);
        assert!(v.max_d >= 0.5);
    }

    #[test]
    fn higher_price_probability_near_half_for_ab() {
        let checks: Vec<PriceCheck> = (0..50)
            .map(|i| {
                let prices: Vec<PriceObservation> = (0..10)
                    .map(|p| {
                        let high = (i + p) % 2 == 0;
                        obs(p as u64, Country::ES, if high { 105.0 } else { 100.0 })
                    })
                    .collect();
                check("ab.com", prices)
            })
            .collect();
        let prob = higher_price_probability(&checks, "ab.com");
        assert!((prob - 0.5).abs() < 0.05, "prob={prob}");
    }
}
