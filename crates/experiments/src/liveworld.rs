//! The 12-month live deployment (paper §6): real users issuing price
//! checks through the full system, harvested as the "live dataset" behind
//! Fig. 9, Fig. 10, and Tables 2–4.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sheriff_core::analysis::{classify, DomainAnalysis, DomainVerdict};
use sheriff_core::records::PriceCheck;
use sheriff_core::system::{PpcSpec, PriceSheriff, SheriffConfig};
use sheriff_kmeans::{kmeans, profile_vector, to_unit_f64, KmeansConfig, UniverseStrategy};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, World};
use sheriff_netsim::SimTime;

use crate::population::{generate, Population, User};
use crate::Scale;

/// Live-study sizing derived from [`Scale`].
#[derive(Clone, Copy, Debug)]
pub struct LiveSizing {
    /// Users in the population.
    pub n_users: usize,
    /// Price-check requests issued.
    pub n_requests: usize,
    /// World configuration.
    pub world: WorldConfig,
    /// Seconds of virtual time between submissions.
    pub submit_spacing_s: u64,
}

impl LiveSizing {
    /// Sizing for a scale.
    pub fn for_scale(scale: Scale) -> LiveSizing {
        match scale {
            Scale::Paper => LiveSizing {
                n_users: 1265,
                n_requests: 5700,
                world: WorldConfig::paper_scale(),
                submit_spacing_s: 20,
            },
            Scale::Demo => LiveSizing {
                n_users: 160,
                n_requests: 500,
                world: WorldConfig {
                    n_generic_discriminating: 62,
                    n_plain: 160,
                    n_alexa: 40,
                    products_per_retailer: 10,
                },
                submit_spacing_s: 20,
            },
        }
    }
}

/// The harvested live dataset plus ground truth for validation.
pub struct LiveDataset {
    /// Every completed price check.
    pub checks: Vec<PriceCheck>,
    /// The population that generated it.
    pub population: Population,
    /// Ground truth: domains whose pricing can discriminate at all.
    pub truth_discriminating: Vec<String>,
    /// Ground truth: domains that vary within a country.
    pub truth_within_country: Vec<String>,
    /// Sandbox violations observed (must be 0).
    pub sandbox_violations: usize,
    /// Number of requests that were issued.
    pub requests_issued: usize,
}

/// Relative spread below which Fig. 9 counts two prices as equal.
pub const FIG9_EPSILON: f64 = 0.005;

/// Fig. 9's detection judged against the world's ground truth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TruthCheck {
    /// Domains showing a price difference that can discriminate.
    pub true_positives: usize,
    /// Domains showing a price difference that cannot.
    pub false_positives: usize,
    /// Domains with at least three within-country difference events: the
    /// within-country candidates.
    pub within_country: Vec<String>,
}

impl TruthCheck {
    /// Judges `analyses` (from `analyze_domains` over `ds.checks`).
    pub fn new(ds: &LiveDataset, analyses: &[DomainAnalysis]) -> Self {
        let differing = analyses.iter().filter(|a| a.requests_with_difference > 0);
        let true_positives = differing
            .clone()
            .filter(|a| ds.truth_discriminating.contains(&a.domain))
            .count();
        TruthCheck {
            true_positives,
            false_positives: differing.count() - true_positives,
            within_country: analyses
                .iter()
                .filter(|a| classify(a, 3) == DomainVerdict::WithinCountry)
                .map(|a| a.domain.clone())
                .collect(),
        }
    }
}

/// Runs the live study.
pub fn run_live_study(scale: Scale, seed: u64) -> LiveDataset {
    let sizing = LiveSizing::for_scale(scale);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11fe);
    let population = generate(sizing.n_users, seed);
    let world = World::build(&sizing.world, seed);
    let truth_discriminating: Vec<String> = world
        .discriminating_domains()
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let truth_within_country: Vec<String> = world
        .within_country_domains()
        .iter()
        .map(std::string::ToString::to_string)
        .collect();

    // Checkable domains: everything except the Alexa sweep set (§7.6 is a
    // separate campaign).
    let checkable: Vec<String> = world
        .domains()
        .filter(|d| !d.starts_with("alexa-"))
        .map(str::to_string)
        .collect();
    let products_of: Vec<(String, usize)> = checkable
        .iter()
        .map(|d| (d.clone(), world.retailer(d).map_or(1, |r| r.products.len())))
        .collect();

    let specs: Vec<PpcSpec> = population.users.iter().map(spec_of).collect();
    let cfg = SheriffConfig::v2(seed, 4);
    let mut sheriff = PriceSheriff::new(cfg, world, &specs);

    // Pre-study shopping: users browse retailer pages for themselves,
    // building realistic client-side state and pollution budget.
    for user in &population.users {
        let visits = (user.activity * 10.0).round() as u64;
        if visits == 0 {
            continue;
        }
        let (domain, n_products) = &products_of[rng.gen_range(0..products_of.len().min(40))];
        sheriff.prime_visit(
            user.peer_id,
            domain,
            ProductId(rng.gen_range(0..*n_products as u32)),
            visits,
        );
    }

    // Doppelgangers from the donated histories (the deployment computed
    // the same centroids through the private protocol; the crypto path is
    // validated by the Fig. 8 experiments and `tests/private_kmeans_e2e`).
    let donors: Vec<&User> = population
        .users
        .iter()
        .filter(|u| u.donates_history)
        .collect();
    if donors.len() >= 10 {
        let universe = &population.alexa_ranking[..100.min(population.alexa_ranking.len())];
        let universe: Vec<String> = universe.to_vec();
        let vectors: Vec<Vec<u64>> = donors
            .iter()
            .map(|u| profile_vector(&u.history, &universe, 16))
            .collect();
        let unit: Vec<Vec<f64>> = vectors.iter().map(|v| to_unit_f64(v, 16)).collect();
        let k = (donors.len() / 12).clamp(4, 40);
        let res = kmeans(
            &unit,
            &KmeansConfig {
                k,
                ..Default::default()
            },
            &mut rng,
        );
        let centroids: Vec<Vec<u64>> = res
            .centroids
            .iter()
            .map(|c| c.iter().map(|&x| (x * 16.0).round() as u64).collect())
            .collect();
        let assignments: Vec<(u64, usize)> = donors
            .iter()
            .zip(&res.assignments)
            .map(|(u, &a)| (u.peer_id, a))
            .collect();
        sheriff.install_doppelgangers(&centroids, &universe, &assignments, seed ^ 0xd0bb);
        let _ = UniverseStrategy::AlexaTop; // choice documented in Fig. 8a
    }

    // Issue requests: first a coverage pass (every checkable domain gets
    // one check — the paper's users collectively checked 1994 domains),
    // then activity-weighted traffic concentrated on interesting domains.
    let activity_total: f64 = population.users.iter().map(|u| u.activity).sum();
    let pick_user = |rng: &mut StdRng| -> u64 {
        let mut t = rng.gen::<f64>() * activity_total;
        for u in &population.users {
            if t < u.activity {
                return u.peer_id;
            }
            t -= u.activity;
        }
        population.users[0].peer_id
    };

    let named_weight = 40.0;
    let geo_weight = 6.0;
    let plain_weight = 1.0;
    let weight_of = |domain: &str| -> f64 {
        if domain.starts_with("geo-store-") {
            geo_weight
        } else if domain.starts_with("store-") {
            plain_weight
        } else {
            named_weight
        }
    };
    let weight_total: f64 = products_of.iter().map(|(d, _)| weight_of(d)).sum();

    let mut issued = 0usize;
    let mut t = SimTime::from_secs(10);
    for j in 0..sizing.n_requests {
        let (domain, n_products) = if j < products_of.len() {
            &products_of[j]
        } else {
            let mut target = rng.gen::<f64>() * weight_total;
            let mut chosen = &products_of[0];
            for entry in &products_of {
                let w = weight_of(&entry.0);
                if target < w {
                    chosen = entry;
                    break;
                }
                target -= w;
            }
            chosen
        };
        let product = ProductId(rng.gen_range(0..*n_products as u32));
        let peer = pick_user(&mut rng);
        sheriff.submit_check(t, peer, domain, product);
        t = t.plus(SimTime::from_secs(sizing.submit_spacing_s));
        issued += 1;
    }

    // The paper's flagship Table 3 case — the Phase One IQ280 at
    // digitalrev.com — was checked "in multiple occasions"; make sure the
    // dataset always contains it.
    for _ in 0..3 {
        let peer = pick_user(&mut rng);
        sheriff.submit_check(t, peer, "digitalrev.com", ProductId(29));
        t = t.plus(SimTime::from_secs(sizing.submit_spacing_s));
        issued += 1;
    }

    sheriff.run_until(t.plus(SimTime::from_mins(10)));
    let checks: Vec<PriceCheck> = sheriff.completed().into_iter().map(|c| c.check).collect();
    let sandbox_violations = sheriff.sandbox_violations();

    LiveDataset {
        checks,
        population,
        truth_discriminating,
        truth_within_country,
        sandbox_violations,
        requests_issued: issued,
    }
}

fn spec_of(u: &User) -> PpcSpec {
    PpcSpec {
        peer_id: u.peer_id,
        country: u.country,
        city_idx: u.city_idx,
        user_agent: u.user_agent,
        affluence: u.affluence,
        logged_in_domains: u.logged_in_domains.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_live_study_produces_dataset() {
        let ds = run_live_study(Scale::Demo, 3);
        assert!(ds.requests_issued >= 400);
        // Most checks complete (some may be dropped to rejection or missing
        // product ids — all catalogs share sizes here, so near-total).
        assert!(
            ds.checks.len() * 10 >= ds.requests_issued * 9,
            "{} of {}",
            ds.checks.len(),
            ds.requests_issued
        );
        assert_eq!(ds.sandbox_violations, 0);
        // Ground truth present.
        assert!(ds.truth_discriminating.len() >= 70);
        assert!(ds
            .truth_within_country
            .contains(&"jcpenney.com".to_string()));
        // Location PD must be visible in the harvested data.
        let steam: Vec<_> = ds
            .checks
            .iter()
            .filter(|c| c.domain == "steampowered.com")
            .collect();
        assert!(!steam.is_empty());
        assert!(
            steam.iter().any(|c| c.has_difference(0.05)),
            "steam checks show no spread"
        );
    }

    /// Fig. 9's demo run at the experiments' default seed: no false
    /// positive, and every within-country candidate is a true one. The
    /// demo finds chegg and jcpenney; amazon, whose gap shows only to
    /// logged-in users, is missed at this scale (EXPERIMENTS.md, Known
    /// deviations).
    #[test]
    fn demo_fig9_finds_within_country_candidates_without_false_positives() {
        let ds = run_live_study(Scale::Demo, 1742);
        let analyses = sheriff_core::analysis::analyze_domains(&ds.checks, FIG9_EPSILON);
        let check = TruthCheck::new(&ds, &analyses);
        assert_eq!(check.false_positives, 0);
        assert!(check.true_positives > 0);
        for domain in &check.within_country {
            assert!(
                ds.truth_within_country.contains(domain),
                "{domain} is not a within-country domain"
            );
        }
        for domain in ["chegg.com", "jcpenney.com"] {
            assert!(
                check.within_country.iter().any(|d| d == domain),
                "{domain} not found: {:?}",
                check.within_country
            );
        }
    }
}
