//! World construction: the synthetic equivalent of the 1994 live domains.
//!
//! The world carries ground truth: every retailer's strategy stack is
//! known, so analyses can be validated (did the pipeline flag exactly the
//! discriminating domains?). The roster mirrors the paper:
//!
//! * the **case-study domains** §6–§7 names, with their measured shapes —
//!   steampowered's ×2.55, abercrombie's ×2.38, luisaviaroma's €1201
//!   absolute gap, digitalrev's €34.5k–46k Phase One camera, jcpenney's
//!   UK-sticky 7% A/B arms, chegg's 3–7% spread, amazon's VAT-by-login;
//! * ~63 further location-discriminating domains (76 total, §6.2);
//! * plain domains that price uniformly (the other ~96% of the 1994);
//! * the Alexa top-400 (§7.6), none of which vary within a country.

use std::collections::{BTreeMap, HashMap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sheriff_currency::FixedRates;
use sheriff_geo::{Country, ProductCategory};

use crate::bot::BotDetector;
use crate::page::PriceFormat;
use crate::pricing::PricingStrategy;
use crate::product::{generate_catalog, Product, ProductId};
use crate::retailer::Retailer;
use crate::tracker::Tracker;

/// Sizing knobs for world construction.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    /// Generic location-discriminating domains (besides the named ones).
    pub n_generic_discriminating: usize,
    /// Uniformly-priced domains.
    pub n_plain: usize,
    /// Alexa-top uniformly-priced domains (§7.6's sweep set).
    pub n_alexa: usize,
    /// Products per generated retailer.
    pub products_per_retailer: usize,
}

impl WorldConfig {
    /// Paper-scale world: 1994 checked domains (76 of them price-
    /// discriminating, §6.2) + 400 Alexa.
    pub fn paper_scale() -> Self {
        WorldConfig {
            n_generic_discriminating: 62,
            n_plain: 1918,
            n_alexa: 400,
            products_per_retailer: 30,
        }
    }

    /// Small world for unit/integration tests.
    pub fn small() -> Self {
        WorldConfig {
            n_generic_discriminating: 5,
            n_plain: 12,
            n_alexa: 10,
            products_per_retailer: 8,
        }
    }
}

/// The synthetic e-commerce world.
///
/// ```
/// use sheriff_market::world::{World, WorldConfig};
///
/// let world = World::build(&WorldConfig::small(), 42);
/// // Ground truth is known by construction: which domains discriminate,
/// // which vary within a country, which use personal data.
/// assert!(world.discriminating_domains().contains(&"steampowered.com"));
/// assert!(world.within_country_domains().contains(&"jcpenney.com"));
/// assert!(world.pdipd_domains().is_empty());
/// ```
pub struct World {
    retailers: Vec<Retailer>,
    index: HashMap<String, usize>,
    /// The exchange-rate snapshot every storefront quotes with.
    pub rates: FixedRates,
}

impl World {
    /// Builds a world. All randomness flows from `seed`.
    pub fn build(cfg: &WorldConfig, seed: u64) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut retailers = Vec::new();

        named_case_studies(&mut rng, &mut retailers);

        // Generic location discriminators: random factor spreads.
        for i in 0..cfg.n_generic_discriminating {
            let spread = 1.1 + rng.gen::<f64>() * 0.9; // 1.1–2.0
            let mut factors = BTreeMap::new();
            for c in Country::all() {
                if rng.gen::<f64>() < 0.4 {
                    let f = 1.0 + rng.gen::<f64>() * (spread - 1.0);
                    factors.insert(c.code().to_string(), f);
                }
            }
            let home = random_country(&mut rng);
            retailers.push(Retailer::new(
                &format!("geo-store-{i}.example"),
                home,
                rng.gen::<f64>() < 0.5,
                random_format(&mut rng),
                rng.gen_range(0..5),
                generate_catalog(
                    cfg.products_per_retailer,
                    random_category(&mut rng),
                    &mut rng,
                ),
                vec![PricingStrategy::CountryMultiplier {
                    factors,
                    dampen_expensive: true,
                }],
                vec![Tracker::by_index(rng.gen_range(0..8))],
                None,
            ));
        }

        // Plain domains: uniform pricing worldwide.
        for i in 0..cfg.n_plain {
            retailers.push(Retailer::new(
                &format!("store-{i}.example"),
                random_country(&mut rng),
                rng.gen::<f64>() < 0.5,
                random_format(&mut rng),
                rng.gen_range(0..5),
                generate_catalog(
                    cfg.products_per_retailer,
                    random_category(&mut rng),
                    &mut rng,
                ),
                vec![],
                vec![Tracker::by_index(rng.gen_range(0..8))],
                None,
            ));
        }

        // Alexa top-N: uniform pricing (the paper found no within-country
        // variation among them), but busy sites with bot defenses.
        for i in 0..cfg.n_alexa {
            retailers.push(Retailer::new(
                &format!("alexa-{i:03}.example"),
                random_country(&mut rng),
                true,
                random_format(&mut rng),
                rng.gen_range(0..5),
                generate_catalog(
                    cfg.products_per_retailer,
                    random_category(&mut rng),
                    &mut rng,
                ),
                vec![],
                vec![Tracker::by_index(rng.gen_range(0..8))],
                Some(BotDetector::new(60_000, 120)),
            ));
        }

        let index = retailers
            .iter()
            .enumerate()
            .map(|(i, r)| (r.domain.clone(), i))
            .collect();
        World {
            retailers,
            index,
            rates: FixedRates::paper_era(),
        }
    }

    /// Retailer by domain.
    pub fn retailer(&self, domain: &str) -> Option<&Retailer> {
        self.index.get(domain).and_then(|&i| self.retailers.get(i))
    }

    /// Mutable retailer by domain.
    pub fn retailer_mut(&mut self, domain: &str) -> Option<&mut Retailer> {
        let i = *self.index.get(domain)?;
        self.retailers.get_mut(i)
    }

    /// Mutable retailer by domain together with the world's rate table —
    /// what a fetch needs, borrowed apart so the rates need no copy.
    pub fn retailer_and_rates(&mut self, domain: &str) -> Option<(&mut Retailer, &FixedRates)> {
        let i = *self.index.get(domain)?;
        Some((self.retailers.get_mut(i)?, &self.rates))
    }

    /// All domains, in construction order (named case studies first).
    pub fn domains(&self) -> impl Iterator<Item = &str> {
        self.retailers.iter().map(|r| r.domain.as_str())
    }

    /// Number of retailers.
    pub fn len(&self) -> usize {
        self.retailers.len()
    }

    /// True when the world is empty.
    pub fn is_empty(&self) -> bool {
        self.retailers.is_empty()
    }

    /// Ground truth: domains whose stack can vary prices across locations.
    pub fn discriminating_domains(&self) -> Vec<&str> {
        self.retailers
            .iter()
            .filter(|r| !r.strategies.is_empty())
            .map(|r| r.domain.as_str())
            .collect()
    }

    /// Ground truth: domains that can vary prices *within* a country.
    pub fn within_country_domains(&self) -> Vec<&str> {
        self.retailers
            .iter()
            .filter(|r| {
                r.strategies
                    .iter()
                    .any(super::pricing::PricingStrategy::within_country_varying)
            })
            .map(|r| r.domain.as_str())
            .collect()
    }

    /// Ground truth: domains using personal data (PDI-PD).
    pub fn pdipd_domains(&self) -> Vec<&str> {
        self.retailers
            .iter()
            .filter(|r| {
                r.strategies
                    .iter()
                    .any(super::pricing::PricingStrategy::personal_data_driven)
            })
            .map(|r| r.domain.as_str())
            .collect()
    }

    /// The Alexa sweep set.
    pub fn alexa_domains(&self) -> Vec<&str> {
        self.retailers
            .iter()
            .filter(|r| r.domain.starts_with("alexa-"))
            .map(|r| r.domain.as_str())
            .collect()
    }

    /// Adds a retailer after construction (tests and positive controls).
    pub fn add_retailer(&mut self, retailer: Retailer) {
        self.index
            .insert(retailer.domain.clone(), self.retailers.len());
        self.retailers.push(retailer);
    }
}

#[expect(clippy::indexing_slicing, reason = "gen_range(0..len) is in range")]
fn random_country(rng: &mut StdRng) -> Country {
    let all: Vec<Country> = Country::all().collect();
    all[rng.gen_range(0..all.len())]
}

#[expect(clippy::indexing_slicing, reason = "gen_range(0..len) is in range")]
fn random_category(rng: &mut StdRng) -> ProductCategory {
    ProductCategory::ALL[rng.gen_range(0..ProductCategory::ALL.len())]
}

fn random_format(rng: &mut StdRng) -> PriceFormat {
    match rng.gen_range(0..4) {
        0 => PriceFormat::CodeConcat,
        1 => PriceFormat::CodeSuffix,
        2 => PriceFormat::SymbolPrefix,
        _ => PriceFormat::SymbolSuffixEu,
    }
}

/// Multiplicative factor maps for the named domains, shaped to the paper's
/// Table 3 / Fig. 9 observations.
fn factor_map(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
    pairs.iter().map(|(c, f)| (c.to_string(), *f)).collect()
}

fn named_case_studies(rng: &mut StdRng, out: &mut Vec<Retailer>) {
    // steampowered.com — computer games, ×2.55 extremes (Table 3), regional
    // pricing in local currencies.
    out.push(Retailer::new(
        "steampowered.com",
        Country::US,
        true,
        PriceFormat::SymbolPrefix,
        1,
        generate_catalog(30, ProductCategory::Games, rng),
        vec![PricingStrategy::CountryMultiplier {
            factors: factor_map(&[
                ("US", 1.0),
                ("BR", 1.05),
                ("ES", 1.55),
                ("FR", 1.55),
                ("DE", 1.60),
                ("GB", 1.70),
                ("JP", 1.45),
                ("NZ", 2.55),
                ("CH", 2.10),
                ("NO", 2.30),
            ]),
            dampen_expensive: true,
        }],
        vec![Tracker::by_index(0)],
        None,
    ));

    // abercrombie.com — clothing, ×2.38, median diff near 40% (Fig. 9).
    out.push(Retailer::new(
        "abercrombie.com",
        Country::US,
        true,
        PriceFormat::SymbolPrefix,
        0,
        generate_catalog(30, ProductCategory::Clothing, rng),
        vec![PricingStrategy::CountryMultiplier {
            factors: factor_map(&[
                ("US", 1.0),
                ("ES", 1.40),
                ("FR", 1.42),
                ("DE", 1.45),
                ("GB", 1.38),
                ("JP", 2.38),
                ("KR", 2.20),
                ("HK", 1.80),
                ("CA", 1.15),
            ]),
            dampen_expensive: true,
        }],
        vec![Tracker::by_index(1)],
        None,
    ));

    // luisaviaroma.com — luxury clothing, ×2.32 / €1201 absolute (Table 3).
    out.push(Retailer::new(
        "luisaviaroma.com",
        Country::IT,
        false,
        PriceFormat::SymbolSuffixEu,
        2,
        generate_catalog(30, ProductCategory::Clothing, rng),
        vec![PricingStrategy::CountryMultiplier {
            factors: factor_map(&[
                ("IT", 1.0),
                ("ES", 1.05),
                ("US", 1.65),
                ("JP", 2.32),
                ("KR", 2.18),
                ("RU", 1.90),
                ("CN", 2.05),
            ]),
            dampen_expensive: true,
        }],
        vec![Tracker::by_index(2)],
        None,
    ));

    // digitalrev.com — cameras; the €34.5k Phase One IQ280 case (§6.2).
    let mut digitalrev_products = generate_catalog(29, ProductCategory::Electronics, rng);
    digitalrev_products.push(Product {
        id: ProductId(29),
        name: "Phase One IQ280 digital back".into(),
        category: ProductCategory::Electronics,
        base_price_eur: 34_500.0,
        popularity: 0.9,
    });
    out.push(Retailer::new(
        "digitalrev.com",
        Country::HK,
        true,
        PriceFormat::CodeConcat,
        1,
        digitalrev_products,
        vec![PricingStrategy::CountryMultiplier {
            factors: factor_map(&[
                ("HK", 1.0),
                ("ES", 1.0),
                ("FR", 1.0),
                ("DE", 1.0),
                ("US", 1.19),
                ("CA", 1.30),
                ("BR", 1.34),
            ]),
            // The camera price points are the paper's own observations
            // (€34.5k EU → €46k BR); no synthetic dampening on top.
            dampen_expensive: false,
        }],
        vec![Tracker::by_index(3)],
        None,
    ));

    // Other Table 3 / Fig. 9 domains with moderate spreads.
    for (domain, home, cat, top_factor) in [
        (
            "overstock.com",
            Country::US,
            ProductCategory::Household,
            1.48,
        ),
        (
            "suitsupply.com",
            Country::NL,
            ProductCategory::Clothing,
            2.08,
        ),
        (
            "aeropostale.com",
            Country::US,
            ProductCategory::Clothing,
            2.16,
        ),
        (
            "raffaello-network.com",
            Country::IT,
            ProductCategory::Accessories,
            2.03,
        ),
        (
            "bookdepository.com",
            Country::GB,
            ProductCategory::Books,
            2.03,
        ),
        ("anntaylor.com", Country::US, ProductCategory::Clothing, 4.2),
        (
            "tuscanyleather.it",
            Country::IT,
            ProductCategory::Accessories,
            1.9,
        ),
    ] {
        let mut factors = BTreeMap::new();
        for c in Country::all() {
            if c == home {
                continue;
            }
            if rng.gen::<f64>() < 0.5 {
                factors.insert(
                    c.code().to_string(),
                    1.0 + rng.gen::<f64>() * (top_factor - 1.0),
                );
            }
        }
        // Ensure the extreme factor exists somewhere.
        factors.insert("JP".to_string(), top_factor);
        // These storefronts print explicit ISO codes: a non-localizing
        // retailer with a bare `$` symbol would be low-confidence at every
        // vantage point and drop out of the automated analysis entirely
        // (the paper handled those via the red-asterisk manual converter).
        out.push(Retailer::new(
            domain,
            home,
            rng.gen::<f64>() < 0.5,
            PriceFormat::CodeConcat,
            rng.gen_range(0..5),
            generate_catalog(30, cat, rng),
            vec![PricingStrategy::CountryMultiplier {
                factors,
                dampen_expensive: true,
            }],
            vec![Tracker::by_index(rng.gen_range(0..8))],
            None,
        ));
    }

    // jcpenney.com — §7.3/§7.4/§7.5: non-sticky small arms on the
    // continent, sticky 7% arms in the UK, daily drift with rare jumps,
    // mild intraday repricing (3.7% daily fluctuation).
    out.push(Retailer::new(
        "jcpenney.com",
        Country::US,
        true,
        PriceFormat::SymbolPrefix,
        0,
        generate_catalog(30, ProductCategory::Clothing, rng),
        vec![
            PricingStrategy::AbTest {
                amplitude: 0.0,
                arms: 4,
                sticky: false,
                country_amplitude: factor_map(&[
                    ("ES", 0.009),
                    ("FR", 0.008),
                    ("DE", 0.008),
                    ("US", 0.01),
                ]),
                product_fraction: 0.62,
                country_fraction: factor_map(&[
                    ("ES", 0.59),
                    ("FR", 0.67),
                    ("GB", 0.58),
                    ("DE", 0.35),
                ]),
            },
            PricingStrategy::AbTest {
                amplitude: 0.0,
                arms: 2,
                sticky: true,
                country_amplitude: factor_map(&[("GB", 0.035)]),
                product_fraction: 0.58,
                country_fraction: BTreeMap::new(),
            },
            PricingStrategy::TemporalDrift {
                daily_drift: -0.004,
                jump_prob: 0.025,
                jump_size: 0.28,
            },
            PricingStrategy::IntradayRepricing { amplitude: 0.034 },
        ],
        vec![Tracker::by_index(0), Tracker::by_index(1)],
        None,
    ));

    // chegg.com — textbook rentals: 3–7% uniform spread, strongest in
    // Spain; slow temporal drift, 8.3% daily fluctuation (Fig. 15).
    // Textbook rentals sit in the €10–€100 band ("typical prices for
    // textbooks carried by the site", §7.3).
    let mut chegg_products = generate_catalog(30, ProductCategory::Books, rng);
    for p in &mut chegg_products {
        if p.base_price_eur > 120.0 {
            p.base_price_eur = 10.0 + (p.base_price_eur % 90.0);
        }
    }
    out.push(Retailer::new(
        "chegg.com",
        Country::US,
        true,
        PriceFormat::SymbolPrefix,
        3,
        chegg_products,
        vec![
            PricingStrategy::AbTest {
                amplitude: 0.0,
                arms: 5,
                sticky: false,
                country_amplitude: factor_map(&[("ES", 0.025), ("GB", 0.025), ("DE", 0.02)]),
                product_fraction: 0.0,
                country_fraction: factor_map(&[("ES", 0.39), ("GB", 0.16), ("DE", 0.025)]),
            },
            PricingStrategy::TemporalDrift {
                daily_drift: -0.001,
                jump_prob: 0.02,
                jump_size: 0.2,
            },
            PricingStrategy::IntradayRepricing { amplitude: 0.075 },
        ],
        vec![Tracker::by_index(2)],
        None,
    ));

    // amazon.com — VAT applied when the customer is identified (§7.3).
    out.push(Retailer::new(
        "amazon.com",
        Country::US,
        true,
        PriceFormat::SymbolPrefix,
        4,
        generate_catalog(30, ProductCategory::Electronics, rng),
        vec![PricingStrategy::VatWhenIdentified],
        vec![Tracker::by_index(0), Tracker::by_index(3)],
        None,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cookies::CookieJar;
    use crate::pricing::{Browser, FetchContext, Os, UserAgent};
    use sheriff_geo::IpAllocator;

    fn ctx<'a>(jar: &'a CookieJar, country: Country, seq: u64) -> FetchContext<'a> {
        let mut alloc = IpAllocator::new();
        FetchContext {
            ip: alloc.allocate(country, 0),
            country,
            cookies: jar,
            user_agent: UserAgent {
                os: Os::Linux,
                browser: Browser::Firefox,
            },
            logged_in: false,
            day: 0,
            time_quarter: 0,
            request_seq: seq,
            client_id: seq,
        }
    }

    #[test]
    fn small_world_builds_with_named_domains() {
        let w = World::build(&WorldConfig::small(), 1);
        for d in [
            "steampowered.com",
            "abercrombie.com",
            "jcpenney.com",
            "chegg.com",
            "amazon.com",
            "digitalrev.com",
        ] {
            assert!(w.retailer(d).is_some(), "{d} missing");
        }
        assert!(w.len() > 30);
    }

    #[test]
    fn ground_truth_classification() {
        let w = World::build(&WorldConfig::small(), 1);
        let within = w.within_country_domains();
        assert!(within.contains(&"jcpenney.com"));
        assert!(within.contains(&"chegg.com"));
        assert!(within.contains(&"amazon.com"));
        assert!(!within.contains(&"steampowered.com"));
        assert!(w.pdipd_domains().is_empty(), "no PDI-PD in the paper world");
        assert_eq!(w.alexa_domains().len(), 10);
    }

    #[test]
    fn steam_has_large_cross_country_spread() {
        let w = World::build(&WorldConfig::small(), 1);
        let r = w.retailer("steampowered.com").unwrap();
        let jar = CookieJar::new();
        let us = r
            .price_eur(ProductId(0), &ctx(&jar, Country::US, 1))
            .unwrap();
        let nz = r
            .price_eur(ProductId(0), &ctx(&jar, Country::NZ, 1))
            .unwrap();
        assert!((nz / us - 2.55).abs() < 0.02, "nz/us = {}", nz / us);
    }

    #[test]
    fn digitalrev_camera_matches_paper_prices() {
        let w = World::build(&WorldConfig::small(), 1);
        let r = w.retailer("digitalrev.com").unwrap();
        let jar = CookieJar::new();
        let eu = r
            .price_eur(ProductId(29), &ctx(&jar, Country::ES, 1))
            .unwrap();
        let ca = r
            .price_eur(ProductId(29), &ctx(&jar, Country::CA, 1))
            .unwrap();
        let us = r
            .price_eur(ProductId(29), &ctx(&jar, Country::US, 1))
            .unwrap();
        let br = r
            .price_eur(ProductId(29), &ctx(&jar, Country::BR, 1))
            .unwrap();
        assert!((eu - 34_500.0).abs() < 1.0);
        assert!((44_000.0..46_500.0).contains(&ca), "ca={ca}");
        assert!((40_000.0..42_000.0).contains(&us), "us={us}");
        assert!(br > 46_000.0, "br={br}");
        // >€10k between extremes (§6.2).
        assert!(br - eu > 10_000.0);
    }

    #[test]
    fn amazon_varies_only_by_login() {
        let w = World::build(&WorldConfig::small(), 1);
        let r = w.retailer("amazon.com").unwrap();
        let jar = CookieJar::new();
        let guest = r
            .price_eur(ProductId(5), &ctx(&jar, Country::ES, 1))
            .unwrap();
        let mut logged = ctx(&jar, Country::ES, 2);
        logged.logged_in = true;
        let member = r.price_eur(ProductId(5), &logged).unwrap();
        assert!((member / guest - 1.21).abs() < 0.001, "ES VAT 21%");
    }

    #[test]
    fn plain_stores_price_uniformly() {
        let w = World::build(&WorldConfig::small(), 1);
        let domain = w
            .domains()
            .find(|d| d.starts_with("store-"))
            .unwrap()
            .to_string();
        let r = w.retailer(&domain).unwrap();
        let jar = CookieJar::new();
        let prices: Vec<f64> = [Country::ES, Country::US, Country::JP, Country::BR]
            .iter()
            .map(|&c| r.price_eur(ProductId(0), &ctx(&jar, c, 1)).unwrap())
            .collect();
        assert!(prices.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));
    }

    #[test]
    fn world_is_deterministic() {
        let w1 = World::build(&WorldConfig::small(), 42);
        let w2 = World::build(&WorldConfig::small(), 42);
        assert_eq!(w1.len(), w2.len());
        let jar = CookieJar::new();
        for d in ["steampowered.com", "jcpenney.com"] {
            let p1 = w1
                .retailer(d)
                .unwrap()
                .price_eur(ProductId(3), &ctx(&jar, Country::FR, 9));
            let p2 = w2
                .retailer(d)
                .unwrap()
                .price_eur(ProductId(3), &ctx(&jar, Country::FR, 9));
            assert_eq!(p1, p2);
        }
    }

    #[test]
    fn paper_scale_world_counts() {
        let w = World::build(&WorldConfig::paper_scale(), 7);
        // 14 named + 62 generic + 1918 plain + 400 alexa
        assert_eq!(w.len(), 14 + 62 + 1918 + 400);
        assert_eq!(w.alexa_domains().len(), 400);
        // 76 location-discriminating checked domains (named + generic).
        assert_eq!(w.discriminating_domains().len(), 76);
    }
}
