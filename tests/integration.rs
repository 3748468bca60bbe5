//! Cross-crate integration: the measurement pipeline built from real market
//! pages, end to end but without the simulator — market → html → currency →
//! records → analysis.

use sheriff_core::analysis::{analyze_domains, classify, DomainVerdict};
use sheriff_core::measurement::{process_response, VantageMeta};
use sheriff_core::records::{PriceCheck, VantageKind};
use sheriff_geo::{Country, IpAllocator};
use sheriff_html::tagspath::TagsPath;
use sheriff_html::Document;
use sheriff_market::pricing::{Browser, FetchContext, Os, UserAgent};
use sheriff_market::world::WorldConfig;
use sheriff_market::{CookieJar, FetchResult, ProductId, World};

/// Fetches one product page as seen from `country` and returns its HTML.
fn fetch_from(
    world: &mut World,
    domain: &str,
    product: ProductId,
    country: Country,
    seq: u64,
) -> String {
    let rates = world.rates.clone();
    let jar = CookieJar::new();
    let mut alloc = IpAllocator::new();
    let ctx = FetchContext {
        ip: alloc.allocate(country, 0),
        country,
        cookies: &jar,
        user_agent: UserAgent {
            os: Os::Linux,
            browser: Browser::Firefox,
        },
        logged_in: false,
        day: 0,
        time_quarter: 0,
        request_seq: seq,
        client_id: seq,
    };
    let retailer = world.retailer_mut(domain).expect("domain exists");
    match retailer
        .fetch(product, &ctx, 0, &rates)
        .expect("product exists")
    {
        FetchResult::Page { html, .. } => html,
        FetchResult::Captcha { html } => html,
    }
}

fn path_for(world: &World, domain: &str, html: &str) -> TagsPath {
    let template = world.retailer(domain).expect("domain").template;
    let (tag, class) = sheriff_market::page::price_markup(template);
    let doc = Document::parse(html);
    let el = doc.find_by_class(tag, class).expect("price element");
    TagsPath::from_node(&doc, el).expect("path")
}

fn check_for(
    world: &mut World,
    domain: &str,
    product: ProductId,
    countries: &[Country],
) -> PriceCheck {
    let base_html = fetch_from(world, domain, product, countries[0], 1);
    let path = path_for(world, domain, &base_html);
    let rates = world.rates.clone();
    let mut observations = Vec::new();
    let mut alloc = IpAllocator::new();
    for (i, &country) in countries.iter().enumerate() {
        let html = fetch_from(world, domain, product, country, 100 + i as u64);
        let meta = VantageMeta {
            kind: if i == 0 {
                VantageKind::Initiator
            } else {
                VantageKind::Ipc
            },
            id: i as u64,
            country,
            city: None,
            ip: alloc.allocate(country, 0),
        };
        observations.push(process_response(&html, &path, &meta, &rates));
    }
    PriceCheck {
        job_id: 1,
        domain: domain.to_string(),
        url: format!("{domain}/product/{}", product.0),
        day: 0,
        observations,
    }
}

const COUNTRIES: [Country; 6] = [
    Country::ES,
    Country::FR,
    Country::DE,
    Country::GB,
    Country::JP,
    Country::US,
];

#[test]
fn discriminating_retailer_detected_through_full_pipeline() {
    let mut world = World::build(&WorldConfig::small(), 99);
    let check = check_for(&mut world, "steampowered.com", ProductId(0), &COUNTRIES);
    assert!(check.valid().count() >= 5, "extraction failed somewhere");
    assert!(
        check.has_difference(0.05),
        "steam must show cross-country spread, got {:?}",
        check.relative_spread()
    );
}

#[test]
fn uniform_retailer_clean_through_full_pipeline() {
    let mut world = World::build(&WorldConfig::small(), 99);
    let domain = world
        .domains()
        .find(|d| d.starts_with("store-"))
        .expect("plain store exists")
        .to_string();
    let check = check_for(&mut world, &domain, ProductId(0), &COUNTRIES);
    assert!(
        !check.has_difference(0.005),
        "uniform store shows spread {:?}",
        check.relative_spread()
    );
}

#[test]
fn classification_separates_the_two() {
    let mut world = World::build(&WorldConfig::small(), 99);
    let plain = world
        .domains()
        .find(|d| d.starts_with("store-"))
        .expect("plain store")
        .to_string();
    let mut checks = Vec::new();
    for p in 0..4u32 {
        checks.push(check_for(
            &mut world,
            "abercrombie.com",
            ProductId(p),
            &COUNTRIES,
        ));
        checks.push(check_for(&mut world, &plain, ProductId(p), &COUNTRIES));
    }
    let analyses = analyze_domains(&checks, 0.005);
    let verdict_of = |d: &str| {
        analyses
            .iter()
            .find(|a| a.domain == d)
            .map(|a| classify(a, 2))
            .expect("analyzed")
    };
    assert_eq!(verdict_of("abercrombie.com"), DomainVerdict::LocationBased);
    assert_eq!(verdict_of(&plain), DomainVerdict::Uniform);
}

#[test]
fn extraction_survives_page_noise_across_countries() {
    // Every country sees different ad noise; extraction must still land on
    // the product price in every template.
    let mut world = World::build(&WorldConfig::small(), 99);
    for domain in [
        "steampowered.com",
        "jcpenney.com",
        "chegg.com",
        "amazon.com",
        "luisaviaroma.com",
    ] {
        let check = check_for(&mut world, domain, ProductId(1), &COUNTRIES);
        let ok = check.valid().count();
        assert!(ok >= 5, "{domain}: only {ok}/6 extracted");
    }
}

#[test]
fn fig2_style_conversion_appears_in_observations() {
    // A non-localizing retailer quotes one currency to everyone; the
    // measurement pipeline converts it to EUR for the result page.
    let mut world = World::build(&WorldConfig::small(), 99);
    let check = check_for(&mut world, "luisaviaroma.com", ProductId(2), &COUNTRIES);
    for obs in check.valid() {
        assert_eq!(obs.currency, "EUR", "luisaviaroma quotes EUR");
        assert!(obs.amount_eur > 0.0);
    }
}
