//! Property tests for the market: pricing determinism, strategy-class
//! invariants, and page extractability under arbitrary fetch contexts.

use proptest::prelude::*;

use sheriff_currency::{detect_price, detect_price_with_hint};
use sheriff_geo::{Country, IpAllocator};
use sheriff_html::Document;
use sheriff_market::pricing::{Browser, FetchContext, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{
    format_price, CookieJar, FetchResult, PriceFormat, ProductId, UserAgent, World,
};

fn arb_country() -> impl Strategy<Value = Country> {
    (0..Country::count()).prop_map(|i| Country::all().nth(i).expect("in range"))
}

fn ctx_for(jar: &CookieJar, country: Country, seq: u64, day: u32, quarter: u8) -> FetchContext<'_> {
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
        day,
        time_quarter: quarter,
        request_seq: seq,
        client_id: seq,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pricing_is_a_pure_function_of_context(
        country in arb_country(),
        seq in 0u64..10_000,
        day in 0u32..60,
        quarter in 0u8..4,
        product in 0u32..8,
    ) {
        let world = World::build(&WorldConfig::small(), 5);
        let jar = CookieJar::new();
        let mut c = ctx_for(&jar, country, seq, day, quarter);
        c.time_quarter = quarter;
        for domain in ["steampowered.com", "jcpenney.com", "amazon.com"] {
            let r = world.retailer(domain).expect("domain");
            let a = r.price_eur(ProductId(product), &c);
            let b = r.price_eur(ProductId(product), &c);
            prop_assert_eq!(a, b, "{} nondeterministic", domain);
        }
    }

    #[test]
    fn prices_are_positive_and_bounded(
        country in arb_country(),
        seq in 0u64..10_000,
        product in 0u32..8,
    ) {
        let world = World::build(&WorldConfig::small(), 5);
        let jar = CookieJar::new();
        let c = ctx_for(&jar, country, seq, 0, 0);
        for domain in ["steampowered.com", "abercrombie.com", "chegg.com"] {
            let r = world.retailer(domain).expect("domain");
            let base = r.product(ProductId(product)).expect("product").base_price_eur;
            let p = r.price_eur(ProductId(product), &c).expect("priced");
            prop_assert!(p > 0.0);
            // No strategy stack in this world moves a price beyond 5x base.
            prop_assert!(p < base * 5.0, "{domain}: {p} vs base {base}");
        }
    }

    #[test]
    fn every_fetch_yields_an_extractable_parsable_price(
        country in arb_country(),
        seq in 0u64..10_000,
        product in 0u32..8,
    ) {
        let mut world = World::build(&WorldConfig::small(), 5);
        let rates = world.rates.clone();
        let jar = CookieJar::new();
        let c = ctx_for(&jar, country, seq, 0, 0);
        for domain in ["steampowered.com", "jcpenney.com", "luisaviaroma.com"] {
            let template = world.retailer(domain).expect("d").template;
            let r = world.retailer_mut(domain).expect("domain");
            let result = r
                .fetch(ProductId(product), &c, 0, &rates)
                .expect("product");
            let FetchResult::Page { html, price_quoted, currency, .. } = result else {
                continue; // no bot detectors in this set
            };
            let doc = Document::parse(&html);
            let (tag, class) = sheriff_market::page::price_markup(template);
            let el = doc.find_by_class(tag, class).expect("price element");
            let text = doc.text_content(el);
            let detected =
                detect_price_with_hint(&text, country.currency()).expect("parses");
            prop_assert!((detected.amount - price_quoted).abs() < 0.005,
                "{domain}: printed {price_quoted} {currency}, parsed {}", detected.amount);
        }
    }

    #[test]
    fn format_price_roundtrips_for_all_formats(
        amount_cents in 1u64..100_000_000,
        fmt_idx in 0usize..4,
    ) {
        let amount = amount_cents as f64 / 100.0;
        let fmt = [
            PriceFormat::CodeConcat,
            PriceFormat::CodeSuffix,
            PriceFormat::SymbolPrefix,
            PriceFormat::SymbolSuffixEu,
        ][fmt_idx];
        for cur in ["EUR", "USD", "JPY"] {
            let text = format_price(amount, cur, fmt);
            if text.chars().count() >= 25 {
                continue; // the selection-length guard would refuse it anyway
            }
            let detected = detect_price(&text).expect("parses");
            let expect = if cur == "JPY" { amount.round() } else { amount };
            prop_assert!((detected.amount - expect).abs() < 0.005, "{text}");
        }
    }

    #[test]
    fn uniform_stores_never_vary(
        c1 in arb_country(),
        c2 in arb_country(),
        seq1 in 0u64..10_000,
        seq2 in 0u64..10_000,
        product in 0u32..8,
    ) {
        let world = World::build(&WorldConfig::small(), 5);
        let domain = world
            .domains()
            .find(|d| d.starts_with("store-"))
            .expect("plain store")
            .to_string();
        let jar = CookieJar::new();
        let r = world.retailer(&domain).expect("domain");
        let p1 = r.price_eur(ProductId(product), &ctx_for(&jar, c1, seq1, 0, 0));
        let p2 = r.price_eur(ProductId(product), &ctx_for(&jar, c2, seq2, 3, 2));
        prop_assert_eq!(p1, p2, "uniform store varied");
    }
}
