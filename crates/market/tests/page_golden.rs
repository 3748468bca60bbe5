//! `page::render` must keep producing the bytes it produced before it
//! was rewritten to write into one buffer and again before a retailer's
//! static chrome was rendered once (`page::Chrome`): every structural template
//! (0–5 covers both `template % 3` and all five price markups) under
//! every price format, with 0–3 ad banners, trackers, a recommendation
//! strip whose names need escaping, and the CAPTCHA interstitial.
//!
//! `golden/pages.txt` was generated by this file's `pages()` at the
//! commit before the rewrite. To re-baseline on purpose, print `pages()`
//! into that file from a commit you trust.

use sheriff_geo::ProductCategory;
use sheriff_market::page::{render, render_captcha, Chrome, PageSpec};
use sheriff_market::tracker::Tracker;
use sheriff_market::{format_price, PriceFormat, Product, ProductId};

const FORMATS: [(PriceFormat, &str); 4] = [
    (PriceFormat::CodeConcat, "EUR"),
    (PriceFormat::CodeSuffix, "SEK"),
    (PriceFormat::SymbolPrefix, "USD"),
    (PriceFormat::SymbolSuffixEu, "EUR"),
];

fn pages() -> String {
    let product = Product {
        id: ProductId(7),
        name: "camera deluxe".into(),
        category: ProductCategory::Electronics,
        base_price_eur: 1234.5,
        popularity: 0.5,
    };
    let trackers = [Tracker::by_index(0), Tracker::by_index(3)];
    let chromes: Vec<Chrome> = (0..3)
        .map(|n| Chrome::new("shop.example", &trackers[..n]))
        .collect();
    let mut out = String::new();
    for template in 0..6u8 {
        for (k, (format, currency)) in FORMATS.into_iter().enumerate() {
            let recommendations = [
                (
                    "bags & <belts>".to_string(),
                    format_price(9.99, currency, format),
                ),
                (
                    "plain name".to_string(),
                    format_price(88204.0, "JPY", format),
                ),
            ];
            // Seeds 0.. walk through every ad count (0–3) within a few pages.
            let noise_seed = u64::from(template) * 4 + k as u64;
            let spec = PageSpec {
                domain: "shop.example",
                product: &product,
                price_text: format_price(1234.56, currency, format),
                template,
                noise_seed,
                chrome: &chromes[k % 3],
                recommendations: &recommendations[..(k + usize::from(template)) % 3],
            };
            out.push_str(&format!("==== template {template} format {k}\n"));
            out.push_str(&render(&spec));
        }
    }
    out.push_str("==== captcha\n");
    out.push_str(&render_captcha("shop.example"));
    out
}

#[test]
fn render_output_is_byte_equal_to_the_golden_pages() {
    let golden = include_str!("golden/pages.txt");
    let now = pages();
    for (i, (g, n)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(g, n, "first differing line: {}", i + 1);
    }
    assert_eq!(golden.len(), now.len(), "page set length");
    // All four ad counts and the escaping path are in the set.
    for n_ads in 0..4 {
        let block = "<div class=\"ad-banner\"";
        assert!(
            golden
                .split("==== ")
                .any(|page| page.matches(block).count() == n_ads),
            "no page with {n_ads} ads"
        );
    }
    assert!(golden.contains("bags &amp; &lt;belts&gt;"));
}
