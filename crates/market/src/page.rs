//! Product-page HTML generation.
//!
//! Pages are where the measurement system earns its keep: "retailers use
//! complex site layouts … and pack multiple recommendations in the same
//! page" (§2.1 req. 3), and remote fetches see "different ads or content
//! tailored to the corresponding user or the location of the proxy client"
//! (§3.3). Each retailer renders through one of several structural
//! templates; ad blocks and recommendation strips vary deterministically
//! with the fetch, so two fetches of the same product rarely produce
//! byte-identical HTML.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::hash_mix;
use crate::product::Product;
use crate::tracker::Tracker;

/// How a retailer prints prices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PriceFormat {
    /// `EUR654.00` — code glued to the amount (Fig. 2's rows).
    CodeConcat,
    /// `654.00 EUR` — code after the amount.
    CodeSuffix,
    /// `$1,234.56` — symbol before, US grouping.
    SymbolPrefix,
    /// `1.234,56 €` — symbol after, EU grouping.
    SymbolSuffixEu,
}

/// Formats `amount` of `currency` per `format`, respecting the currency's
/// customary decimal count (JPY/KRW print none).
pub fn format_price(amount: f64, currency: &str, format: PriceFormat) -> String {
    let entry = sheriff_currency::CurrencyCatalog::by_iso(currency);
    let (decimals, symbol) = entry.map_or((2, ""), |c| (c.decimals, c.symbol));
    let us = || group(amount, decimals, ',', '.');
    match format {
        PriceFormat::CodeConcat => format!("{currency}{}", us()),
        PriceFormat::CodeSuffix => format!("{} {currency}", us()),
        PriceFormat::SymbolPrefix => format!("{symbol}{}", us()),
        PriceFormat::SymbolSuffixEu => format!("{} {symbol}", group(amount, decimals, '.', ',')),
    }
}

/// `amount` rounded to `decimals`, thousands grouped by `sep`, fraction
/// after `point`.
fn group(amount: f64, decimals: u8, sep: char, point: char) -> String {
    let scale = 10f64.powi(i32::from(decimals));
    let minor = (amount * scale).round() as u64;
    let digits = (minor / scale as u64).to_string();
    let mut out = String::new();
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(sep);
        }
        out.push(ch);
    }
    if decimals > 0 {
        let frac = minor % scale as u64;
        let _ = write!(out, "{point}{frac:0width$}", width = decimals as usize);
    }
    out
}

/// Per-template markup of the price element: (tag, class).
const PRICE_MARKUP: &[(&str, &str)] = &[
    ("span", "price"),
    ("div", "product-price"),
    ("span", "prc-now"),
    ("b", "price-value"),
    ("span", "a-price-whole"),
];

/// The price element markup for a template index.
pub fn price_markup(template: u8) -> (&'static str, &'static str) {
    let i = template as usize % PRICE_MARKUP.len();
    PRICE_MARKUP
        .get(i)
        .copied()
        .unwrap_or(("span", "price-value"))
}

/// A retailer's static site chrome: identical on every fetch of the
/// retailer, like the navigation/footer boilerplate dominating real
/// product pages — and the reason DiffStorage pays off (§10.5). Built
/// once per retailer; [`render`] splices the per-fetch lines into it.
#[derive(Clone, Debug)]
pub struct Chrome {
    /// From the charset through the nav bar: stylesheets, tracker scripts.
    head: String,
    /// The footer through `</html>`.
    foot: String,
}

impl Chrome {
    /// The chrome of `domain`'s pages, embedding `trackers` as
    /// third-party script tags.
    pub fn new(domain: &str, trackers: &[Tracker]) -> Self {
        let mut head = String::new();
        let mut foot = String::new();
        // `fmt::Write` into a `String` cannot fail.
        macro_rules! put {
            ($out:ident, $($arg:tt)*) => {{ let _ = write!($out, $($arg)*); }};
        }
        put!(head, "<meta charset=\"utf-8\">\n");
        for i in 0..18 {
            put!(
                head,
                "<link rel=\"stylesheet\" href=\"/static/css/part-{i:02}.css\">\n"
            );
        }
        for t in trackers {
            put!(
                head,
                "<script src=\"https://{}/tag.js\"></script>\n",
                t.domain
            );
        }
        put!(head, "</head>\n<body>\n<nav class=\"site-nav\">\n");
        for section in [
            "home",
            "new-arrivals",
            "clothing",
            "electronics",
            "books",
            "games",
            "cosmetics",
            "jewelry",
            "household",
            "furniture",
            "sale",
            "gift-cards",
            "stores",
            "help",
            "account",
        ] {
            put!(
                head,
                "<a class=\"nav-item nav-{section}\" href=\"/{section}\">{section}</a>\n"
            );
        }
        put!(head, "</nav>\n");

        put!(foot, "<footer class=\"site-footer\">\n");
        for line in [
            "About us",
            "Careers",
            "Press",
            "Investors",
            "Sustainability",
            "Shipping &amp; returns",
            "Size guides",
            "Contact",
            "Privacy policy",
            "Terms of service",
            "Cookie settings",
            "Accessibility statement",
            "Store locator",
            "Gift registry",
            "Affiliate program",
        ] {
            put!(foot, "<div class=\"footer-line\">{line}</div>\n");
        }
        put!(
            foot,
            "<div class=\"copyright\">&copy; {domain} — all rights reserved</div>\n"
        );
        put!(foot, "</footer>\n</body>\n</html>\n");
        Chrome { head, foot }
    }
}

/// Everything needed to render one product page.
#[derive(Debug)]
pub struct PageSpec<'a> {
    /// Retailer domain (for the title).
    pub domain: &'a str,
    /// The product shown.
    pub product: &'a Product,
    /// Pre-formatted price text, e.g. `EUR654.00`.
    pub price_text: String,
    /// Structural template index.
    pub template: u8,
    /// Seed for fetch-dependent noise (ads, banners).
    pub noise_seed: u64,
    /// The retailer's static chrome (stylesheets, trackers, nav, footer).
    pub chrome: &'a Chrome,
    /// Recommendation strip: (name, price text) of other products.
    pub recommendations: &'a [(String, String)],
}

/// Renders the page: the per-fetch title, ads, product block and
/// recommendation strip, inside the retailer's chrome.
pub fn render(spec: &PageSpec<'_>) -> String {
    let (tag, class) = price_markup(spec.template);
    let name = &spec.product.name;
    let chrome = spec.chrome;
    let mut html = String::with_capacity(chrome.head.len() + chrome.foot.len() + 1024);
    // `fmt::Write` into a `String` cannot fail; one `put!` per line keeps
    // the page readable here and allocates nothing.
    macro_rules! put {
        ($($arg:tt)*) => {{ let _ = write!(html, $($arg)*); }};
    }
    put!("<!DOCTYPE html>\n<html>\n<head>\n");
    put!("<title>{name} - {}</title>\n", spec.domain);
    html.push_str(&chrome.head);

    // Location/user-tailored banner noise: count and flavor vary by seed.
    let n_ads = hash_mix(&[spec.noise_seed, 0xad]) % 4;
    for i in 0..n_ads {
        let flavor = hash_mix(&[spec.noise_seed, 0xad, i]) % 1000;
        put!(
            "<div class=\"ad-banner\" data-campaign=\"c{flavor}\">Special offer {flavor}!</div>\n"
        );
    }

    // Structural templates differ in nesting around the price element.
    let price = escape(&spec.price_text);
    match spec.template % 3 {
        0 => {
            put!("<div class=\"product\">\n<h1>{name}</h1>\n");
            put!(
                "<img src=\"{}.jpg\" alt=\"Product View\">\n",
                spec.product.id.0
            );
            put!("<{tag} class=\"{class}\">{price}</{tag}>\n</div>\n");
        }
        1 => {
            put!("<main><section class=\"item-page\">\n<h2>{name}</h2>\n");
            put!("<div class=\"buy-box\"><div class=\"price-wrap\">\n");
            put!("<{tag} class=\"{class}\">{price}</{tag}>\n");
            put!("</div><button>Add to cart</button></div>\n</section></main>\n");
        }
        _ => {
            put!("<table class=\"layout\"><tr><td class=\"info\">\n<h1>{name}</h1>\n");
            put!("</td><td class=\"purchase\">\n");
            put!("<{tag} class=\"{class}\">{price}</{tag}>\n</td></tr></table>\n");
        }
    }

    // Recommendation strip: other products with their own price elements —
    // the multi-price ambiguity §3.3 warns about.
    if !spec.recommendations.is_empty() {
        put!("<div class=\"reco-strip\">\n");
        for (name, price) in spec.recommendations {
            put!(
                "<div class=\"reco\"><span class=\"reco-name\">{}</span> <{tag} class=\"{class}\">{}</{tag}></div>\n",
                escape(name),
                escape(price),
            );
        }
        put!("</div>\n");
    }

    html.push_str(&chrome.foot);
    html
}

/// Renders a CAPTCHA interstitial (bot detection tripped, §3.2).
pub fn render_captcha(domain: &str) -> String {
    format!(
        "<!DOCTYPE html>\n<html><head><title>Are you human? - {domain}</title></head>\
         <body><div class=\"captcha\">Please verify you are not a robot.</div></body></html>\n"
    )
}

/// `s` with `&`, `<`, `>` escaped; borrowed when it holds none of them.
fn escape(s: &str) -> Cow<'_, str> {
    if !s.contains(['&', '<', '>']) {
        return Cow::Borrowed(s);
    }
    Cow::Owned(
        s.replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::{Product, ProductId};
    use sheriff_currency::detect_price;
    use sheriff_geo::ProductCategory;
    use sheriff_html::Document;

    fn product() -> Product {
        Product {
            id: ProductId(3),
            name: "camera deluxe".into(),
            category: ProductCategory::Electronics,
            base_price_eur: 654.0,
            popularity: 0.9,
        }
    }

    #[test]
    fn formats_parse_back() {
        let cases = [
            (PriceFormat::CodeConcat, 654.0, "EUR", "EUR654.00"),
            (PriceFormat::CodeSuffix, 654.0, "EUR", "654.00 EUR"),
            (PriceFormat::SymbolPrefix, 1234.56, "USD", "$1,234.56"),
            (PriceFormat::SymbolSuffixEu, 1234.56, "EUR", "1.234,56 €"),
            (PriceFormat::CodeConcat, 88204.0, "JPY", "JPY88,204"),
        ];
        for (fmt, amount, cur, expect) in cases {
            let text = format_price(amount, cur, fmt);
            assert_eq!(text, expect);
            // And the detector must recover the amount.
            let det = detect_price(&text).unwrap();
            assert!(
                (det.amount - amount).abs() < 0.005,
                "{text}: {} vs {amount}",
                det.amount
            );
        }
    }

    #[test]
    fn page_contains_extractable_price() {
        for template in 0..5u8 {
            let p = product();
            let spec = PageSpec {
                domain: "shop.example",
                product: &p,
                price_text: "EUR654.00".into(),
                template,
                noise_seed: 42,
                chrome: &Chrome::new("shop.example", &[Tracker::by_index(0)]),
                recommendations: &[],
            };
            let html = render(&spec);
            let doc = Document::parse(&html);
            let (tag, class) = price_markup(template);
            let el = doc.find_by_class(tag, class).unwrap();
            assert_eq!(doc.text_content(el), "EUR654.00", "template {template}");
        }
    }

    #[test]
    fn noise_varies_with_seed() {
        let p = product();
        let mk = |seed| {
            render(&PageSpec {
                domain: "shop.example",
                product: &p,
                price_text: "EUR654.00".into(),
                template: 0,
                noise_seed: seed,
                chrome: &Chrome::new("shop.example", &[]),
                recommendations: &[],
            })
        };
        // Some pair among a few seeds must differ (ad count/flavor).
        let pages: Vec<String> = (0..6).map(mk).collect();
        assert!(pages.windows(2).any(|w| w[0] != w[1]));
        // Same seed → identical page.
        assert_eq!(mk(7), mk(7));
    }

    #[test]
    fn trackers_embedded_as_scripts() {
        let p = product();
        let spec = PageSpec {
            domain: "shop.example",
            product: &p,
            price_text: "EUR1.00".into(),
            template: 1,
            noise_seed: 0,
            chrome: &Chrome::new(
                "shop.example",
                &[Tracker::by_index(0), Tracker::by_index(1)],
            ),
            recommendations: &[],
        };
        let html = render(&spec);
        assert!(html.contains(&Tracker::by_index(0).domain));
        assert!(html.contains(&Tracker::by_index(1).domain));
    }

    #[test]
    fn recommendations_share_price_markup() {
        let p = product();
        let spec = PageSpec {
            domain: "shop.example",
            product: &p,
            price_text: "EUR654.00".into(),
            template: 0,
            noise_seed: 1,
            chrome: &Chrome::new("shop.example", &[]),
            recommendations: &[("other thing".into(), "EUR9.99".into())],
        };
        let html = render(&spec);
        let doc = Document::parse(&html);
        let (tag, class) = price_markup(0);
        // Two price elements on the page: ambiguity the Tags Path resolves.
        let count = doc
            .descendants(doc.root())
            .filter(|&id| doc.name(id) == Some(tag) && doc.attr(id, "class") == Some(class))
            .count();
        assert_eq!(count, 2);
    }

    #[test]
    fn captcha_page_has_no_price() {
        let html = render_captcha("shop.example");
        assert!(html.contains("captcha"));
        assert!(!html.contains("price"));
    }

    #[test]
    fn grouping_edge_cases() {
        assert_eq!(group(0.994, 2, ',', '.'), "0.99");
        assert_eq!(group(1_000_000.0, 2, ',', '.'), "1,000,000.00");
        assert_eq!(group(1_000.5, 2, '.', ','), "1.000,50");
        assert_eq!(group(829075.0, 0, ',', '.'), "829,075");
    }
}
