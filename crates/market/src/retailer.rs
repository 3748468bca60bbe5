//! The retailer: catalogue + pricing stack + page rendering + bot defense.

use sheriff_currency::{FixedRates, RateProvider};
use sheriff_geo::Country;

use crate::bot::BotDetector;
use crate::cookies::Cookie;
use crate::page::{self, PageSpec, PriceFormat};
use crate::pricing::{compute_price_eur, FetchContext, PricingStrategy};
use crate::product::{Product, ProductId};
use crate::tracker::Tracker;
use crate::{hash_mix, hash_str};

pub use crate::page::PriceFormat as RetailerPriceFormat;

/// Result of fetching a product page.
#[derive(Clone, Debug)]
pub enum FetchResult {
    /// The product page, plus the cookies the response sets.
    Page {
        /// Full HTML.
        html: String,
        /// Quoted currency ISO code.
        currency: &'static str,
        /// The shown price in the quoted currency.
        price_quoted: f64,
        /// The shown price converted to EUR (ground truth for analyses).
        price_eur: f64,
        /// Cookies the response sets: (domain, cookie).
        set_cookies: Vec<(String, Cookie)>,
    },
    /// Bot detection tripped; a CAPTCHA page came back instead.
    Captcha {
        /// The interstitial HTML.
        html: String,
    },
}

/// One e-commerce site.
#[derive(Debug)]
pub struct Retailer {
    /// The site's domain, e.g. `jcpenney.com`.
    pub domain: String,
    /// Where the seller is based (prices quote in this currency unless the
    /// site localizes).
    pub home_country: Country,
    /// Quote in the customer's currency (geo-localized storefront)?
    pub localizes_currency: bool,
    /// Price text format.
    pub price_format: PriceFormat,
    /// Page template index.
    pub template: u8,
    /// Catalogue.
    pub products: Vec<Product>,
    /// Pricing stack, applied in order.
    pub strategies: Vec<PricingStrategy>,
    /// Embedded third-party trackers.
    pub trackers: Vec<Tracker>,
    /// Optional bot defense.
    pub bot: Option<BotDetector>,
    salt: u64,
}

impl Retailer {
    /// Creates a retailer; the salt (derived from the domain) drives all of
    /// its deterministic "random" behaviour.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        domain: &str,
        home_country: Country,
        localizes_currency: bool,
        price_format: PriceFormat,
        template: u8,
        products: Vec<Product>,
        strategies: Vec<PricingStrategy>,
        trackers: Vec<Tracker>,
        bot: Option<BotDetector>,
    ) -> Self {
        Retailer {
            salt: hash_str(domain),
            domain: domain.to_string(),
            home_country,
            localizes_currency,
            price_format,
            template,
            products,
            strategies,
            trackers,
            bot,
        }
    }

    /// Looks up a product.
    pub fn product(&self, id: ProductId) -> Option<&Product> {
        self.products.iter().find(|p| p.id == id)
    }

    /// The site's deterministic salt.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Ground-truth price in EUR for `product` under `ctx` (before currency
    /// quoting). `None` for unknown products.
    pub fn price_eur(&self, id: ProductId, ctx: &FetchContext<'_>) -> Option<f64> {
        let product = self.product(id)?;
        Some(compute_price_eur(
            product.base_price_eur,
            &self.strategies,
            product,
            ctx,
            self.salt,
        ))
    }

    /// The currency this retailer quotes to a customer in `country`.
    pub fn quote_currency(&self, country: Country) -> &'static str {
        if self.localizes_currency {
            country.currency()
        } else {
            self.home_country.currency()
        }
    }

    /// Fetches the product page as seen through `ctx`.
    ///
    /// `now_ms` feeds bot detection; `user_affluence`/`user_id` feed the
    /// trackers embedded on the page. Returns `None` for unknown products.
    pub fn fetch(
        &mut self,
        id: ProductId,
        ctx: &FetchContext<'_>,
        now_ms: u64,
        rates: &FixedRates,
        user_affluence: f64,
        user_id: u64,
    ) -> Option<FetchResult> {
        // Bot defense first — a CAPTCHA'd request never reaches pricing.
        if let Some(bot) = &mut self.bot {
            if bot.check(ctx.ip, now_ms) {
                return Some(FetchResult::Captcha {
                    html: page::render_captcha(&self.domain),
                });
            }
        }

        let product = self.product(id)?;
        let price_eur = self.price_eur(id, ctx)?;
        let currency = self.quote_currency(ctx.country);
        let price_quoted = rates
            .convert(price_eur, "EUR", currency)
            .unwrap_or(price_eur);
        // Re-round in the quoted currency (what the site actually prints),
        // then recompute the EUR ground truth from the printed amount.
        let decimals =
            sheriff_currency::CurrencyCatalog::by_iso(currency).map_or(2, |c| c.decimals);
        let scale = 10f64.powi(i32::from(decimals));
        let price_quoted = (price_quoted * scale).round() / scale;
        let shown_eur = rates
            .convert(price_quoted, currency, "EUR")
            .unwrap_or(price_eur);

        let price_text = page::format_price(price_quoted, currency, self.price_format);

        // Recommendation strip: deterministic subset of other products.
        let recommendations: Vec<(String, String)> = (0..3u64)
            .filter_map(|k| {
                if self.products.len() < 2 {
                    return None;
                }
                let pick =
                    hash_mix(&[self.salt, u64::from(id.0), k, 0x5c]) % self.products.len() as u64;
                let other = self.products.get(pick as usize)?;
                if other.id == id {
                    return None;
                }
                let other_eur = compute_price_eur(
                    other.base_price_eur,
                    &self.strategies,
                    other,
                    ctx,
                    self.salt,
                );
                let other_quoted = rates.convert(other_eur, "EUR", currency)?;
                Some((
                    other.name.clone(),
                    page::format_price(other_quoted, currency, self.price_format),
                ))
            })
            .collect();

        let noise_seed = hash_mix(&[
            self.salt,
            u64::from(id.0),
            u64::from(ctx.country.index() as u32),
            ctx.request_seq,
        ]);
        let html = page::render(&PageSpec {
            domain: &self.domain,
            product,
            price_text,
            template: self.template,
            noise_seed,
            trackers: &self.trackers,
            recommendations: &recommendations,
        });

        // Response cookies: a first-party session/viewed cookie plus every
        // embedded tracker's third-party cookie.
        let mut set_cookies = vec![
            (
                self.domain.clone(),
                Cookie {
                    name: "session_id".into(),
                    value: format!("{:016x}", hash_mix(&[self.salt, ctx.client_id])),
                    third_party: false,
                },
            ),
            (
                self.domain.clone(),
                Cookie {
                    name: format!("viewed_{}", id.0),
                    value: "1".into(),
                    third_party: false,
                },
            ),
        ];
        for t in &self.trackers {
            let score = t.score_for(user_affluence, user_id);
            set_cookies.push((
                t.domain.clone(),
                Cookie {
                    name: "profile_score".into(),
                    value: format!("{score:.3}"),
                    third_party: true,
                },
            ));
            set_cookies.push((
                t.domain.clone(),
                Cookie {
                    name: "uid".into(),
                    value: format!("{user_id:016x}"),
                    third_party: true,
                },
            ));
        }

        Some(FetchResult::Page {
            html,
            currency,
            price_quoted,
            price_eur: shown_eur,
            set_cookies,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cookies::CookieJar;
    use crate::pricing::{Browser, Os, UserAgent};
    use crate::product::generate_catalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sheriff_geo::{IpAllocator, ProductCategory};
    use std::collections::BTreeMap;

    fn retailer(strategies: Vec<PricingStrategy>) -> Retailer {
        let mut rng = StdRng::seed_from_u64(8);
        Retailer::new(
            "shop.example",
            Country::US,
            true,
            PriceFormat::SymbolPrefix,
            0,
            generate_catalog(10, ProductCategory::Electronics, &mut rng),
            strategies,
            vec![Tracker::by_index(0)],
            None,
        )
    }

    fn ctx<'a>(jar: &'a CookieJar, country: Country) -> FetchContext<'a> {
        let mut alloc = IpAllocator::new();
        FetchContext {
            ip: alloc.allocate(country, 0),
            country,
            cookies: jar,
            user_agent: UserAgent {
                os: Os::Windows,
                browser: Browser::Chrome,
            },
            logged_in: false,
            day: 0,
            time_quarter: 0,
            request_seq: 1,
            client_id: 99,
        }
    }

    #[test]
    fn fetch_returns_parsable_page() {
        let mut r = retailer(vec![]);
        let jar = CookieJar::new();
        let rates = FixedRates::paper_era();
        let result = r
            .fetch(ProductId(0), &ctx(&jar, Country::ES), 0, &rates, 0.5, 1)
            .unwrap();
        match result {
            FetchResult::Page {
                html,
                currency,
                price_quoted,
                price_eur,
                set_cookies,
            } => {
                assert_eq!(currency, "EUR", "localized to Spanish customer");
                assert!(price_quoted > 0.0 && price_eur > 0.0);
                assert!(html.contains("EUR") || html.contains('€'));
                assert!(set_cookies.iter().any(|(d, _)| d == "shop.example"));
                assert!(set_cookies.iter().any(|(_, c)| c.third_party));
                // The page parses and holds an extractable price element.
                let doc = sheriff_html::Document::parse(&html);
                let (tag, class) = crate::page::price_markup(0);
                assert!(doc.find_by_class(tag, class).is_some());
            }
            other @ FetchResult::Captcha { .. } => panic!("expected page, got {other:?}"),
        }
    }

    #[test]
    fn non_localizing_site_quotes_home_currency() {
        let mut r = retailer(vec![]);
        r.localizes_currency = false;
        let jar = CookieJar::new();
        let rates = FixedRates::paper_era();
        let result = r
            .fetch(ProductId(0), &ctx(&jar, Country::JP), 0, &rates, 0.5, 1)
            .unwrap();
        match result {
            FetchResult::Page { currency, .. } => assert_eq!(currency, "USD"),
            other @ FetchResult::Captcha { .. } => panic!("{other:?}"),
        }
    }

    #[test]
    fn uniform_retailer_same_price_everywhere() {
        let r = retailer(vec![]);
        let jar = CookieJar::new();
        let es = r.price_eur(ProductId(2), &ctx(&jar, Country::ES)).unwrap();
        let us = r.price_eur(ProductId(2), &ctx(&jar, Country::US)).unwrap();
        let jp = r.price_eur(ProductId(2), &ctx(&jar, Country::JP)).unwrap();
        assert_eq!(es, us);
        assert_eq!(es, jp);
    }

    #[test]
    fn country_multiplier_shows_in_fetch() {
        let mut factors = BTreeMap::new();
        factors.insert("JP".to_string(), 2.0);
        let r = retailer(vec![PricingStrategy::CountryMultiplier {
            factors,
            dampen_expensive: false,
        }]);
        let jar = CookieJar::new();
        let es = r.price_eur(ProductId(1), &ctx(&jar, Country::ES)).unwrap();
        let jp = r.price_eur(ProductId(1), &ctx(&jar, Country::JP)).unwrap();
        assert!((jp / es - 2.0).abs() < 0.01, "jp={jp} es={es}");
    }

    #[test]
    fn bot_detection_serves_captcha() {
        let mut r = retailer(vec![]);
        r.bot = Some(BotDetector::new(60_000, 2));
        let jar = CookieJar::new();
        let rates = FixedRates::paper_era();
        let c = ctx(&jar, Country::ES);
        for i in 0..2 {
            let res = r.fetch(ProductId(0), &c, i * 100, &rates, 0.5, 1).unwrap();
            assert!(matches!(res, FetchResult::Page { .. }), "request {i}");
        }
        let res = r.fetch(ProductId(0), &c, 300, &rates, 0.5, 1).unwrap();
        assert!(matches!(res, FetchResult::Captcha { .. }));
    }

    #[test]
    fn unknown_product_is_none() {
        let mut r = retailer(vec![]);
        let jar = CookieJar::new();
        let rates = FixedRates::paper_era();
        assert!(r
            .fetch(ProductId(999), &ctx(&jar, Country::ES), 0, &rates, 0.5, 1)
            .is_none());
    }

    #[test]
    fn shown_eur_matches_printed_amount() {
        // The EUR ground truth must reflect the *printed* (rounded) price,
        // so analyses compare what users actually saw.
        let mut r = retailer(vec![]);
        let jar = CookieJar::new();
        let rates = FixedRates::paper_era();
        if let Some(FetchResult::Page {
            currency,
            price_quoted,
            price_eur,
            ..
        }) = r.fetch(ProductId(3), &ctx(&jar, Country::JP), 0, &rates, 0.5, 1)
        {
            let back = rates.convert(price_quoted, currency, "EUR").unwrap();
            assert!((back - price_eur).abs() < 1e-9);
        } else {
            panic!("fetch failed");
        }
    }
}
