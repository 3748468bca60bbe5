//! Proxy clients: IPC and PPC fetch engines (paper §3.1.3, §3.6).
//!
//! An IPC is a cleanly installed browser on an infrastructure node: no
//! history, no cookies, fixed IP. A PPC is a real user's browser serving a
//! remote page request: it must expose its *real* state (that is the whole
//! point — PDI-PD needs realistic client-side state) while keeping its
//! local state clean (sandbox) and its server-side pollution bounded
//! (ledger + doppelganger swap-in).

#![expect(
    clippy::disallowed_methods,
    reason = "a PPC shows the retailer its real state (§3.6)"
)]

use sheriff_geo::{Country, IpV4};
use sheriff_market::{Cookie, CookieJar, FetchContext, FetchResult, ProductId, UserAgent, World};

use crate::browser::{BrowserProfile, SandboxReport};
use crate::pollution::{FetchMode, PollutionLedger};
use crate::private::Private;
use crate::system::PpcSpec;

/// What a proxy fetch produced.
#[derive(Clone, Debug)]
pub struct ProxyFetch {
    /// The fetched HTML (page or CAPTCHA).
    pub html: String,
    /// True when the retailer served a CAPTCHA.
    pub captcha: bool,
    /// Ground-truth EUR price of what was shown (None for CAPTCHA).
    pub truth_eur: Option<f64>,
    /// Which state the fetch exposed.
    pub mode: FetchMode,
    /// Sandbox validation for PPC fetches.
    pub sandbox: Option<SandboxReport>,
}

/// Infrastructure Proxy Client: clean browser, fixed vantage.
#[derive(Debug)]
pub struct IpcEngine {
    /// Stable identifier (the paper deployed 30).
    pub id: u64,
    /// Host country.
    pub country: Country,
    /// City index inside the country.
    pub city_idx: usize,
    /// Fixed IP address (what makes IPCs detectable, §3.2).
    pub ip: IpV4,
    /// Browser platform.
    pub user_agent: UserAgent,
}

impl IpcEngine {
    /// Fetches a product page with a pristine browser state.
    #[allow(clippy::too_many_arguments)] // mirrors the FetchOrder message
    pub fn fetch(
        &self,
        world: &mut World,
        domain: &str,
        product: ProductId,
        day: u32,
        time_quarter: u8,
        now_ms: u64,
        request_seq: u64,
    ) -> Option<ProxyFetch> {
        let clean = CookieJar::new();
        let ctx = FetchContext {
            ip: self.ip,
            country: self.country,
            cookies: &clean,
            user_agent: self.user_agent,
            logged_in: false,
            day,
            time_quarter,
            request_seq,
            client_id: 0xffff_0000 | self.id, // infrastructure namespace
        };
        let (retailer, rates) = world.retailer_and_rates(domain)?;
        // A clean browser keeps nothing, so the response's cookies are
        // never built.
        let result = retailer.fetch(product, &ctx, now_ms, rates)?;
        let (html, truth_eur) = match result {
            FetchResult::Page {
                html, price_eur, ..
            } => (html, Some(price_eur)),
            FetchResult::Captcha { html } => (html, None),
        };
        Some(ProxyFetch {
            html,
            captcha: truth_eur.is_none(),
            truth_eur,
            mode: FetchMode::CleanOwnState,
            sandbox: None,
        })
    }
}

/// Peer Proxy Client: a real user's browser. Its browsing identity is
/// [`Private`]: it leaves only through this file's fetches.
pub struct PpcEngine {
    /// Peer identifier.
    pub peer_id: u64,
    /// The user's browser (history + cookies).
    pub browser: Private<BrowserProfile>,
    /// Server-side pollution ledger: per-domain real visits.
    pub ledger: Private<PollutionLedger>,
    /// Current IP (churns).
    pub ip: IpV4,
    /// Country.
    pub country: Country,
    /// City index.
    pub city_idx: usize,
    /// Browser platform.
    pub user_agent: UserAgent,
    /// The user's affluence score (drives tracker profiles).
    pub affluence: Private<f64>,
    /// Domains where the user has an account and stays signed in.
    pub logged_in_domains: Private<Vec<String>>,
}

impl PpcEngine {
    /// `spec`'s user at `ip`, with a fresh browser and ledger.
    pub fn new(spec: &PpcSpec, ip: IpV4) -> Self {
        PpcEngine {
            peer_id: spec.peer_id,
            browser: Private::new(BrowserProfile::new()),
            ledger: Private::new(PollutionLedger::new()),
            ip,
            country: spec.country,
            city_idx: spec.city_idx,
            user_agent: spec.user_agent,
            affluence: Private::new(spec.affluence),
            logged_in_domains: Private::new(spec.logged_in_domains.clone()),
        }
    }

    /// The user browses a product page *for themselves*: history, ledger,
    /// cookies all update — this is what builds pollution budget.
    pub fn user_visit(
        &mut self,
        world: &mut World,
        domain: &str,
        product: ProductId,
        day: u32,
        now_ms: u64,
        request_seq: u64,
    ) {
        let Some((_, set_cookies)) =
            self.own_fetch(world, domain, product, day, 0, now_ms, request_seq)
        else {
            return;
        };
        let browser = self.browser.expose_mut();
        browser.apply_cookies(set_cookies);
        browser.visit(domain, &format!("{domain}/product/{}", product.0));
        self.ledger.expose_mut().record_real_visits(domain, 1);
    }

    /// Like [`PpcEngine::user_visit`] but returns the fetched page: the
    /// initiator of a price check is literally browsing the product page,
    /// so their own fetch is a real visit whose HTML seeds the Tags Path.
    #[allow(clippy::too_many_arguments)]
    pub fn initiator_fetch(
        &mut self,
        world: &mut World,
        domain: &str,
        product: ProductId,
        day: u32,
        quarter: u8,
        now_ms: u64,
        request_seq: u64,
    ) -> Option<String> {
        match self.own_fetch(world, domain, product, day, quarter, now_ms, request_seq)? {
            (FetchResult::Page { html, .. }, set_cookies) => {
                let browser = self.browser.expose_mut();
                browser.apply_cookies(set_cookies);
                browser.visit(domain, &format!("{domain}/product/{}", product.0));
                self.ledger.expose_mut().record_real_visits(domain, 1);
                Some(html)
            }
            (FetchResult::Captcha { html }, _) => Some(html),
        }
    }

    /// A fetch as the user: their own cookies, sign-in and affluence. The
    /// page comes with the cookies it sets (none for a CAPTCHA).
    #[allow(clippy::too_many_arguments)]
    fn own_fetch(
        &self,
        world: &mut World,
        domain: &str,
        product: ProductId,
        day: u32,
        time_quarter: u8,
        now_ms: u64,
        request_seq: u64,
    ) -> Option<(FetchResult, Vec<(String, Cookie)>)> {
        let ctx = FetchContext {
            ip: self.ip,
            country: self.country,
            cookies: &self.browser.expose().cookies,
            user_agent: self.user_agent,
            logged_in: self.logged_in_domains.expose().iter().any(|d| d == domain),
            day,
            time_quarter,
            request_seq,
            client_id: self.peer_id,
        };
        let (retailer, rates) = world.retailer_and_rates(domain)?;
        let result = retailer.fetch(product, &ctx, now_ms, rates)?;
        let set_cookies = match result {
            FetchResult::Page { .. } => retailer.response_cookies(
                product,
                ctx.client_id,
                *self.affluence.expose(),
                self.peer_id,
            ),
            FetchResult::Captcha { .. } => Vec::new(),
        };
        Some((result, set_cookies))
    }

    /// Predicts (without charging) which [`FetchMode`] a remote fetch
    /// towards `domain` would use — the add-on needs this *before* the
    /// doppelganger round-trip (Fig. 1 steps 3.3/3.4).
    pub fn peek_mode(&self, domain: &str) -> FetchMode {
        let ledger = self.ledger.expose();
        if ledger.real_visits(domain) == 0 {
            FetchMode::CleanOwnState
        } else if ledger.remote_fetches(domain) < ledger.budget(domain) {
            FetchMode::RealOwnState
        } else {
            FetchMode::Doppelganger
        }
    }

    /// Serves a *remote* price-check fetch (Fig. 1 step 3.2), applying the
    /// §3.6 decision tree. `doppelganger_state` must be provided when the
    /// ledger demands doppelganger mode; without it the fetch falls back to
    /// a clean-state fetch (still sandboxed).
    #[allow(clippy::too_many_arguments)] // mirrors the FetchOrder message
    pub fn remote_fetch(
        &mut self,
        world: &mut World,
        domain: &str,
        product: ProductId,
        day: u32,
        time_quarter: u8,
        now_ms: u64,
        request_seq: u64,
        doppelganger_state: Option<&CookieJar>,
    ) -> Option<ProxyFetch> {
        let mode = self.ledger.expose_mut().decide_and_charge(domain);
        let logged_in = mode == FetchMode::RealOwnState
            && self.logged_in_domains.expose().iter().any(|d| d == domain);

        // Select the jar the fetch will expose.
        let empty = CookieJar::new();
        let jar_for_fetch: &CookieJar = match mode {
            FetchMode::RealOwnState | FetchMode::CleanOwnState => &self.browser.expose().cookies,
            FetchMode::Doppelganger => doppelganger_state.unwrap_or(&empty),
        };

        let client_id = match mode {
            FetchMode::Doppelganger => {
                // The doppelganger's stable identity, not the user's.
                sheriff_market::hash_str(
                    jar_for_fetch
                        .value(domain, "session_id")
                        .unwrap_or("doppelganger"),
                )
            }
            _ => self.peer_id,
        };

        let ctx = FetchContext {
            ip: self.ip,
            country: self.country,
            cookies: jar_for_fetch,
            user_agent: self.user_agent,
            logged_in,
            day,
            time_quarter,
            request_seq,
            client_id,
        };

        let (retailer, rates) = world.retailer_and_rates(domain)?;
        let affluence = if mode == FetchMode::Doppelganger {
            0.5 // the doppelganger's own (cluster-average) persona
        } else {
            *self.affluence.expose()
        };
        let result = retailer.fetch(product, &ctx, now_ms, rates)?;

        let (html, captcha, truth_eur, set_cookies) = match result {
            FetchResult::Page {
                html, price_eur, ..
            } => {
                let set_cookies =
                    retailer.response_cookies(product, client_id, affluence, client_id);
                (html, false, Some(price_eur), set_cookies)
            }
            FetchResult::Captcha { html } => (html, true, None, Vec::new()),
        };

        // Sandbox the local state: replay the cookie installs through the
        // sandbox so they are intercepted and the URL trace removed.
        let url = format!("{domain}/product/{}", product.0);
        let browser = self.browser.expose_mut();
        let report = browser.sandboxed_fetch(move |_| (set_cookies, url));

        Some(ProxyFetch {
            html,
            captcha,
            truth_eur,
            mode,
            sandbox: Some(report),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sheriff_geo::IpAllocator;
    use sheriff_market::pricing::{Browser, Os};
    use sheriff_market::world::WorldConfig;

    fn world() -> World {
        World::build(&WorldConfig::small(), 5)
    }

    fn ua() -> UserAgent {
        UserAgent {
            os: Os::Linux,
            browser: Browser::Firefox,
        }
    }

    fn ppc(country: Country) -> PpcEngine {
        let spec = PpcSpec {
            peer_id: 7,
            country,
            city_idx: 0,
            user_agent: ua(),
            affluence: 0.4,
            logged_in_domains: vec![],
        };
        PpcEngine::new(&spec, IpAllocator::new().allocate(country, 0))
    }

    #[test]
    fn ipc_fetch_is_clean_and_priced() {
        let mut w = world();
        let mut alloc = IpAllocator::new();
        let ipc = IpcEngine {
            id: 1,
            country: Country::US,
            city_idx: 0,
            ip: alloc.allocate(Country::US, 0),
            user_agent: ua(),
        };
        let f = ipc
            .fetch(&mut w, "steampowered.com", ProductId(0), 0, 0, 0, 1)
            .unwrap();
        assert!(!f.captcha);
        assert!(f.truth_eur.unwrap() > 0.0);
        assert!(f.html.contains("price") || f.html.contains("prc"));
    }

    #[test]
    fn ppc_user_visits_build_budget_then_remote_uses_real_state() {
        let mut w = world();
        let mut p = ppc(Country::ES);
        for i in 0..4 {
            p.user_visit(&mut w, "jcpenney.com", ProductId(i), 0, 0, i as u64);
        }
        assert_eq!(p.ledger.expose().budget("jcpenney.com"), 1);
        assert!(!p.browser.expose().cookies.get("jcpenney.com").is_empty());

        let f = p
            .remote_fetch(&mut w, "jcpenney.com", ProductId(9), 0, 0, 100, 50, None)
            .unwrap();
        assert_eq!(f.mode, FetchMode::RealOwnState);
        assert!(f.sandbox.unwrap().is_clean());
        // Second remote fetch: budget exhausted → doppelganger mode.
        let f2 = p
            .remote_fetch(&mut w, "jcpenney.com", ProductId(9), 0, 0, 200, 51, None)
            .unwrap();
        assert_eq!(f2.mode, FetchMode::Doppelganger);
    }

    #[test]
    fn unvisited_domain_remote_fetch_is_clean_mode() {
        let mut w = world();
        let mut p = ppc(Country::ES);
        let f = p
            .remote_fetch(&mut w, "amazon.com", ProductId(0), 0, 0, 0, 1, None)
            .unwrap();
        assert_eq!(f.mode, FetchMode::CleanOwnState);
        assert!(f.sandbox.unwrap().is_clean());
        let browser = p.browser.expose();
        assert!(browser.cookies.is_empty(), "no state left behind");
        assert_eq!(browser.history.count("amazon.com"), 0);
    }

    #[test]
    fn doppelganger_state_is_used_when_provided() {
        let mut w = world();
        let mut p = ppc(Country::GB);
        // Saturate the domain: 4 visits → budget 1 → consume it.
        for i in 0..4 {
            p.user_visit(&mut w, "jcpenney.com", ProductId(i), 0, 0, i as u64);
        }
        let _ = p.remote_fetch(&mut w, "jcpenney.com", ProductId(5), 0, 0, 10, 10, None);

        let mut dopp_state = CookieJar::new();
        dopp_state.set(
            "jcpenney.com",
            sheriff_market::Cookie {
                name: "session_id".into(),
                value: "dopp123".into(),
                third_party: false,
            },
        );
        let f = p
            .remote_fetch(
                &mut w,
                "jcpenney.com",
                ProductId(5),
                0,
                0,
                20,
                11,
                Some(&dopp_state),
            )
            .unwrap();
        assert_eq!(f.mode, FetchMode::Doppelganger);
        assert!(f.sandbox.unwrap().is_clean());
        // The user's own jar must be untouched by the doppelganger fetch.
        assert!(p
            .browser
            .expose()
            .cookies
            .value("jcpenney.com", "session_id")
            .is_some());
    }

    #[test]
    fn remote_fetches_leave_history_clean_always() {
        let mut w = world();
        let mut p = ppc(Country::FR);
        for i in 0..30 {
            let f = p
                .remote_fetch(
                    &mut w,
                    "chegg.com",
                    ProductId(i % 8),
                    0,
                    0,
                    i as u64,
                    i as u64,
                    None,
                )
                .unwrap();
            assert!(f.sandbox.unwrap().is_clean(), "fetch {i}");
        }
        assert_eq!(p.browser.expose().history.count("chegg.com"), 0);
        assert!(p.browser.expose().cookies.is_empty());
    }
}
