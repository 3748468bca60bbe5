//! The add-on's browser model: history, cookies, and the sandbox
//! (paper §3.1.2, §3.6.1).
//!
//! The sandbox is the mechanism that lets a peer fetch product pages on
//! behalf of strangers without keeping any local trace: cookies set during
//! the fetch (via HTTP headers or JavaScript — in this model, whatever the
//! retailer's response carries) are intercepted by an undo log, costing
//! what the fetch set, not what the jar holds, and the history/cache
//! records of the fetched URL are removed. §3.6.1 validated exactly this
//! with beta testers and clean VMs; a [`SandboxReport`] replays that check.

use sheriff_kmeans::RawHistory;
use sheriff_market::{Cookie, CookieJar};

/// One user's browser state as the add-on sees it.
#[derive(Clone, Debug, Default)]
pub struct BrowserProfile {
    /// Domain-level history (full URLs are never stored — §2.2 req. 3).
    pub history: RawHistory,
    /// Cookie jar (first- and third-party).
    pub cookies: CookieJar,
    /// Ordered log of visited URLs for cache-trace modelling; cleared per
    /// sandboxed fetch.
    url_trace: Vec<String>,
}

impl BrowserProfile {
    /// Fresh profile (a clean VM).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a real user visit: history + trace.
    pub fn visit(&mut self, domain: &str, url: &str) {
        self.history.record(domain, 1);
        self.url_trace.push(url.to_string());
    }

    /// The URL trace (models browser cache + history entries).
    pub fn url_trace(&self) -> &[String] {
        &self.url_trace
    }

    /// Applies response cookies from a normal (non-sandboxed) fetch.
    pub fn apply_cookies(&mut self, set_cookies: Vec<(String, Cookie)>) {
        for (domain, cookie) in set_cookies {
            self.cookies.set(&domain, cookie);
        }
    }

    /// Runs `fetch` inside a sandbox: the closure reads the jar to send
    /// (the real one — PDI-PD detection requires exposing real state,
    /// §3.6) and returns the response's set-cookies plus the fetched URL,
    /// so the sandbox's own sets are the only writes: each logs its cookie's
    /// pre-fetch state, and the log is undone in reverse.
    pub fn sandboxed_fetch<F>(&mut self, fetch: F) -> SandboxReport
    where
        F: FnOnce(&CookieJar) -> (Vec<(String, Cookie)>, String),
    {
        let jar_len_before = self.cookies.len();
        let trace_before = self.url_trace.len();
        let history_total_before = self.history.total_visits();

        let (set_cookies, fetched_url) = fetch(&self.cookies);

        // Apply what the browser would have stored…
        let mut log: Vec<(String, String, Option<Cookie>)> = Vec::new();
        for (domain, cookie) in set_cookies {
            let name = cookie.name.clone();
            let prior = self.cookies.set(&domain, cookie);
            if !log.iter().any(|(d, n, _)| *d == domain && *n == name) {
                log.push((domain, name, prior));
            }
        }
        self.url_trace.push(fetched_url.clone());
        let intercepted = log
            .iter()
            .filter(|(d, n, prior)| self.cookies.value(d, n) != prior.as_ref().map(|c| &*c.value))
            .count();

        // …then clean it all (cookie interception + history/cache service).
        for (domain, name, prior) in log.iter().rev() {
            match prior {
                Some(cookie) => self.cookies.set(domain, cookie.clone()),
                None => self.cookies.remove(domain, name),
            };
        }
        let trace_added = self
            .url_trace
            .get(trace_before..)
            .is_some_and(|tail| !tail.is_empty() && tail.contains(&fetched_url));
        self.url_trace.truncate(trace_before);

        SandboxReport {
            cookies_intercepted: intercepted,
            cookies_clean: self.cookies.len() == jar_len_before
                && log.iter().all(|(d, n, prior)| {
                    self.cookies.get(d).iter().find(|c| c.name == *n) == prior.as_ref()
                }),
            history_clean: self.history.total_visits() == history_total_before,
            // The fetch's trace entry must be gone; entries from the user's
            // own earlier visits to the same URL legitimately remain.
            trace_clean: self.url_trace.len() == trace_before && trace_added,
        }
    }
}

/// Post-fetch validation: the §3.6.1 beta-test checks as a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SandboxReport {
    /// Cookies the fetch installed, all intercepted: each `(domain, name)`
    /// whose final value differs from its pre-fetch one.
    pub cookies_intercepted: usize,
    /// Every cookie the fetch set reads its pre-fetch state; same jar size.
    pub cookies_clean: bool,
    /// History untouched.
    pub history_clean: bool,
    /// No URL trace (cache/history record) left behind.
    pub trace_clean: bool,
}

impl SandboxReport {
    /// True when no trace of the remote fetch remains.
    pub fn is_clean(&self) -> bool {
        self.cookies_clean && self.history_clean && self.trace_clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as arb_vec;
    use proptest::prelude::*;
    use std::sync::Mutex;

    fn cookie(name: &str) -> Cookie {
        Cookie {
            name: name.into(),
            value: "v".into(),
            third_party: false,
        }
    }

    #[test]
    fn normal_visits_accumulate() {
        let mut b = BrowserProfile::new();
        b.visit("shop.com", "shop.com/p/1");
        b.visit("shop.com", "shop.com/p/2");
        b.visit("news.com", "news.com/");
        assert_eq!(b.history.count("shop.com"), 2);
        assert_eq!(b.url_trace().len(), 3);
    }

    #[test]
    fn sandbox_removes_cookies_and_trace() {
        let mut b = BrowserProfile::new();
        b.visit("other.com", "other.com/");
        b.apply_cookies(vec![("other.com".into(), cookie("mine"))]);

        let report = b.sandboxed_fetch(|_jar| {
            (
                vec![
                    ("shop.com".into(), cookie("session")),
                    (
                        "tracker.example".into(),
                        Cookie {
                            name: "uid".into(),
                            value: "1".into(),
                            third_party: true,
                        },
                    ),
                ],
                "shop.com/product/9".to_string(),
            )
        });

        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.cookies_intercepted, 2);
        assert!(b.cookies.get("shop.com").is_empty());
        assert!(b.cookies.get("tracker.example").is_empty());
        assert_eq!(b.cookies.value("other.com", "mine"), Some("v"));
        assert!(!b.url_trace().iter().any(|u| u.contains("shop.com")));
        assert_eq!(b.history.count("shop.com"), 0);
    }

    #[test]
    fn sandbox_sends_real_state() {
        let mut b = BrowserProfile::new();
        b.apply_cookies(vec![("shop.com".into(), cookie("loyal_customer"))]);
        let mut sent = None;
        let _ = b.sandboxed_fetch(|jar| {
            sent = Some(jar.value("shop.com", "loyal_customer").map(str::to_string));
            (vec![], "shop.com/p/1".to_string())
        });
        assert_eq!(
            sent.unwrap().as_deref(),
            Some("v"),
            "real state exposed to fetch"
        );
    }

    #[test]
    fn sandbox_preserves_preexisting_cookie_values() {
        // The retailer overwrites an existing cookie during the fetch; the
        // sandbox must restore the original value.
        let mut b = BrowserProfile::new();
        b.apply_cookies(vec![("shop.com".into(), cookie("session"))]);
        let report = b.sandboxed_fetch(|_| {
            (
                vec![(
                    "shop.com".into(),
                    Cookie {
                        name: "session".into(),
                        value: "POLLUTED".into(),
                        third_party: false,
                    },
                )],
                "shop.com/p/2".to_string(),
            )
        });
        assert!(report.is_clean());
        assert_eq!(b.cookies.value("shop.com", "session"), Some("v"));
    }

    #[test]
    fn repeated_sandboxed_fetches_stay_clean() {
        let mut b = BrowserProfile::new();
        for i in 0..50 {
            let report = b.sandboxed_fetch(|_| {
                (
                    vec![("shop.com".into(), cookie(&format!("c{i}")))],
                    format!("shop.com/p/{i}"),
                )
            });
            assert!(report.is_clean(), "iteration {i}");
        }
        assert!(b.cookies.is_empty());
        assert!(b.url_trace().is_empty());
    }

    /// Cookies in `after` whose `(name, value)` the same domain in `before`
    /// lacks: what the snapshot sandbox counted as intercepted.
    fn added_since(after: &CookieJar, before: &CookieJar) -> usize {
        after
            .domains()
            .flat_map(|d| after.get(d).iter().map(move |c| (d, c)))
            .filter(|&(d, c)| {
                !before
                    .get(d)
                    .iter()
                    .any(|b| b.name == c.name && b.value == c.value)
            })
            .count()
    }

    /// The snapshot sandbox the undo log replaced, kept as its oracle:
    /// clone the jar, apply, diff, restore, compare. Returns
    /// `(cookies_intercepted, cookies_clean)`.
    fn snapshot_sandbox(jar: &mut CookieJar, set_cookies: &[(String, Cookie)]) -> (usize, bool) {
        let before = jar.clone();
        for (domain, cookie) in set_cookies {
            jar.set(domain, cookie.clone());
        }
        let added = added_since(jar, &before);
        *jar = before.clone();
        (added, *jar == before)
    }

    /// Small name and value pools, so responses collide with the jar.
    fn arb_cookie() -> impl Strategy<Value = Cookie> {
        (0u8..12, 0u8..3, any::<bool>()).prop_map(|(n, v, third_party)| Cookie {
            name: format!("c{n}"),
            value: format!("v{v}"),
            third_party,
        })
    }

    /// One set-cookie aimed at `jar` and the `response` so far: 0 gives a
    /// held cookie a new value, 1 re-sets it unchanged, 2 is a first
    /// cookie on a new domain, 3 repeats a key of the response, 4 flips a
    /// held cookie's `third_party`, anything else sets `fresh` on a held
    /// domain.
    fn set_cookie(
        jar: &CookieJar,
        response: &[(String, Cookie)],
        shape: u8,
        pick: usize,
        fresh: Cookie,
    ) -> (String, Cookie) {
        let held: Vec<(&str, &Cookie)> = jar
            .domains()
            .flat_map(|d| jar.get(d).iter().map(move |c| (d, c)))
            .collect();
        let (d, c) = held[pick % held.len()];
        match shape {
            0 => (
                d.into(),
                Cookie {
                    value: format!("{}+", c.value),
                    ..c.clone()
                },
            ),
            1 => (d.into(), c.clone()),
            2 => (format!("new{}.example", pick % 3), fresh),
            3 if !response.is_empty() => {
                let (d, c) = &response[pick % response.len()];
                (
                    d.clone(),
                    Cookie {
                        name: c.name.clone(),
                        ..fresh
                    },
                )
            }
            4 => (
                d.into(),
                Cookie {
                    third_party: !c.third_party,
                    ..c.clone()
                },
            ),
            _ => (d.into(), fresh),
        }
    }

    /// Which shapes `response` holds against `jar`, observed rather than
    /// asked for: overwrite, identical re-set, new domain, a key twice,
    /// flipped `third_party`.
    fn shapes(jar: &CookieJar, response: &[(String, Cookie)]) -> [bool; 5] {
        let mut seen = [false; 5];
        for (i, (d, c)) in response.iter().enumerate() {
            let held = jar.get(d).iter().find(|h| h.name == c.name);
            seen[0] |= held.is_some_and(|h| h.value != c.value);
            seen[1] |= held == Some(c);
            seen[2] |= jar.get(d).is_empty();
            seen[3] |= response[..i]
                .iter()
                .any(|(e, k)| e == d && k.name == c.name);
            seen[4] |= held.is_some_and(|h| h.value == c.value && h.third_party != c.third_party);
        }
        seen
    }

    const CASES: u32 = 256;
    /// Cases run so far, and how many of them held each shape.
    static SEEN: Mutex<(u32, [u32; 5])> = Mutex::new((0, [0; 5]));

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn undo_log_sandbox_agrees_with_snapshot_oracle(
            domains in arb_vec(arb_vec(arb_cookie(), 1..=12), 1..=40),
            draws in arb_vec((0u8..6, any::<usize>(), arb_cookie()), 0..=10),
        ) {
            let mut b = BrowserProfile::new();
            for (i, cookies) in domains.into_iter().enumerate() {
                let domain = format!("d{i}.example");
                b.apply_cookies(cookies.into_iter().map(|c| (domain.clone(), c)).collect());
            }
            let mut response = Vec::new();
            for (shape, pick, fresh) in draws {
                let set = set_cookie(&b.cookies, &response, shape, pick, fresh);
                response.push(set);
            }
            let jar_before = b.cookies.clone();
            let (intercepted, clean) = snapshot_sandbox(&mut jar_before.clone(), &response);
            {
                let mut seen = SEEN.lock().expect("no earlier case panicked");
                seen.0 += 1;
                for (count, held) in seen.1.iter_mut().zip(shapes(&jar_before, &response)) {
                    *count += u32::from(held);
                }
                if seen.0 == CASES {
                    prop_assert!(seen.1.iter().all(|&n| n > 0), "shape never drawn: {:?}", seen.1);
                }
            }

            let report = b.sandboxed_fetch(|_| (response, "d0.example/p/1".to_string()));
            prop_assert_eq!(&b.cookies, &jar_before);
            prop_assert_eq!(report.cookies_intercepted, intercepted);
            prop_assert!(clean && report.is_clean(), "{report:?}");
        }
    }
}
