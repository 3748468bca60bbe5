//! The §3.6.1 validation, as a test instead of a beta-test campaign:
//! "We did not observe any cookies installed nor any traces of remote
//! product page requests in any VM."

#![expect(
    clippy::disallowed_methods,
    reason = "the test inspects the peer's real browser state to prove it clean"
)]

use sheriff_core::pollution::FetchMode;
use sheriff_core::proxy::PpcEngine;
use sheriff_core::system::PpcSpec;
use sheriff_geo::{Country, IpAllocator};
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};

fn fresh_vm(country: Country, peer_id: u64) -> PpcEngine {
    let spec = PpcSpec {
        peer_id,
        country,
        city_idx: 0,
        user_agent: UserAgent {
            os: Os::Windows,
            browser: Browser::Chrome,
        },
        affluence: 0.0,
        logged_in_domains: vec![],
    };
    PpcEngine::new(&spec, IpAllocator::new().allocate(country, 0))
}

#[test]
fn clean_vm_stays_clean_after_serving_many_requests() {
    // The beta-test setup: VMs with freshly installed browsers only serve
    // remote requests for a week.
    let mut world = World::build(&WorldConfig::small(), 55);
    let domains: Vec<String> = world.domains().take(10).map(str::to_string).collect();
    let mut vm = fresh_vm(Country::ES, 42);

    for (i, domain) in domains.iter().cycle().take(100).enumerate() {
        let fetch = vm
            .remote_fetch(
                &mut world,
                domain,
                ProductId((i % 5) as u32),
                0,
                0,
                i as u64 * 1000,
                i as u64,
                None,
            )
            .expect("fetch succeeds");
        assert!(
            fetch.sandbox.expect("ppc fetches are sandboxed").is_clean(),
            "request {i}"
        );
        assert_eq!(
            fetch.mode,
            FetchMode::CleanOwnState,
            "fresh VM never has budget"
        );
    }

    // No cookies, no history, no URL traces — the VM is indistinguishable
    // from freshly installed.
    let browser = vm.browser.expose();
    assert!(
        browser.cookies.is_empty(),
        "cookies leaked: {:?}",
        browser.cookies
    );
    assert_eq!(browser.history.total_visits(), 0, "history polluted");
    assert!(browser.url_trace().is_empty(), "cache traces left");
}

#[test]
fn real_user_state_preserved_exactly_while_serving() {
    let mut world = World::build(&WorldConfig::small(), 55);
    let mut user = fresh_vm(Country::GB, 43);

    // The user shops for themselves first.
    for p in 0..6u32 {
        user.user_visit(
            &mut world,
            "jcpenney.com",
            ProductId(p),
            0,
            (p as u64) * 100,
            p as u64,
        );
    }
    let before = user.browser.expose();
    let cookies_before = before.cookies.clone();
    let history_before = before.history.total_visits();
    let trace_before = before.url_trace().len();

    // Then serves a burst of remote requests (real-state and doppelganger
    // modes both occur because the budget is finite).
    let mut modes = Vec::new();
    for i in 0..20u64 {
        let fetch = user
            .remote_fetch(
                &mut world,
                "jcpenney.com",
                ProductId((i % 6) as u32),
                0,
                0,
                10_000 + i * 500,
                100 + i,
                None,
            )
            .expect("fetch succeeds");
        assert!(fetch.sandbox.expect("sandboxed").is_clean(), "request {i}");
        modes.push(fetch.mode);
    }
    assert!(modes.contains(&FetchMode::RealOwnState), "budget unused");
    assert!(
        modes.contains(&FetchMode::Doppelganger),
        "budget never exhausted"
    );

    // Local state identical to before serving.
    let after = user.browser.expose();
    assert_eq!(after.cookies, cookies_before);
    assert_eq!(after.history.total_visits(), history_before);
    assert_eq!(after.url_trace().len(), trace_before);
}

#[test]
fn pollution_budget_respects_one_per_four_rule() {
    let mut world = World::build(&WorldConfig::small(), 55);
    let mut user = fresh_vm(Country::ES, 44);
    for p in 0..8u32 {
        user.user_visit(&mut world, "chegg.com", ProductId(p), 0, 0, p as u64);
    }
    // 8 real visits → budget exactly 2 real-state serves.
    let mut real = 0;
    for i in 0..10u64 {
        let fetch = user
            .remote_fetch(
                &mut world,
                "chegg.com",
                ProductId(0),
                0,
                0,
                1000 + i,
                50 + i,
                None,
            )
            .expect("fetch");
        if fetch.mode == FetchMode::RealOwnState {
            real += 1;
        }
    }
    assert_eq!(real, 2, "1-per-4-visits budget violated");
}
