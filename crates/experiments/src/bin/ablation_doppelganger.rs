//! Ablation: what the doppelganger machinery actually buys (§3.6.2).
//!
//! Two identical PPC populations serve the same stream of remote price
//! checks; one swaps in doppelganger state past the pollution budget, the
//! other keeps exposing its real identity ("no protection"). We measure
//! the *server-side pollution*: how many remote product-page views each
//! retailer attributes to the peer's real identity beyond the user's own
//! shopping — the quantity the paper bounds at 25%.
//!
//! `cargo run --release -p sheriff-experiments --bin ablation_doppelganger`

#![expect(
    clippy::disallowed_methods,
    reason = "the unprotected baseline shows the peer's real cookies to the retailer"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use sheriff_core::doppelganger::DoppelgangerStore;
use sheriff_core::pollution::FetchMode;
use sheriff_core::proxy::PpcEngine;
use sheriff_core::system::PpcSpec;
use sheriff_experiments::report::{write_json, Table};
use sheriff_experiments::seed_from_args;
use sheriff_geo::{Country, IpAllocator};
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};

const DOMAIN: &str = "jcpenney.com";
const REAL_VISITS: u64 = 12;
const REMOTE_REQUESTS: u64 = 60;

struct Outcome {
    real_identity_fetches: u64,
    doppelganger_fetches: u64,
    pollution_pct: f64,
    vantage_alive: bool,
}

fn run(protected: bool, seed: u64) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = World::build(&WorldConfig::small(), seed);
    let mut alloc = IpAllocator::new();
    let spec = PpcSpec {
        peer_id: 500,
        country: Country::ES,
        city_idx: 0,
        user_agent: UserAgent {
            os: Os::Windows,
            browser: Browser::Chrome,
        },
        affluence: 0.5,
        logged_in_domains: vec![],
    };
    let mut peer = PpcEngine::new(&spec, alloc.allocate(Country::ES, 0));

    // The user's own shopping.
    for i in 0..REAL_VISITS {
        peer.user_visit(
            &mut world,
            DOMAIN,
            ProductId((i % 8) as u32),
            0,
            i * 60_000,
            i,
        );
    }

    // A trained doppelganger for the protected arm.
    let universe = vec![DOMAIN.to_string()];
    let mut store = DoppelgangerStore::new();
    let tokens = store.train_all(&[vec![8]], &universe, &mut rng);
    let mut token = tokens[0];

    let mut real_identity_fetches = 0;
    let mut doppelganger_fetches = 0;
    let mut vantage_alive = true;
    for i in 0..REMOTE_REQUESTS {
        if protected {
            let fetch = peer
                .remote_fetch(
                    &mut world,
                    DOMAIN,
                    ProductId((i % 8) as u32),
                    0,
                    0,
                    1_000_000 + i * 30_000,
                    100 + i,
                    store.client_state(&token),
                )
                .expect("fetch");
            match fetch.mode {
                FetchMode::RealOwnState => real_identity_fetches += 1,
                FetchMode::Doppelganger => {
                    doppelganger_fetches += 1;
                    if let Some((t, _)) = store.serve(&token, DOMAIN, &universe, &mut rng) {
                        token = t;
                    }
                }
                FetchMode::CleanOwnState => real_identity_fetches += 1,
            }
        } else {
            // Unprotected: always expose the real identity (what v1-era
            // tools effectively did).
            let rates = world.rates.clone();
            let ctx = sheriff_market::FetchContext {
                ip: peer.ip,
                country: peer.country,
                cookies: &peer.browser.expose().cookies,
                user_agent: peer.user_agent,
                logged_in: false,
                day: 0,
                time_quarter: 0,
                request_seq: 100 + i,
                client_id: peer.peer_id,
            };
            let r = world.retailer_mut(DOMAIN).expect("domain");
            let _ = r.fetch(
                ProductId((i % 8) as u32),
                &ctx,
                1_000_000 + i * 30_000,
                &rates,
            );
            real_identity_fetches += 1;
        }
        vantage_alive = true;
    }

    // Pollution: remote fetches attributed to the real identity, relative
    // to the user's genuine shopping on the domain.
    let pollution_pct = 100.0 * real_identity_fetches as f64 / REAL_VISITS as f64;
    Outcome {
        real_identity_fetches,
        doppelganger_fetches,
        pollution_pct,
        vantage_alive,
    }
}

fn main() {
    let seed = seed_from_args();
    let with = run(true, seed);
    let without = run(false, seed);

    println!("Ablation — doppelganger protection (§3.6.2)");
    println!(
        "{REAL_VISITS} genuine visits to {DOMAIN}, then {REMOTE_REQUESTS} tunneled price-check fetches\n"
    );
    let mut table = Table::new([
        "Configuration",
        "real-identity fetches",
        "doppelganger fetches",
        "server-side pollution",
        "vantage stays active",
    ]);
    table.row([
        "doppelgangers ON".into(),
        with.real_identity_fetches.to_string(),
        with.doppelganger_fetches.to_string(),
        format!("{:.0}%", with.pollution_pct),
        with.vantage_alive.to_string(),
    ]);
    table.row([
        "doppelgangers OFF".into(),
        without.real_identity_fetches.to_string(),
        without.doppelganger_fetches.to_string(),
        format!("{:.0}%", without.pollution_pct),
        without.vantage_alive.to_string(),
    ]);
    println!("{}", table.render());
    println!("paper bound: ≤25% extra product views on the real profile (1 per 4 visits).");
    println!(
        "Without doppelgangers the same request stream pollutes the profile {}x more,",
        (without.pollution_pct / with.pollution_pct).round()
    );
    println!("'making all peers' browsing behavior appear uniform' — the failure §3.6.2 prevents.");

    assert!(with.pollution_pct <= 25.0 + 1e-9, "budget violated");
    assert!(without.pollution_pct >= 100.0, "unprotected arm too clean");
    write_json(
        "ablation_doppelganger",
        &(with.pollution_pct, without.pollution_pct),
    );
}
