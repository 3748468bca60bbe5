//! Ablation: DiffStorage (§10.5) — how much database volume the
//! store-base-plus-diffs scheme saves on a real fan-out, versus storing
//! every proxy response in full.
//!
//! `cargo run --release -p sheriff-experiments --bin ablation_diffstorage`

use sheriff_experiments::report::{write_json, Table};
use sheriff_experiments::seed_from_args;
use sheriff_geo::{Country, IpAllocator};
use sheriff_html::DiffStorage;
use sheriff_market::pricing::{Browser, FetchContext, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{CookieJar, FetchResult, ProductId, UserAgent, World};

fn main() {
    let seed = seed_from_args();
    let mut world = World::build(&WorldConfig::small(), seed);
    let rates = world.rates.clone();
    let alloc = IpAllocator::new();
    let countries: Vec<Country> = Country::all().take(30).collect();

    println!("Ablation — DiffStorage vs full copies (§10.5)\n");
    let mut table = Table::new(["Domain", "fan-out", "full copies", "diff-stored", "saving"]);
    let mut totals = (0usize, 0usize);
    for domain in [
        "steampowered.com",
        "jcpenney.com",
        "amazon.com",
        "luisaviaroma.com",
    ] {
        // The initiator's page is the base…
        let jar = CookieJar::new();
        let fetch = |world: &mut World, country: Country, seq: u64| -> String {
            let ctx = FetchContext {
                ip: alloc_ip(&mut alloc.clone(), country),
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
            match world
                .retailer_mut(domain)
                .expect("domain")
                .fetch(ProductId(0), &ctx, 0, &rates)
                .expect("product")
            {
                FetchResult::Page { html, .. } => html,
                FetchResult::Captcha { html } => html,
            }
        };
        let base = fetch(&mut world, Country::ES, 1);
        let mut store = DiffStorage::new(&base);
        // …then the paper's 30-IPC fan-out.
        for (i, &c) in countries.iter().enumerate() {
            let page = fetch(&mut world, c, 100 + i as u64);
            store.store(&page);
        }
        let (stored, full) = store.storage_accounting();
        totals.0 += stored;
        totals.1 += full;
        table.row([
            domain.to_string(),
            countries.len().to_string(),
            format!("{full} B"),
            format!("{stored} B"),
            format!("{:.1}x", full as f64 / stored as f64),
        ]);
    }
    println!("{}", table.render());
    println!(
        "overall: {} B instead of {} B — {:.1}x less database volume",
        totals.0,
        totals.1,
        totals.1 as f64 / totals.0 as f64
    );
    println!("(the deployed system stored 160248 responses for 5700 requests, §6.1 —");
    println!(" without DiffStorage that is a ~28x write amplification on page bodies)");
    assert!(
        totals.1 as f64 / totals.0 as f64 > 3.0,
        "diff storage ineffective"
    );
    write_json("ablation_diffstorage", &totals);
}

fn alloc_ip(alloc: &mut IpAllocator, country: Country) -> sheriff_geo::IpV4 {
    alloc.allocate(country, 0)
}
