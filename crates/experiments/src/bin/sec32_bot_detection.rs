//! §3.2's discussion, made measurable: "The IPCs are more prone to
//! detection since their IP addresses are usually the same over time …
//! From the e-retailers' perspective, detecting and blocking the PPCs
//! requests is very difficult."
//!
//! A retailer with an aggressive per-IP frequency detector is crawled at
//! high rate through (a) a fixed-IP IPC and (b) a pool of PPCs whose
//! addresses churn (ISP DHCP renewals). The IPC gets CAPTCHA'd; the peers
//! sail through.
//!
//! `cargo run --release -p sheriff-experiments --bin sec32_bot_detection`

use rand::rngs::StdRng;
use rand::SeedableRng;

use sheriff_core::proxy::{IpcEngine, PpcEngine};
use sheriff_core::system::PpcSpec;
use sheriff_experiments::report::{write_json, Table};
use sheriff_experiments::seed_from_args;
use sheriff_geo::{Country, IpAllocator, ProductCategory};
use sheriff_market::bot::BotDetector;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::product::generate_catalog;
use sheriff_market::tracker::Tracker;
use sheriff_market::world::WorldConfig;
use sheriff_market::{PriceFormat, ProductId, Retailer, UserAgent, World};

fn main() {
    let seed = seed_from_args();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb07);
    let mut world = World::build(
        &WorldConfig {
            n_generic_discriminating: 0,
            n_plain: 2,
            n_alexa: 0,
            products_per_retailer: 10,
        },
        seed,
    );
    // A defended retailer: >8 requests per minute from one IP → CAPTCHA.
    world.add_retailer(Retailer::new(
        "fortress-shop.example",
        Country::US,
        true,
        PriceFormat::SymbolPrefix,
        0,
        generate_catalog(10, ProductCategory::Electronics, &mut rng),
        vec![],
        vec![Tracker::by_index(0)],
        Some(BotDetector::new(60_000, 8)),
    ));

    let ua = UserAgent {
        os: Os::Linux,
        browser: Browser::Firefox,
    };
    let mut alloc = IpAllocator::new();
    let requests = 120u64;
    let interval_ms = 3_000u64; // 20 req/min — way past the threshold

    // (a) One IPC, fixed address.
    let ipc = IpcEngine {
        id: 0,
        country: Country::ES,
        city_idx: 0,
        ip: alloc.allocate(Country::ES, 0),
        user_agent: ua,
    };
    let mut ipc_blocked = 0;
    for i in 0..requests {
        let f = ipc
            .fetch(
                &mut world,
                "fortress-shop.example",
                ProductId((i % 10) as u32),
                0,
                0,
                i * interval_ms,
                i,
            )
            .expect("fetch");
        if f.captcha {
            ipc_blocked += 1;
        }
    }

    // (b) Five PPCs sharing the load, addresses churning every ~15 requests
    //     (ISP lease renewal).
    let mut peers: Vec<PpcEngine> = (0..5u64)
        .map(|i| {
            let spec = PpcSpec {
                peer_id: 400 + i,
                country: Country::ES,
                city_idx: 0,
                user_agent: ua,
                affluence: 0.2,
                logged_in_domains: vec![],
            };
            PpcEngine::new(&spec, alloc.allocate(Country::ES, 0))
        })
        .collect();
    let mut ppc_blocked = 0;
    for i in 0..requests {
        let peer = &mut peers[(i % 5) as usize];
        if i % 15 == 14 {
            peer.ip = alloc.churn(peer.ip, &mut rng);
        }
        let f = peer
            .remote_fetch(
                &mut world,
                "fortress-shop.example",
                ProductId((i % 10) as u32),
                0,
                0,
                i * interval_ms,
                1000 + i,
                None,
            )
            .expect("fetch");
        if f.captcha {
            ppc_blocked += 1;
        }
    }

    println!("§3.2 — bot detection: fixed-IP IPC vs churning PPC pool");
    println!("(retailer blocks >8 requests/minute/IP; crawl rate 20/minute)\n");
    let mut table = Table::new(["Vantage", "requests", "CAPTCHA'd", "block rate"]);
    table.row([
        "1 IPC (fixed IP)".into(),
        requests.to_string(),
        ipc_blocked.to_string(),
        format!("{:.0}%", 100.0 * ipc_blocked as f64 / requests as f64),
    ]);
    table.row([
        "5 PPCs (churning IPs)".into(),
        requests.to_string(),
        ppc_blocked.to_string(),
        format!("{:.0}%", 100.0 * ppc_blocked as f64 / requests as f64),
    ]);
    println!("{}", table.render());
    println!("paper: 'detecting and blocking the PPCs requests is very difficult';");
    println!("       the production system also killed stuck proxy requests at 2 min.");

    assert!(ipc_blocked > requests / 2, "IPC should be mostly blocked");
    assert_eq!(ppc_blocked, 0, "peer pool should evade entirely");
    write_json("sec32_bot_detection", &(ipc_blocked, ppc_blocked, requests));
}
