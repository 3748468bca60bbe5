//! Cross-backend parity: the discrete-event simulation and the localhost
//! TCP deployment drive the *same* sans-IO protocol machines, so with the
//! same world seed and configuration they must produce identical price
//! observations. This is the contract that lets the paper's performance
//! questions be answered in simulation while the deployment stays honest.
//!
//! Timing differs by construction (virtual clock vs. wall clock), so the
//! comparison is over the protocol-visible *content*: job ids, URLs, and
//! the full sorted observation sets — and over the machine-event
//! counters both backends now publish through the one telemetry fold.

use sheriff_core::records::PriceObservation;
use sheriff_core::system::{PpcSpec, PriceSheriff, SheriffConfig};
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::SimTime;
use sheriff_wire::MiniDeployment;

const SEED: u64 = 4242;

fn peers() -> Vec<PpcSpec> {
    (0..3)
        .map(|i| PpcSpec {
            peer_id: 100 + i,
            country: Country::ES,
            city_idx: 0,
            user_agent: UserAgent {
                os: Os::Windows,
                browser: Browser::Chrome,
            },
            affluence: 0.3 + 0.1 * (i as f64),
            logged_in_domains: vec![],
        })
        .collect()
}

/// The checks both backends run, in order.
const CHECKS: [(u64, &str, u32); 2] = [(100, "steampowered.com", 0), (101, "jcpenney.com", 2)];

/// Machine-event counters that are a pure function of the work done
/// (one per finished job, per DB store, per WAL record), so both
/// backends must report the same value — and a backend that drops the
/// events reports none at all.
const WORK_COUNTERS: [&str; 3] = [
    "measurement.jobs_finished",
    "db.queries_total",
    "db.wal_appends",
];

fn sorted(mut obs: Vec<PriceObservation>) -> Vec<PriceObservation> {
    obs.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    obs
}

#[test]
fn same_seed_same_world_identical_observations_on_both_backends() {
    // --- Discrete-event run. Checks are submitted far enough apart that
    // each completes before the next is minted, matching the sequential
    // TCP client below (including the coordinator's load-based choices).
    let world = World::build(&WorldConfig::small(), SEED);
    let mut sheriff = PriceSheriff::new(SheriffConfig::fast(SEED), world, &peers());
    for (i, (peer, domain, product)) in CHECKS.iter().enumerate() {
        sheriff.submit_check(
            SimTime::from_secs(10 * i as u64),
            *peer,
            domain,
            ProductId(*product),
        );
    }
    sheriff.run_until(SimTime::from_mins(5));
    let des: Vec<_> = sheriff.completed();
    assert_eq!(des.len(), CHECKS.len(), "DES completed all checks");
    assert!(sheriff.rejections().is_empty());
    let des_snap = sheriff.telemetry().snapshot();

    // --- TCP run over the same world and configuration.
    let world = World::build(&WorldConfig::small(), SEED);
    let deployment = MiniDeployment::start_with(world, SheriffConfig::fast(SEED), &peers())
        .expect("deployment starts");
    let mut tcp = Vec::new();
    for (peer, domain, product) in CHECKS {
        tcp.push(
            deployment
                .run_check(peer, domain, ProductId(product))
                .unwrap_or_else(|e| panic!("tcp check on {domain}: {e}")),
        );
    }
    let tcp_snap = deployment.telemetry().snapshot();
    deployment.shutdown();

    // --- Same work, same books.
    for name in WORK_COUNTERS {
        assert_eq!(
            des_snap.counters.get(name).copied(),
            Some(CHECKS.len() as u64),
            "{name} on the DES backend"
        );
        assert_eq!(
            tcp_snap.counters.get(name).copied(),
            des_snap.counters.get(name).copied(),
            "{name} diverged between backends"
        );
    }

    // --- Same jobs, same result sets.
    for (d, t) in des.iter().zip(&tcp) {
        assert_eq!(d.check.job_id, t.job_id);
        assert_eq!(d.check.domain, t.domain);
        assert_eq!(d.check.url, t.url);
        assert_eq!(d.check.day, t.day);
        // Initiator + 30 IPCs + 2 local PPCs.
        assert_eq!(d.check.observations.len(), 33, "{}", d.check.domain);
        assert_eq!(t.observations.len(), 33, "{}", t.domain);
        let des_obs = sorted(d.check.observations.clone());
        let tcp_obs = sorted(t.observations.clone());
        assert_eq!(
            des_obs, tcp_obs,
            "observation sets diverge for {}",
            t.domain
        );
    }
}
