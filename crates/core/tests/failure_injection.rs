//! Failure injection: the system must degrade gracefully when the world
//! misbehaves — CAPTCHAs, straggler proxies cut by the deadline, unknown
//! products, rejected domains under load, and a misbehaving peer whose
//! id fills the top of the `u64` range.

use sheriff_core::coordinator::PeerId;
use sheriff_core::protocol::ProtoMsg;
use sheriff_core::system::{PpcSpec, PriceSheriff, SheriffConfig};
use sheriff_geo::Country;
use sheriff_market::bot::BotDetector;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::{NodeId, SimTime};

fn specs(n: u64) -> Vec<PpcSpec> {
    (0..n)
        .map(|i| PpcSpec {
            peer_id: 100 + i,
            country: Country::ES,
            city_idx: 0,
            user_agent: UserAgent {
                os: Os::Linux,
                browser: Browser::Firefox,
            },
            affluence: 0.2,
            logged_in_domains: vec![],
        })
        .collect()
}

#[test]
fn captcha_blocked_ipcs_yield_failed_observations_not_hangs() {
    // Arm an aggressive bot detector on the target: the 30 IPC fetches of
    // each check hammer it from fixed IPs, so repeat checks trip CAPTCHAs.
    let mut world = World::build(&WorldConfig::small(), 61);
    world.retailer_mut("steampowered.com").expect("domain").bot =
        Some(BotDetector::new(600_000, 2));

    // Six distinct initiators and no PPC fan-out: every residential IP is
    // hit once, while the 30 fixed-IP IPCs are hit once per check and blow
    // through the threshold from the third check on (§3.2: "The IPCs are
    // more prone to detection").
    let mut cfg = SheriffConfig::fast(61);
    cfg.ppc_per_request = 0;
    let mut sheriff = PriceSheriff::new(cfg, world, &specs(6));
    for i in 0..6u64 {
        sheriff.submit_check(
            SimTime::from_millis(i * 500),
            100 + i,
            "steampowered.com",
            ProductId(0),
        );
    }
    sheriff.run_until(SimTime::from_mins(5));
    let done = sheriff.completed();
    assert_eq!(done.len(), 6, "all checks complete (initiators never trip)");
    // Proxy-side CAPTCHAs surface as failed observations, never as prices.
    let failed_total: usize = done
        .iter()
        .map(|c| c.check.observations.iter().filter(|o| o.failed).count())
        .sum();
    assert!(failed_total > 0, "bot detector never fired on proxies");
    for c in &done {
        for o in c.check.observations.iter().filter(|o| o.failed) {
            assert_eq!(o.amount_eur, 0.0);
        }
    }
    // And — crucially — aborted checks release their jobs: nothing leaks
    // in the Coordinator's pending counters.
    assert_eq!(
        sheriff.pending_jobs_per_server(),
        vec![0; sheriff.pending_jobs_per_server().len()],
        "leaked jobs"
    );
}

#[test]
fn straggler_proxies_are_cut_by_the_deadline() {
    let world = World::build(&WorldConfig::small(), 67);
    let mut cfg = SheriffConfig::fast(67);
    // Overloads dominate and exceed the job deadline → the job must
    // assemble with whatever arrived (§10.3's corrective path).
    cfg.ipc_overload_prob = 0.7;
    cfg.ipc_overload_ms = 60_000;
    cfg.fetch_kill_ms = 60_000;
    cfg.job_deadline_ms = 800;
    let mut sheriff = PriceSheriff::new(cfg, world, &specs(3));
    sheriff.submit_check(SimTime::ZERO, 100, "amazon.com", ProductId(0));
    sheriff.run_until(SimTime::from_mins(3));
    let done = sheriff.completed();
    assert_eq!(done.len(), 1, "deadline assembly failed");
    let obs = done[0].check.observations.len();
    assert!(obs >= 2, "even a degraded check has initiator + fast peers");
    assert!(
        obs < 31,
        "with 70% overload some of the 30 IPCs must miss the deadline (got {obs})"
    );
}

#[test]
fn unknown_product_checks_do_not_wedge_the_system() {
    let world = World::build(&WorldConfig::small(), 71);
    let mut sheriff = PriceSheriff::new(SheriffConfig::fast(71), world, &specs(2));
    // Product 999 does not exist; the check can never complete, but the
    // system must keep serving subsequent valid checks.
    sheriff.submit_check(SimTime::ZERO, 100, "amazon.com", ProductId(999));
    sheriff.submit_check(SimTime::from_secs(1), 101, "amazon.com", ProductId(1));
    sheriff.run_until(SimTime::from_mins(5));
    let done = sheriff.completed();
    assert_eq!(
        done.len(),
        1,
        "valid check must complete despite the poison one"
    );
    assert!(done[0].check.url.ends_with("/1"));
    // The poisoned job must be *reaped*, not merely tolerated: the
    // initiator's abort releases it at the Coordinator, and the
    // Measurement server reaps its half-open entry at the deadline.
    assert_eq!(
        sheriff.pending_jobs_per_server(),
        vec![0, 0],
        "poisoned job leaked in the Coordinator ledger"
    );
    let snap = sheriff.telemetry().snapshot();
    assert!(
        snap.counters["measurement.orphans_reaped"] >= 1,
        "half-open job entry never reaped on the Measurement server"
    );
}

#[test]
fn rejected_domains_under_load_never_leak_jobs() {
    let world = World::build(&WorldConfig::small(), 73);
    let mut sheriff = PriceSheriff::new(SheriffConfig::fast(73), world, &specs(2));
    for i in 0..10u64 {
        sheriff.submit_check(
            SimTime::from_millis(i * 100),
            100,
            "definitely-not-whitelisted.example",
            ProductId(0),
        );
    }
    sheriff.submit_check(SimTime::from_secs(2), 101, "chegg.com", ProductId(0));
    sheriff.run_until(SimTime::from_mins(3));
    let done = sheriff.completed();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].check.domain, "chegg.com");
    // The Coordinator's ledger shows no stuck jobs.
    assert_eq!(
        sheriff.pending_jobs_per_server(),
        vec![0, 0],
        "stuck jobs in the Coordinator ledger"
    );
}

#[test]
fn zero_peer_system_still_answers_with_ipcs_only() {
    // A brand-new deployment with one lonely user and no other peers in
    // their location must still produce the 30-IPC comparison.
    let world = World::build(&WorldConfig::small(), 79);
    let mut sheriff = PriceSheriff::new(SheriffConfig::fast(79), world, &specs(1));
    sheriff.submit_check(SimTime::ZERO, 100, "abercrombie.com", ProductId(0));
    sheriff.run_until(SimTime::from_mins(3));
    let done = sheriff.completed();
    assert_eq!(done.len(), 1);
    let ppc_obs = done[0]
        .check
        .observations
        .iter()
        .filter(|o| o.vantage == sheriff_core::records::VantageKind::Ppc)
        .count();
    assert_eq!(ppc_obs, 0, "no peers exist to ask");
    assert!(
        done[0].check.observations.len() >= 31,
        "initiator + 30 IPCs"
    );
}

#[test]
fn quarantine_of_a_wide_peer_id_still_paroles() {
    // A timer's scope is whatever id the machine put in it; the DES
    // hands its engine an opaque slot, so an id of 2^61 (where `id * 8`
    // no longer fits a u64) comes back as itself.
    const WIDE: u64 = 1 << 61;
    let world = World::build(&WorldConfig::small(), 83);
    let mut peers = specs(1);
    peers[0].peer_id = WIDE;
    let mut sheriff = PriceSheriff::new(SheriffConfig::fast(83), world, &peers);

    // Roster order: the Coordinator is node 0, the only peer comes last.
    let (coordinator, peer) = (NodeId(0), NodeId(sheriff.sim.node_count() - 1));
    // Three requests in someone else's name: +2 each, threshold 6.
    for local_tag in 0..3 {
        sheriff.sim.inject(
            SimTime::from_millis(local_tag * 10),
            coordinator,
            peer,
            ProtoMsg::CoordRequest {
                url: "https://amazon.com/product/0".into(),
                peer: PeerId(30),
                local_tag,
            },
        );
    }
    // Default ladder: 30 s of quarantine, then 15 s of parole.
    sheriff.run_until(SimTime::from_secs(50));
    let totals = sheriff.defense_totals();
    assert_eq!(totals.quarantines, 1);
    assert_eq!(
        totals.paroles, totals.quarantines,
        "the quarantine never ended"
    );
}
