//! Cross-backend parity *under faults*: one [`FaultPlan`] — keyed on
//! per-link occurrence counters, not clocks — is installed in both the
//! discrete-event engine and the TCP deployment's socket shim. The same
//! world seed then must yield identical price-observation sets on both
//! backends: the same fetch orders are eaten, the same replies are
//! duplicated (and absorbed), on either side of the transport divide.
//!
//! Faults ride only on the fetch links, whose per-link message counts are
//! structurally identical across backends: exactly one FetchOrder per job
//! per IPC, and one FetchReply per delivered order. Links carrying
//! reliable (retransmittable) control traffic are left clean, since
//! retransmit counts legitimately differ between a virtual clock and a
//! wall clock.

use sheriff_core::records::PriceObservation;
use sheriff_core::system::{PpcSpec, PriceSheriff, SheriffConfig};
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::{ByzProfile, ByzantinePlan, FaultPlan, LinkFaults, SimTime};
use sheriff_wire::{DeployOptions, MiniDeployment};

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

/// One Measurement server keeps the assignment trivially identical; the
/// node layout is then `[coordinator 0, aggregator 1, db 2, server 3,
/// ipcs 4–33, ppcs 34–36]`.
fn config() -> SheriffConfig {
    let mut cfg = SheriffConfig::fast(SEED);
    cfg.n_measurement_servers = 1;
    cfg
}

/// Half the orders to IPCs 0–5 are eaten; replies from IPCs 6–11 are
/// duplicated and must be absorbed by the server's vantage dedup.
fn shared_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(777);
    let lossy = LinkFaults {
        drop: 0.5,
        ..LinkFaults::NONE
    };
    let chatty = LinkFaults {
        duplicate: 0.6,
        ..LinkFaults::NONE
    };
    for ipc in 4..10 {
        plan = plan.with_link(3, ipc, lossy);
    }
    for ipc in 10..16 {
        plan = plan.with_link(ipc, 3, chatty);
    }
    plan
}

fn sorted(mut obs: Vec<PriceObservation>) -> Vec<PriceObservation> {
    obs.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    obs
}

/// The shared schedule plus a Database crash window astride the first
/// check's StoreCheck (assembly waits out the 2s job deadline under the
/// dropped orders, so the store lands just after 2.05s). Crash drops are
/// parity-safe: they never advance the occurrence-keyed link-fault
/// counters, and the reliable channel re-stores through the restart.
/// The outage is scheduled as two overlapping windows: the restart event
/// that ends the first (2.8s) finds the second still open, so on either
/// backend the Database comes back exactly once, at 3.4s.
fn crashy_plan() -> FaultPlan {
    shared_plan()
        .with_crash(2, 2_050, 2_800)
        .with_crash(2, 2_600, 3_400)
}

#[test]
fn identical_fault_schedule_means_identical_observations_on_both_backends() {
    // --- Discrete-event run under the schedule.
    let world = World::build(&WorldConfig::small(), SEED);
    let mut sheriff = PriceSheriff::new(config(), world, &peers());
    sheriff.install_fault_plan(shared_plan());
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
    let des_stats = sheriff.fault_stats().expect("plan installed");

    // --- TCP run over the same world, config and schedule.
    let world = World::build(&WorldConfig::small(), SEED);
    let deployment = MiniDeployment::start_with_faults(world, config(), &peers(), shared_plan())
        .expect("deployment starts");
    let mut tcp = Vec::new();
    for (peer, domain, product) in CHECKS {
        tcp.push(
            deployment
                .run_check(peer, domain, ProductId(product))
                .unwrap_or_else(|e| panic!("tcp check on {domain}: {e}")),
        );
    }
    let tcp_stats = deployment.fault_stats().expect("plan installed");
    deployment.shutdown();

    // The schedule really bit, and bit *identically*: decision totals on
    // the fetch links match count for count.
    assert!(
        des_stats.dropped > 0,
        "no order was ever eaten: {des_stats:?}"
    );
    assert!(
        des_stats.duplicated > 0,
        "no reply was ever duplicated: {des_stats:?}"
    );
    assert_eq!(
        format!("{des_stats:?}"),
        format!("{tcp_stats:?}"),
        "fault decisions diverged between backends"
    );

    // Same jobs, same (degraded) result sets.
    for (d, t) in des.iter().zip(&tcp) {
        assert_eq!(d.check.job_id, t.job_id);
        assert_eq!(d.check.domain, t.domain);
        assert_eq!(d.check.url, t.url);
        let des_obs = sorted(d.check.observations.clone());
        let tcp_obs = sorted(t.observations.clone());
        assert!(
            des_obs.len() < 33,
            "{}: dropped orders must shrink the set (got {})",
            t.domain,
            des_obs.len()
        );
        assert_eq!(
            des_obs, tcp_obs,
            "observation sets diverge for {} under the shared schedule",
            t.domain
        );
    }
}

/// One DES run under the crashy schedule; returns the sorted per-check
/// observation sets, the fault-stat totals, the restart count, and the
/// Database's durable WAL + snapshot bytes.
#[allow(clippy::type_complexity)]
fn des_crashy_run() -> (Vec<Vec<PriceObservation>>, String, u64, Vec<u8>, Vec<u8>) {
    let world = World::build(&WorldConfig::small(), SEED);
    let mut sheriff = PriceSheriff::new(config(), world, &peers());
    sheriff.install_fault_plan(crashy_plan());
    for (i, (peer, domain, product)) in CHECKS.iter().enumerate() {
        sheriff.submit_check(
            SimTime::from_secs(10 * i as u64),
            *peer,
            domain,
            ProductId(*product),
        );
    }
    sheriff.run_until(SimTime::from_mins(5));
    let done = sheriff.completed();
    assert_eq!(done.len(), CHECKS.len(), "DES completed all checks");
    let obs: Vec<Vec<PriceObservation>> = done
        .iter()
        .map(|c| sorted(c.check.observations.clone()))
        .collect();
    let stats = format!("{:?}", sheriff.fault_stats().expect("plan installed"));
    let restarts = sheriff.telemetry().snapshot().counters["faults.node_restarts"];
    (
        obs,
        stats,
        restarts,
        sheriff.db_wal_bytes().expect("v2 has a database"),
        sheriff.db_snapshot_bytes().expect("v2 has a database"),
    )
}

#[test]
fn database_crash_window_preserves_parity_and_determinism() {
    // --- Two DES replays: a crash window must not cost determinism.
    // Identical observation sets AND byte-identical durable images.
    let des_a = des_crashy_run();
    let des_b = des_crashy_run();
    assert_eq!(des_a.0, des_b.0, "DES observations diverged across replays");
    assert_eq!(des_a.1, des_b.1, "DES fault stats diverged across replays");
    assert_eq!(des_a.3, des_b.3, "WAL bytes diverged across replays");
    assert_eq!(des_a.4, des_b.4, "snapshot bytes diverged across replays");
    assert_eq!(des_a.2, 1, "DES: one outage, one restart");

    // --- TCP run over the same world, config and schedule.
    let world = World::build(&WorldConfig::small(), SEED);
    let deployment = MiniDeployment::start_with_faults(world, config(), &peers(), crashy_plan())
        .expect("deployment starts");
    let mut tcp = Vec::new();
    for (peer, domain, product) in CHECKS {
        tcp.push(
            deployment
                .run_check(peer, domain, ProductId(product))
                .unwrap_or_else(|e| panic!("tcp check on {domain}: {e}")),
        );
    }
    let tcp_stats = format!("{:?}", deployment.fault_stats().expect("plan installed"));
    let tcp_restarts = deployment.telemetry().snapshot().counters["faults.node_restarts"];
    deployment.shutdown();

    // Crash drops never touch the occurrence-keyed fault counters, so
    // the totals still match count for count across backends.
    assert_eq!(des_a.1, tcp_stats, "fault decisions diverged");
    assert_eq!(tcp_restarts, des_a.2, "restart counts diverged");
    for (d, t) in des_a.0.iter().zip(&tcp) {
        assert_eq!(
            d,
            &sorted(t.observations.clone()),
            "observation sets diverge for {} under the crashy schedule",
            t.domain
        );
    }
}

/// Quarantine threshold pushed out of reach: escalation timing rides on
/// `MisbehaviorReport` arrival, which legitimately differs between a
/// virtual clock and a wall clock, so the parity claim is phrased on the
/// layer below — identical injections, identical rejections, identical
/// admitted sets.
fn byz_config() -> SheriffConfig {
    let mut cfg = config();
    cfg.defense.quarantine_threshold = 1_000;
    cfg
}

/// Peer 100 (node 34 under this layout) equivocates every price-bearing
/// send. Equivocation is occurrence-keyed like the fault plan, and only
/// the unreliable fetch links carry price-bearing traffic, so both
/// backends consult the plan the same number of times.
fn byz_plan() -> ByzantinePlan {
    ByzantinePlan::new(777).with_profile(
        34,
        ByzProfile {
            equivocate: 1.0,
            ..ByzProfile::HONEST
        },
    )
}

const DEFENSE_COUNTERS: [&str; 6] = [
    "defense.validation_rejects",
    "defense.quota_trips",
    "defense.quarantines",
    "defense.paroles",
    "defense.quarantine_drops",
    "defense.budget_exhaustions",
];

#[test]
fn identical_byzantine_schedule_means_identical_defense_on_both_backends() {
    // --- Discrete-event run under the misbehavior schedule.
    let world = World::build(&WorldConfig::small(), SEED);
    let mut sheriff = PriceSheriff::new(byz_config(), world, &peers());
    sheriff.install_byzantine_plan(byz_plan());
    for (i, (peer, domain, product)) in CHECKS.iter().enumerate() {
        sheriff.submit_check(
            SimTime::from_secs(10 * i as u64),
            *peer,
            domain,
            ProductId(*product),
        );
    }
    sheriff.run_until(SimTime::from_mins(5));
    let des = sheriff.completed();
    assert_eq!(des.len(), CHECKS.len(), "DES completed all checks");
    let des_stats = format!("{:?}", sheriff.byz_stats().expect("plan installed"));
    let des_snap = sheriff.telemetry().snapshot();

    // --- TCP run over the same world, config and schedule.
    let world = World::build(&WorldConfig::small(), SEED);
    let deployment = MiniDeployment::start_with_options(
        world,
        byz_config(),
        &peers(),
        FaultPlan::new(0),
        DeployOptions {
            byzantine: Some(byz_plan()),
            ..DeployOptions::default()
        },
    )
    .expect("deployment starts");
    let mut tcp = Vec::new();
    for (peer, domain, product) in CHECKS {
        tcp.push(
            deployment
                .run_check(peer, domain, ProductId(product))
                .unwrap_or_else(|e| panic!("tcp check on {domain}: {e}")),
        );
    }
    let tcp_stats = format!("{:?}", deployment.byz_stats().expect("plan installed"));
    let tcp_snap = deployment.telemetry().snapshot();
    deployment.shutdown();

    // The injections really fired, and fired *identically*.
    assert!(
        !des_stats.contains("equivocated: 0"),
        "no reply was ever equivocated: {des_stats}"
    );
    assert_eq!(des_stats, tcp_stats, "injection decisions diverged");

    // The defense judged them identically: same rejects, same (zero)
    // quarantines, same admitted observation sets.
    for name in DEFENSE_COUNTERS {
        assert_eq!(
            des_snap.counters.get(name).copied().unwrap_or(0),
            tcp_snap.counters.get(name).copied().unwrap_or(0),
            "{name} diverged between backends"
        );
    }
    assert!(
        des_snap
            .counters
            .get("defense.validation_rejects")
            .copied()
            .unwrap_or(0)
            > 0,
        "the defense never rejected an equivocated reply"
    );
    assert_eq!(
        des_snap
            .counters
            .get("defense.quarantines")
            .copied()
            .unwrap_or(0),
        0,
        "threshold was supposed to be out of reach"
    );
    for (d, t) in des.iter().zip(&tcp) {
        assert_eq!(d.check.job_id, t.job_id);
        assert_eq!(d.check.domain, t.domain);
        assert_eq!(
            sorted(d.check.observations.clone()),
            sorted(t.observations.clone()),
            "admitted sets diverge for {} under the shared misbehavior schedule",
            t.domain
        );
        assert!(
            t.observations.iter().all(
                |o| o.vantage_id != 100 || o.vantage != sheriff_core::records::VantageKind::Ppc
            ),
            "{}: an equivocated observation was admitted",
            t.domain
        );
    }
}
