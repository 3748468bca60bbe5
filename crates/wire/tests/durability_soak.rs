//! TCP-side durability soak: under a seed bank of Database crash
//! schedules, every acknowledged check must survive on disk — the
//! deployment is torn down, its storage directory re-opened cold, and
//! recovery must reproduce every completed check byte for byte (zero
//! observation loss on the real-file `Storage` backend). Once with
//! checks one at a time, once with eight in flight, so acks wait on a
//! group-committed flush while the crash window opens and closes.
//!
//! Seeds come from `CHAOS_SEEDS` (comma-separated) when set, matching
//! the DES chaos soak so CI pins one seed bank across both backends.

use sheriff_core::system::{PpcSpec, SheriffConfig};
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::FaultPlan;
use sheriff_wire::MiniDeployment;
use std::collections::{BTreeMap, VecDeque};

const DEFAULT_SEEDS: [u64; 8] = [11, 23, 37, 41, 53, 67, 79, 97];

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("CHAOS_SEEDS: u64 list"))
            .collect(),
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

fn peers(n: u64) -> Vec<PpcSpec> {
    (0..n)
        .map(|i| PpcSpec {
            peer_id: 100 + i,
            country: Country::ES,
            city_idx: 0,
            user_agent: UserAgent {
                os: Os::Linux,
                browser: Browser::Firefox,
            },
            affluence: 0.3,
            logged_in_domains: vec![],
        })
        .collect()
}

/// One Measurement server: node layout `[coordinator 0, aggregator 1,
/// db 2, server 3, …]`, same numbering the DES soak uses.
fn config(seed: u64) -> SheriffConfig {
    let mut cfg = SheriffConfig::fast(seed);
    cfg.n_measurement_servers = 1;
    cfg
}

#[test]
fn acked_checks_survive_database_crashes_onto_disk() {
    for seed in seeds() {
        // Loopback fetches are real and fast, so the first StoreCheck
        // lands within a few hundred wall-clock ms — the crash window
        // opens almost immediately to swallow it (the reliable channel
        // must re-store after the restart at 1.8s), and the second
        // check runs against the recovered incarnation.
        let plan = FaultPlan::new(seed).with_crash(2, 50, 1_800);
        let world = World::build(&WorldConfig::small(), seed);
        let deployment = MiniDeployment::start_with_faults(world, config(seed), &peers(2), plan)
            .expect("deployment starts");

        let mut completed = Vec::new();
        for (peer, domain, product) in
            [(100, "steampowered.com", 0u32), (101, "jcpenney.com", 1u32)]
        {
            completed.push(
                deployment
                    .run_check(peer, domain, ProductId(product))
                    .unwrap_or_else(|e| panic!("seed {seed}: check on {domain}: {e}")),
            );
        }
        let restarts = deployment.telemetry().snapshot().counters["faults.node_restarts"];
        assert!(restarts >= 1, "seed {seed}: the database never restarted");

        // Cold recovery from the files the deployment left behind.
        let recovered = deployment.shutdown_and_recover_db();
        let by_job: BTreeMap<u64, _> = recovered.iter().map(|c| (c.job_id, c)).collect();
        assert_eq!(
            by_job.len(),
            recovered.len(),
            "seed {seed}: a job was stored twice"
        );
        for check in &completed {
            let durable = by_job.get(&check.job_id).unwrap_or_else(|| {
                panic!(
                    "seed {seed}: completed job {} lost across the crash",
                    check.job_id
                )
            });
            assert_eq!(
                &check, durable,
                "seed {seed}: recovered check diverges from the acked one"
            );
        }
    }
}

/// Eight checks stay in flight while the Database crashes and comes
/// back. Without IPCs or modeled processing a check takes milliseconds,
/// so the window opens on a full pipeline, whose stores wait for the
/// restart and their requester's next job deadline; the checks after
/// them run against the recovered incarnation.
#[test]
fn acked_checks_survive_database_crashes_with_a_window_open() {
    const CHECKS: u64 = 48;
    const WINDOW: usize = 8;
    let domains = ["steampowered.com", "jcpenney.com", "amazon.com"];
    for seed in seeds() {
        let mut cfg = config(seed);
        cfg.ipc_locations.clear();
        cfg.proc_per_reply_ms = 0.0;
        cfg.context_switch_alpha = 0.0;
        let plan = FaultPlan::new(seed).with_crash(2, 100, 1_200);
        let world = World::build(&WorldConfig::small(), seed);
        let deployment = MiniDeployment::start_with_faults(world, cfg, &peers(8), plan)
            .expect("deployment starts");

        let mut acked = Vec::new();
        let mut in_flight = VecDeque::new();
        // A rejection (a peer's own fetch met a CAPTCHA) is an answer but
        // no ack; no answer at all is a lost check.
        let mut settle = |tag| match deployment.await_check(tag) {
            Ok(check) => acked.push(check),
            Err(e) if e.starts_with("rejected") => {}
            Err(e) => panic!("seed {seed}: check {tag}: {e}"),
        };
        for i in 0..CHECKS {
            if in_flight.len() == WINDOW {
                settle(in_flight.pop_front().expect("a full window"));
            }
            let (domain, product) = (domains[(i % 3) as usize], ProductId((i / 3 % 4) as u32));
            in_flight.push_back(
                deployment
                    .begin_check(100 + i % 8, domain, product)
                    .unwrap_or_else(|e| panic!("seed {seed}: begin {i}: {e}")),
            );
        }
        in_flight.into_iter().for_each(&mut settle);
        let counters = deployment.telemetry().snapshot().counters;
        assert!(
            counters["faults.node_restarts"] >= 1,
            "seed {seed}: the database never restarted"
        );
        assert!(!acked.is_empty(), "seed {seed}: nothing was acked");

        let recovered = deployment.shutdown_and_recover_db();
        let by_job: BTreeMap<u64, _> = recovered.iter().map(|c| (c.job_id, c)).collect();
        assert_eq!(
            by_job.len(),
            recovered.len(),
            "seed {seed}: a job was stored twice"
        );
        for check in &acked {
            assert_eq!(
                by_job.get(&check.job_id),
                Some(&check),
                "seed {seed}: acked job {} not recovered as acked",
                check.job_id
            );
        }
    }
}
