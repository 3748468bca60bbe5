//! Reactor-backend soak: the point of the sharded event loop is that a
//! TCP deployment is no longer `O(nodes)` threads, so rosters far past
//! the paper's 1265 installed add-ons (§8) must start, serve checks
//! concurrently, and shut down cleanly — on eight event-loop threads.
//!
//! Two arms:
//!
//! * **scale** — `REACTOR_SOAK_PEERS` simulated peers (default 192;
//!   CI runs 1000) serve waves of concurrent price checks with a
//!   generous-but-real latency gate. The fine-grained throughput number
//!   lives in `benches/system_throughput.rs`; this arm is the
//!   does-it-actually-hold-up check.
//! * **whole-shard crash** — every node owned by the reactor shard that
//!   hosts the Database is crashed and restarted as one unit (the
//!   worst case the shard layout creates: one thread's worth of nodes
//!   share a fate). Checks initiated from surviving shards must still
//!   complete, and cold recovery must reproduce every acked check byte
//!   for byte — the durable-DB zero-loss invariant, now under a
//!   correlated multi-node failure.
//!
//! The shard layout is a seed-free hash of the roster
//! (`shard_of`), so the crash arm *recomputes* it from a fault-free
//! twin deployment: same roster, same placement, by construction.

#![expect(
    clippy::disallowed_methods,
    reason = "the soak gates on wall time per wave"
)]

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sheriff_core::system::{PpcSpec, SheriffConfig};
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::FaultPlan;
use sheriff_wire::MiniDeployment;

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

/// v2, no IPCs (loopback vantages add nothing here), CPU model shrunk to
/// transport scale: on this backend virtual milliseconds are real, and
/// the soak gates the *reactor*, not the paper's server-CPU queueing.
fn config(seed: u64) -> SheriffConfig {
    let mut cfg = SheriffConfig::v2(seed, 2);
    cfg.ipc_locations.clear();
    cfg.proc_per_reply_ms = 2.0;
    cfg.context_switch_alpha = 0.0;
    cfg.job_deadline_ms = 8_000;
    cfg.retransmit_base_ms = 250;
    cfg
}

fn soak_peers() -> u64 {
    std::env::var("REACTOR_SOAK_PEERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(192)
}

#[test]
fn thousand_peer_roster_serves_concurrent_checks_on_eight_threads() {
    let n = soak_peers();
    let world = World::build(&WorldConfig::small(), 11);
    let deployment =
        MiniDeployment::start_with(world, config(11), &peers(n)).expect("deployment starts");
    assert_eq!(
        deployment.shard_count(),
        8,
        "a {n}-peer roster must cap at eight reactor shards"
    );

    // Waves of concurrent checks from distinct initiators, spread across
    // the roster so every shard both initiates and serves fan-out.
    const WAVES: u64 = 3;
    const WAVE_WIDTH: u64 = 32;
    let mut latencies = Vec::new();
    let mut served = 0u64;
    for wave in 0..WAVES {
        let begun: Vec<(u64, u64)> = (0..WAVE_WIDTH)
            .map(|i| {
                let peer = 100 + ((wave * WAVE_WIDTH + i) * (n / WAVE_WIDTH).max(1)) % n;
                let tag = deployment
                    .begin_check(peer, "steampowered.com", ProductId(0))
                    .unwrap_or_else(|e| panic!("begin from {peer}: {e}"));
                (peer, tag)
            })
            .collect();
        let wave_start = Instant::now();
        for (peer, tag) in begun {
            let check = deployment
                .await_check(tag)
                .unwrap_or_else(|e| panic!("check from {peer}: {e}"));
            assert!(!check.observations.is_empty(), "empty check from {peer}");
            served += 1;
        }
        latencies.push(wave_start.elapsed());
    }
    assert_eq!(served, WAVES * WAVE_WIDTH);

    // The latency gate: a whole 32-check wave, queueing included, must
    // clear well inside the protocol timeouts. Generous on purpose (CI
    // machines vary); the regression-sensitive medians are archived from
    // the bench by the `reactor-soak` CI stage.
    let worst = latencies.iter().max().copied().unwrap_or_default();
    assert!(
        worst < Duration::from_secs(20),
        "worst wave took {worst:?} — the reactor is not keeping up"
    );

    // The books must balance — but only once the shards have joined:
    // a live snapshot can catch a frame between its counted write and
    // its counted read.
    let telemetry = Arc::clone(deployment.telemetry());
    deployment.shutdown();
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.counters["wire.frames_out"], snap.counters["wire.frames_in"],
        "frame books must balance on a fault-free deployment"
    );
    assert!(
        snap.counters["wire.reactor_wakeups"] > 0,
        "reactor wakeups counter must be live"
    );
}

#[test]
fn killing_a_whole_reactor_shard_loses_no_acked_observation() {
    let seeds: Vec<u64> = match std::env::var("REACTOR_SOAK_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("REACTOR_SOAK_SEEDS: u64 list"))
            .collect(),
        Err(_) => vec![11, 23],
    };
    for seed in seeds {
        // The layout is a pure function of the roster, so a fault-free
        // twin tells us which nodes share the Database's reactor thread.
        let n_peers = 24;
        let twin = MiniDeployment::start_with(
            World::build(&WorldConfig::small(), seed),
            config(seed),
            &peers(n_peers),
        )
        .expect("twin starts");
        let db_shard = (0..twin.shard_count())
            .find(|&s| twin.shard_members(s).contains(&2))
            .expect("some shard owns the database (fault index 2)");
        let doomed: Vec<usize> = twin.shard_members(db_shard).to_vec();
        twin.shutdown();
        assert!(doomed.contains(&2));

        // Kill the whole shard: one crash window over every node it
        // owns. This is exactly what a crashed reactor thread means —
        // all its nodes go silent together, then all restart. The
        // window is wide enough that the checks below run their whole
        // fetch phase against a dark shard: their `StoreCheck`s are
        // crash-dropped (never channel-acked), so the reliable layer —
        // not luck — carries them across the restart edge. A check
        // whose store is channel-acked *just before* the crash is the
        // one loss the architecture accepts (DES semantics: the ack
        // already stopped the retransmit clock, and restart tears off
        // the unbarriered WAL tail), which is why none is started in
        // that position here.
        let plan = FaultPlan::new(seed).with_crash_all(&doomed, 50, 5_000);
        let mut cfg = config(seed);
        cfg.job_deadline_ms = 2_000; // assemble (partial) well inside the window
        let deployment = MiniDeployment::start_with_faults(
            World::build(&WorldConfig::small(), seed),
            cfg,
            &peers(n_peers),
            plan,
        )
        .expect("deployment starts");
        assert_eq!(
            deployment.shard_members(db_shard),
            &doomed[..],
            "seed {seed}: layout must match the fault-free twin"
        );

        // Initiate only from peers whose shard survives; peer fault
        // indices start after coordinator/aggregator/db and the servers.
        let survivors: Vec<u64> = (0..n_peers)
            .filter(|i| !doomed.contains(&(5 + *i as usize)))
            .map(|i| 100 + i)
            .collect();
        assert!(
            survivors.len() >= 4,
            "seed {seed}: shard layout drowned almost every peer"
        );
        // Wait until the shard is actually dark, then initiate all four
        // checks concurrently. Fetch fan-out to doomed peers is lost
        // (it is unreliable by design; the job deadline covers it), the
        // stores queue on the reliable channel until the shard returns.
        std::thread::sleep(Duration::from_millis(200));
        let begun: Vec<(u64, u64)> = survivors
            .iter()
            .take(4)
            .enumerate()
            .map(|(k, &peer)| {
                let domain = if k % 2 == 0 {
                    "steampowered.com"
                } else {
                    "jcpenney.com"
                };
                let tag = deployment
                    .begin_check(peer, domain, ProductId(k as u32))
                    .unwrap_or_else(|e| panic!("seed {seed}: begin from {peer}: {e}"));
                (peer, tag)
            })
            .collect();
        let mut completed = Vec::new();
        for (peer, tag) in begun {
            completed.push(
                deployment
                    .await_check(tag)
                    .unwrap_or_else(|e| panic!("seed {seed}: check from {peer}: {e}")),
            );
        }

        let snap = deployment.telemetry().snapshot();
        assert!(
            snap.counters["faults.node_restarts"] >= doomed.len() as u64,
            "seed {seed}: every node of the dead shard must restart (got {} of {})",
            snap.counters["faults.node_restarts"],
            doomed.len(),
        );

        // The durable-DB invariant under a correlated multi-node crash:
        // cold recovery reproduces every acked check byte for byte.
        let recovered = deployment.shutdown_and_recover_db();
        let by_job: BTreeMap<u64, _> = recovered.iter().map(|c| (c.job_id, c)).collect();
        for check in &completed {
            let durable = by_job.get(&check.job_id).unwrap_or_else(|| {
                panic!(
                    "seed {seed}: acked job {} vanished with its shard",
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
