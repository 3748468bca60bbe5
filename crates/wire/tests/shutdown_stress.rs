//! Shutdown/join stress for the sharded reactor backend: twenty rapid
//! start → check → teardown cycles must never wedge a shard join, never
//! unbalance the shared frame books, and never report a completed check
//! as aborted. Each round also stops a fresh deployment right after its
//! first check began, before any link toward that check's server exists.
//!
//! This is the runtime twin of the wire layer's leaf-lock rule (DESIGN.md,
//! "Concurrency invariants in the wire layer"): a lock held across a
//! blocking call in the teardown path surfaces here as a hung join or a
//! lost tag; debug builds also panic on a second lock taken under one.

use std::sync::Arc;

use sheriff_core::system::{PpcSpec, SheriffConfig};
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::FaultPlan;
use sheriff_telemetry::Registry;
use sheriff_wire::{DeployOptions, MiniDeployment};

const PEERS: [(u64, Country); 2] = [(40, Country::ES), (41, Country::ES)];

#[test]
fn twenty_rapid_shutdown_cycles_never_wedge_or_lose_tags() {
    // Five nodes: the default layout is a single shard.
    rapid_shutdown_cycles(|world| MiniDeployment::start(world, &PEERS));
}

/// The same cycles with the roster split over two event loops, so
/// teardown also meets a shard parked on its doorbell while its sibling
/// is still draining.
#[test]
fn twenty_rapid_shutdown_cycles_on_two_shards() {
    rapid_shutdown_cycles(|world| {
        let mut cfg = SheriffConfig::v1(7);
        cfg.ipc_locations.clear();
        cfg.proc_per_reply_ms = 2.0;
        let specs: Vec<PpcSpec> = PEERS
            .iter()
            .map(|&(peer_id, country)| PpcSpec {
                peer_id,
                country,
                city_idx: 0,
                user_agent: UserAgent {
                    os: Os::Linux,
                    browser: Browser::Firefox,
                },
                affluence: 0.3,
                logged_in_domains: vec![],
            })
            .collect();
        let opts = DeployOptions {
            shards: 2,
            ..DeployOptions::default()
        };
        let d = MiniDeployment::start_with_options(world, cfg, &specs, FaultPlan::new(0), opts)?;
        assert_eq!(d.shard_count(), 2);
        Ok(d)
    });
}

fn rapid_shutdown_cycles(start: impl Fn(World) -> std::io::Result<MiniDeployment>) {
    for round in 0..20u64 {
        let world = World::build(&WorldConfig::small(), 100 + round);
        let d = start(world).expect("deployment starts");
        let telemetry = Arc::clone(d.telemetry());

        // One check driven to completion before teardown begins.
        let completed_tag = d
            .begin_check(40, "amazon.com", ProductId((round % 5) as u32))
            .expect("begin completed check");
        d.await_check(completed_tag)
            .unwrap_or_else(|e| panic!("round {round}: check never completed: {e}"));

        if round % 2 == 0 {
            d.shutdown();
        } else {
            // Race teardown against a check begun moments earlier: the
            // report may list it as aborted or it may have drained in
            // time, but the completed check must never appear, and no
            // tag the deployment never issued may appear either.
            let racing_tag = d
                .begin_check(41, "steampowered.com", ProductId((round % 3) as u32))
                .expect("begin racing check");
            let aborted = d.shutdown_with_report();
            assert!(
                !aborted.contains(&completed_tag),
                "round {round}: completed tag {completed_tag} reported aborted: {aborted:?}"
            );
            assert!(
                aborted.iter().all(|&t| t == racing_tag),
                "round {round}: unknown tag in abort report: {aborted:?}"
            );
        }

        // Both teardown paths join every shard thread before returning,
        // so the books are final — and on loopback they must balance
        // exactly: every frame written was read, bit for bit.
        assert_books_balance(&telemetry, round);

        // Stopped at once: the check's start may still sit in its shard's
        // doorbell, or its first hops may be on the wire toward shards
        // that already took the stop.
        let fresh = start(World::build(&WorldConfig::small(), 200 + round))
            .expect("fresh deployment starts");
        let fresh_telemetry = Arc::clone(fresh.telemetry());
        let first_tag = fresh
            .begin_check(41, "amazon.com", ProductId((round % 5) as u32))
            .expect("begin first check");
        let aborted = fresh.shutdown_with_report();
        assert!(
            aborted.iter().all(|&t| t == first_tag),
            "round {round}: unknown tag in a fresh abort report: {aborted:?}"
        );
        assert_books_balance(&fresh_telemetry, round);
    }
}

fn assert_books_balance(telemetry: &Registry, round: u64) {
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.counters["wire.frames_out"], snap.counters["wire.frames_in"],
        "round {round}: frame books unbalanced after join"
    );
    assert_eq!(
        snap.counters["wire.bytes_out"], snap.counters["wire.bytes_in"],
        "round {round}: byte books unbalanced after join"
    );
}
