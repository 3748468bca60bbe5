//! Doorbell wake-ups end to end: cross-shard hops are rung through
//! rather than napped through, and a socket nobody rings for is still
//! found by the bounded fallback sweep — the bell is an accelerator,
//! never the only path.

#![expect(
    clippy::disallowed_methods,
    reason = "the test bounds how long an un-rung frame may wait"
)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use sheriff_core::protocol::{Address, ProtoMsg};
use sheriff_core::system::{PpcSpec, SheriffConfig};
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::FaultPlan;
use sheriff_wire::{DeployOptions, Envelope, MiniDeployment};

fn es_peers(n: u64) -> Vec<PpcSpec> {
    (0..n)
        .map(|i| PpcSpec {
            peer_id: 70 + i,
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

/// v2 with every modeled delay zeroed: what is left of a check is
/// transport, i.e. hops between the two shards.
fn transport_only_cfg(seed: u64) -> SheriffConfig {
    let mut cfg = SheriffConfig::v2(seed, 2);
    cfg.ipc_locations.clear();
    cfg.proc_per_reply_ms = 0.0;
    cfg.context_switch_alpha = 0.0;
    cfg.db_cost.write_ms = 0.0;
    cfg.db_cost.connection_setup_ms = 0.0;
    cfg.db_cost.wal_append_ms_per_row = 0.0;
    cfg.db_cost.barrier_ms = 0.0;
    cfg.db_cost.compaction_ms_per_check = 0.0;
    cfg
}

#[test]
fn serial_checks_across_two_shards_are_rung_through() {
    let world = World::build(&WorldConfig::small(), 61);
    let d = MiniDeployment::start_with_options(
        world,
        transport_only_cfg(61),
        &es_peers(8),
        FaultPlan::new(0),
        DeployOptions {
            shards: 2,
            ..DeployOptions::default()
        },
    )
    .expect("deployment starts");
    assert_eq!(d.shard_count(), 2);
    let telemetry = Arc::clone(d.telemetry());

    for i in 0..50u64 {
        let check = d
            .run_check(70 + i % 8, "amazon.com", ProductId((i % 5) as u32))
            .unwrap_or_else(|e| panic!("check {i}: {e}"));
        assert!(!check.observations.is_empty(), "check {i}");
    }
    d.shutdown();

    let snap = telemetry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert!(
        counter("wire.reactor_doorbell_wakes") > 0,
        "fifty checks hopping between two shards never rang a bell"
    );
    assert_eq!(
        counter("wire.frames_out"),
        counter("wire.frames_in"),
        "a ring carries no frame: the books still balance"
    );
    assert_eq!(
        counter("protocol.retransmits"),
        0,
        "a hop that needed a retransmit was not delivered by its ring or the fallback sweep"
    );
}

#[test]
fn unrung_external_client_is_still_served() {
    let world = World::build(&WorldConfig::small(), 63);
    let d = MiniDeployment::start(world, &[(30, Country::ES)]).expect("deployment starts");
    let telemetry = Arc::clone(d.telemetry());

    // Straight onto the Coordinator's listener, behind the deployment's
    // back: no bell is rung and the send is not in the `frames_out`
    // book. Every shard is parked (nothing else is in flight), so only
    // the bounded fallback sweep can find this socket.
    {
        let mut s = std::net::TcpStream::connect(d.coordinator_addr()).expect("connect");
        Envelope {
            from: Address::Peer { id: 30 },
            msg: ProtoMsg::RemoveServer { index: 99 },
        }
        .send(&mut s)
        .expect("frame written");
    }

    // Served = the Coordinator answered (ServerRemoved toward peer 30
    // is the first frame any shard writes in this deployment).
    let deadline = Instant::now() + Duration::from_secs(10);
    while telemetry.snapshot().counters["wire.frames_out"] == 0 {
        assert!(Instant::now() < deadline, "un-rung frame was never served");
        std::thread::sleep(Duration::from_millis(1));
    }
    d.shutdown();

    let snap = telemetry.snapshot();
    assert_eq!(
        snap.counters["wire.frames_in"],
        snap.counters["wire.frames_out"] + 1,
        "exactly the one uncounted outside frame was read"
    );
}
