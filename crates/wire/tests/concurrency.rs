//! Concurrency tests for the TCP deployment: simultaneous add-on clients
//! must all be served correctly (each on its own connection), the frame
//! books must balance, the reactor must keep one stream per destination,
//! and the deployment must survive rude or malformed clients.
//!
//! PPC selection is location-local (§6.1: peers fan out to peers in the
//! *same* country), so these tests use four Spanish peers — every
//! initiator then has exactly three candidate PPCs.

use std::sync::Arc;

use sheriff_core::coordinator::PeerId;
use sheriff_core::protocol::{Address, ProtoMsg};
use sheriff_core::system::{PpcSpec, SheriffConfig};
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::FaultPlan;
use sheriff_wire::{DeployOptions, Envelope, MiniDeployment};

const PEERS: [(u64, Country); 4] = [
    (20, Country::ES),
    (21, Country::ES),
    (22, Country::ES),
    (23, Country::ES),
];

#[test]
fn concurrent_price_checks_from_many_clients() {
    let world = World::build(&WorldConfig::small(), 91);
    let deployment = Arc::new(MiniDeployment::start(world, &PEERS).expect("deployment starts"));

    let mut handles = Vec::new();
    for t in 0..6u32 {
        let d = Arc::clone(&deployment);
        handles.push(std::thread::spawn(move || {
            let domain = if t % 2 == 0 {
                "steampowered.com"
            } else {
                "amazon.com"
            };
            let initiator = 20 + u64::from(t % 4);
            let rows = d
                .run_price_check(initiator, domain, ProductId(t % 5))
                .unwrap_or_else(|e| panic!("client {t}: {e}"));
            assert_eq!(rows.len(), 4, "client {t}: initiator + 3 local peers");
            assert!(rows.iter().all(|r| r.converted > 0.0), "client {t}");
            rows
        }));
    }
    let mut all = Vec::new();
    for h in handles {
        all.push(h.join().expect("client thread"));
    }
    assert_eq!(all.len(), 6);

    match Arc::try_unwrap(deployment) {
        Ok(d) => d.shutdown(),
        Err(_) => panic!("deployment still shared"),
    }
}

/// Every framed send and receive in the deployment goes through the shared
/// wire counters, so after the threads drain the books must balance exactly:
/// no increment may be lost even with six clients hammering in parallel.
#[test]
fn frame_counters_balance_under_concurrent_clients() {
    const CLIENTS: u64 = 6;
    let world = World::build(&WorldConfig::small(), 95);
    let deployment = Arc::new(MiniDeployment::start(world, &PEERS).expect("deployment starts"));
    let telemetry = Arc::clone(deployment.telemetry());

    let mut handles = Vec::new();
    for t in 0..CLIENTS as u32 {
        let d = Arc::clone(&deployment);
        handles.push(std::thread::spawn(move || {
            d.run_price_check(20 + u64::from(t % 4), "amazon.com", ProductId(t % 5))
                .unwrap_or_else(|e| panic!("client {t}: {e}"))
        }));
    }
    for h in handles {
        assert_eq!(h.join().expect("client thread").len(), 4);
    }
    match Arc::try_unwrap(deployment) {
        Ok(d) => d.shutdown(),
        Err(_) => panic!("deployment still shared"),
    }

    // shutdown() joined every loop thread, so all counting is done.
    let snap = telemetry.snapshot();
    let frames_out = snap.counters["wire.frames_out"];
    let frames_in = snap.counters["wire.frames_in"];
    let bytes_out = snap.counters["wire.bytes_out"];
    let bytes_in = snap.counters["wire.bytes_in"];

    // Loopback: everything sent is received, bit for bit.
    assert_eq!(frames_out, frames_in);
    assert_eq!(bytes_out, bytes_in);

    // One successful check is exactly 18 frames: CoordRequest, PpcList,
    // CoordAssign, JobSubmit, 3 fetch orders, 3 fetch replies,
    // JobComplete, Results — plus one Ack for each of the six reliable
    // control messages (fetches are exempt from at-least-once delivery).
    // The check's start is posted to its peer's shard and the stop to
    // every shard: neither is a frame.
    assert_eq!(frames_out, 18 * CLIENTS);

    // Each frame carries a 4-byte length prefix plus a nonempty payload.
    assert!(bytes_out > frames_out * 4, "{bytes_out} vs {frames_out}");
}

/// A shard keeps one stream per destination node for its whole life: two
/// hundred serial checks open at most one per node of the roster, not one
/// per hop (≈ 31 a check), and the frame books still balance.
#[test]
fn serial_checks_open_one_stream_per_destination() {
    let mut cfg = SheriffConfig::v2(97, 2);
    cfg.ipc_locations.clear();
    cfg.proc_per_reply_ms = 0.0;
    cfg.context_switch_alpha = 0.0;
    cfg.db_cost.write_ms = 0.0;
    cfg.db_cost.connection_setup_ms = 0.0;
    cfg.db_cost.wal_append_ms_per_row = 0.0;
    cfg.db_cost.barrier_ms = 0.0;
    cfg.db_cost.compaction_ms_per_check = 0.0;
    let specs: Vec<PpcSpec> = (0..8)
        .map(|i| PpcSpec {
            peer_id: 50 + i,
            country: Country::ES,
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
        shards: 1,
        ..DeployOptions::default()
    };
    let world = World::build(&WorldConfig::small(), 97);
    let d = MiniDeployment::start_with_options(world, cfg, &specs, FaultPlan::new(0), opts)
        .expect("deployment starts");
    let destinations = d.shard_members(0).len() as u64;
    let telemetry = Arc::clone(d.telemetry());
    for i in 0..200u64 {
        d.run_check(50 + i % 8, "amazon.com", ProductId((i % 5) as u32))
            .unwrap_or_else(|e| panic!("check {i}: {e}"));
    }
    assert_eq!(d.sandbox_violations(), 0);
    d.shutdown();

    let snap = telemetry.snapshot();
    let connects = snap.counters["wire.connects"];
    assert!(
        (1..=destinations).contains(&connects),
        "{connects} connects for {destinations} destinations"
    );
    assert_eq!(
        snap.counters["wire.frames_out"],
        snap.counters["wire.frames_in"]
    );
}

#[test]
fn deployment_survives_client_that_disconnects_mid_protocol() {
    let world = World::build(&WorldConfig::small(), 93);
    let deployment = MiniDeployment::start(world, &[(30, Country::ES)]).expect("starts");

    // A rude client: connect to the coordinator and hang up immediately.
    for _ in 0..5 {
        let s = std::net::TcpStream::connect(deployment.coordinator_addr()).expect("connect");
        drop(s);
    }
    // A malformed client: send garbage bytes.
    {
        use std::io::Write as _;
        let mut s = std::net::TcpStream::connect(deployment.coordinator_addr()).expect("connect");
        let _ = s.write_all(&[0, 0, 0, 4, b'j', b'u', b'n', b'k']);
    }
    // A lying client: well-framed requests "from" a peer id as wide as a
    // u64, each claiming to be peer 30. Three validation rejects (+2
    // each) reach the default quarantine threshold, so the Coordinator
    // arms `Quarantine(u64::MAX)` — a timer no roster check ever vetted.
    for local_tag in 0..3 {
        let mut s = std::net::TcpStream::connect(deployment.coordinator_addr()).expect("connect");
        Envelope {
            from: Address::Peer { id: u64::MAX },
            msg: ProtoMsg::CoordRequest {
                url: "https://amazon.com/product/0".into(),
                peer: PeerId(30),
                local_tag,
            },
        }
        .send(&mut s)
        .expect("frame written");
    }

    // The deployment still serves a well-behaved client afterwards.
    let rows = deployment
        .run_price_check(30, "amazon.com", ProductId(0))
        .expect("served after rude clients");
    assert!(!rows.is_empty());
    let telemetry = Arc::clone(deployment.telemetry());
    deployment.shutdown();
    assert_eq!(telemetry.snapshot().counters["defense.quarantines"], 1);
}
