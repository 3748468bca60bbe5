//! Coordinator failure paths over the TCP backend — the same scenarios
//! `sheriff-core` exercises in simulation (heartbeat expiry mid-job,
//! refusing to decommission a busy server) must hold when the protocol
//! machines run behind real sockets, because the decisions live in
//! `sheriff_core::protocol`, not in either transport. A hostile frame
//! nested past the JSON parser's depth cap must cost its sender the
//! stream, never the deployment.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use sheriff_core::system::{PpcSpec, SheriffConfig};
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_wire::MiniDeployment;

fn es_peers(n: u64) -> Vec<PpcSpec> {
    (0..n)
        .map(|i| PpcSpec {
            peer_id: 60 + i,
            country: Country::ES,
            city_idx: 0,
            user_agent: UserAgent {
                os: Os::Linux,
                browser: Browser::Firefox,
            },
            affluence: 0.4,
            logged_in_domains: vec![],
        })
        .collect()
}

/// Config tuned so a check completes in ~1s of wall time with no IPC
/// fan-out: slow enough to observe a busy server, fast enough for CI.
fn slow_job_cfg(seed: u64) -> SheriffConfig {
    let mut cfg = SheriffConfig::v1(seed);
    cfg.ipc_locations.clear();
    cfg.proc_per_reply_ms = 300.0;
    cfg.context_switch_alpha = 0.0;
    cfg.job_deadline_ms = 10_000;
    cfg.heartbeat_every_ms = 3_600_000; // no beacons during the test
    cfg.heartbeat_timeout_ms = 30_000;
    cfg
}

/// Servers whose heartbeats lapse while a job is in flight finish that
/// job (the assignment already happened) but take no new ones: the next
/// request is refused with `NoServerAvailable`.
#[test]
fn heartbeat_expiry_mid_job_refuses_new_requests_over_tcp() {
    let mut cfg = slow_job_cfg(37);
    cfg.heartbeat_timeout_ms = 700; // lapses during the ~1s first job
    let world = World::build(&WorldConfig::small(), 37);
    let deployment =
        MiniDeployment::start_with(world, cfg, &es_peers(3)).expect("deployment starts");

    // Assigned at t≈0 while heartbeats (registered at t=0) are fresh;
    // assembly alone takes ~0.9s, past the 700ms timeout.
    let first = deployment
        .run_check(60, "steampowered.com", ProductId(0))
        .expect("first check assigned before expiry");
    assert_eq!(first.observations.len(), 3, "initiator + 2 local peers");

    // No beacon ever arrived, so by now every server's heartbeat lapsed.
    let err = deployment
        .run_check(61, "steampowered.com", ProductId(1))
        .expect_err("no live server remains");
    assert!(err.contains("NoServerAvailable"), "{err}");

    let snap = deployment.telemetry().snapshot();
    assert!(
        snap.counters["coordinator.heartbeats_expired"] >= 1,
        "expiry must be recorded"
    );
    deployment.shutdown();
}

/// §5-style administration: a Measurement server with a non-drained job
/// queue may not be decommissioned; once the queue drains the same
/// request succeeds.
#[test]
fn remove_server_refused_while_busy_over_tcp() {
    let world = World::build(&WorldConfig::small(), 41);
    let deployment = Arc::new(
        MiniDeployment::start_with(world, slow_job_cfg(41), &es_peers(2))
            .expect("deployment starts"),
    );

    // v1 runs a single Measurement server, so the in-flight check below
    // necessarily occupies server 0.
    let d = Arc::clone(&deployment);
    let in_flight = std::thread::spawn(move || d.run_check(60, "amazon.com", ProductId(2)));

    // Well inside the ~0.6s assembly window: job assigned, not finished.
    std::thread::sleep(Duration::from_millis(250));
    let refused = deployment
        .remove_server(61, 0)
        .expect("refusal is an answer, not an error");
    assert!(!refused, "server with a pending job must not be removed");

    let check = in_flight
        .join()
        .expect("client thread")
        .expect("in-flight check still completes");
    assert!(!check.observations.is_empty());

    // Queue drained: the same request now takes the server offline.
    let removed = deployment
        .remove_server(61, 0)
        .expect("drained server responds");
    assert!(removed, "drained server must be removable");

    match Arc::try_unwrap(deployment) {
        Ok(d) => d.shutdown(),
        Err(_) => panic!("deployment still shared"),
    }
}

/// Any peer may connect to the Coordinator and send one well-framed
/// payload nested far deeper than `serde::MAX_DEPTH`: 100 000 bytes of
/// `[`, then 100 000 bytes of `{"a":`. Each is refused as a bad payload —
/// the stream is dropped, not the process (a parser without the cap
/// recursed once per byte and overflowed the stack). Serial checks are
/// served afterwards, and the books balance: the two hostile frames are
/// the only ones received that no node sent.
#[test]
fn frames_nested_past_the_depth_cap_are_refused_not_a_crash() {
    let world = World::build(&WorldConfig::small(), 43);
    let peers = [(60, Country::ES), (61, Country::ES), (62, Country::ES)];
    let deployment = MiniDeployment::start(world, &peers).expect("deployment starts");
    let telemetry = Arc::clone(deployment.telemetry());

    let hostile = [b"[".repeat(100_000), br#"{"a":"#.repeat(20_000)];
    for payload in &hostile {
        let mut s = TcpStream::connect(deployment.coordinator_addr()).expect("connect");
        s.write_all(&(payload.len() as u32).to_be_bytes())
            .expect("prefix written");
        s.write_all(payload).expect("payload written");
    }

    for i in 0..3u32 {
        let check = deployment
            .run_check(60 + u64::from(i), "amazon.com", ProductId(i))
            .unwrap_or_else(|e| panic!("check {i} after the hostile frames: {e}"));
        assert!(!check.observations.is_empty());
    }
    deployment.shutdown();

    let snap = telemetry.snapshot();
    // A frame counts its 4-byte prefix too.
    let hostile_bytes: u64 = hostile.iter().map(|p| 4 + p.len() as u64).sum();
    assert_eq!(
        snap.counters["wire.frames_in"],
        snap.counters["wire.frames_out"] + 2
    );
    assert_eq!(
        snap.counters["wire.bytes_in"],
        snap.counters["wire.bytes_out"] + hostile_bytes
    );
}
