//! End-to-end simulated price checks through the v1 and v2 architectures —
//! the Table 1 contrast expressed as wall-clock cost of simulating one
//! complete check (plus the DES engine's raw event throughput, and the
//! TCP reactor backend's real-socket check latency — the number the
//! `reactor-soak` CI stage archives before/after to gate regressions).

// The criterion macros expand to undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sheriff_core::system::{PpcSpec, PriceSheriff, SheriffConfig};
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::SimTime;

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
            affluence: 0.2,
            logged_in_domains: vec![],
        })
        .collect()
}

fn bench_price_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulated_price_check");
    group.sample_size(10);
    for version in ["v1", "v2"] {
        group.bench_with_input(BenchmarkId::from_parameter(version), &version, |b, &v| {
            b.iter(|| {
                let world = World::build(&WorldConfig::small(), 31);
                let mut cfg = if v == "v1" {
                    SheriffConfig::v1(31)
                } else {
                    SheriffConfig::v2(31, 2)
                };
                // Shrink virtual fetch times: wall-clock cost is event
                // processing, not virtual waiting.
                cfg.ipc_fetch_median_ms = 200;
                cfg.ipc_overload_ms = 2_000;
                cfg.fetch_kill_ms = 1_000;
                cfg.ppc_fetch_median_ms = 20;
                cfg.job_deadline_ms = 1_500;
                let mut sheriff = PriceSheriff::new(cfg, world, &peers(4));
                sheriff.submit_check(SimTime::ZERO, 100, "steampowered.com", ProductId(0));
                sheriff.run_until(SimTime::from_mins(1));
                assert_eq!(sheriff.completed().len(), 1);
            });
        });
    }
    group.finish();
}

fn bench_des_engine(c: &mut Criterion) {
    // Raw engine throughput: ping-pong messages between two nodes.
    use sheriff_netsim::{ConstantLatency, Ctx, Node, NodeId, Simulator};

    struct Echo;
    impl Node<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    c.bench_function("des_10k_events", |b| {
        b.iter(|| {
            let mut sim: Simulator<u32> =
                Simulator::new(Box::new(ConstantLatency(SimTime::from_millis(1))), 7);
            let a = sim.add_node(Box::new(Echo));
            let bnode = sim.add_node(Box::new(Echo));
            sim.inject(SimTime::ZERO, a, bnode, 10_000);
            sim.run_until_idle(20_000)
        });
    });
}

fn bench_tcp_reactor(c: &mut Criterion) {
    // Real sockets through the sharded reactor backend: one deployment,
    // reused across samples (starting it is the expensive part and not
    // what this gates). 64 peers is big enough that several reactor
    // shards are in play. v2 configuration: on this backend virtual
    // milliseconds are real, so v1's integrated-RDBMS store cost
    // (~660 ms/check, the Table 1 bottleneck) would swamp the transport
    // signal this bench exists to gate.
    use sheriff_wire::MiniDeployment;

    let world = World::build(&WorldConfig::small(), 31);
    let mut cfg = SheriffConfig::v2(31, 2);
    cfg.ipc_locations.clear();
    cfg.proc_per_reply_ms = 2.0;
    cfg.context_switch_alpha = 0.0;
    cfg.job_deadline_ms = 8_000;
    // No beacons, and a staleness threshold to match (the defaults' 3×
    // ratio) — at the default 30 s every server is written off mid-run.
    cfg.heartbeat_every_ms = 3_600_000;
    cfg.heartbeat_timeout_ms = 3 * cfg.heartbeat_every_ms;
    let d = MiniDeployment::start_with(world, cfg, &peers(64)).expect("deployment starts");
    let d = &d;

    let mut group = c.benchmark_group("tcp_reactor");
    group.sample_size(10);
    group.bench_function("price_check_64_peers", |b| {
        b.iter(|| {
            d.run_check(100, "steampowered.com", ProductId(0))
                .expect("check completes")
        });
    });
    group.bench_function("concurrent_checks_x16", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for i in 0..16u64 {
                    s.spawn(move || {
                        d.run_check(100 + (i % 64), "steampowered.com", ProductId(0))
                            .expect("check completes")
                    });
                }
            });
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_price_check,
    bench_des_engine,
    bench_tcp_reactor
);
criterion_main!(benches);
