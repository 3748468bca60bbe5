//! Per-layer measurements of the traced run: each times calls into one
//! layer's public functions from out here, `Instant` around a batch, and
//! reports the median per call. The README says which end-to-end metric
//! each is expected to move.

use std::hint::black_box;
use std::io::Cursor;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sheriff_bench::synthetic_page;
use sheriff_bigint::{mod_inv, mod_mul, mod_pow, Big};
use sheriff_core::durability::{
    decode_records, encode_record, encode_snapshot, recover, MemStorage, Storage, WalRecord,
};
use sheriff_core::protocol::{Address, ProtoMsg};
use sheriff_core::system::{PriceSheriff, SheriffConfig};
use sheriff_core::{JobId, PriceCheck, PriceObservation, VantageKind};
use sheriff_crypto::dlog::DlogTable;
use sheriff_crypto::elgamal::SecretKey;
use sheriff_crypto::ipfe::{client_vector, server_vector};
use sheriff_crypto::protocol::{aggregate_cluster, coordinator_evaluate, BlindedQuery};
use sheriff_crypto::GroupParams;
use sheriff_currency::{detect_and_convert, FixedRates};
use sheriff_geo::{Country, IpV4};
use sheriff_html::tagspath::extract_text_by_path;
use sheriff_html::{DiffStorage, Document, TagsPath};
use sheriff_market::world::WorldConfig;
use sheriff_market::World;
use sheriff_netsim::{ConstantLatency, Ctx, Node, NodeId, SimTime, Simulator};
use sheriff_telemetry::{FieldValue, Registry};
use sheriff_wire::{read_frame, write_frame, Envelope, FileStorage};

use crate::run::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    kmeans_phases, peers, tcp_config, tcp_serial_checks, tcp_start, KmeansInputs,
};

/// Mean frame payload seen on the TCP workloads (bytes_out / frames_out).
const FRAME_PAYLOAD: usize = 640;
/// Events per engine sample; the criterion bench's `des_10k_events`
/// scaled up so one sample outlasts timer noise.
const ENGINE_EVENTS: u64 = 100_000;
/// Strings of the paper's Fig. 2 result page.
const FIG2_PRICES: [&str; 9] = [
    "EUR654",
    "$699",
    "CAD912",
    "ILS2,963",
    "SEK6,283",
    "JPY88,204",
    "CZK18,215",
    "KRW829,075",
    "NZD997",
];

/// Shortest batch worth timing: long enough that the two clock reads
/// around it are noise.
const MIN_BATCH: Duration = Duration::from_micros(50);

/// Median seconds per call of `f`, sampled in batches until `budget`
/// is spent (at least three batches, so slow calls still get a median).
fn secs_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let first = t0.elapsed().max(Duration::from_nanos(1));
    let batch = (MIN_BATCH.as_secs_f64() / first.as_secs_f64())
        .ceil()
        .max(1.0) as u32;
    let mut samples = Vec::new();
    while samples.len() < 3 || t0.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / f64::from(batch));
    }
    median(&samples)
}

/// Collects metrics as `(name, unit, value)`.
struct Out {
    budget: Duration,
    metrics: Vec<Metric>,
}

impl Out {
    fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }

    /// Times `f` and records it in `unit` (`ns`, `us` or `ms` per call),
    /// `per` logical operations per call.
    fn time(&mut self, name: &str, unit: &'static str, per: f64, f: impl FnMut()) {
        let scale = match unit {
            "ns" => 1e9,
            "us" => 1e6,
            "ms" => 1e3,
            other => panic!("no time unit {other}"),
        };
        let v = secs_per_call(self.budget, f) * scale / per;
        self.push(name, unit, v);
    }
}

fn sample_check(job: u64, observations: usize) -> PriceCheck {
    PriceCheck {
        job_id: job,
        domain: "steampowered.com".into(),
        url: "/product/3".into(),
        day: 0,
        observations: (0..observations as u64)
            .map(|i| PriceObservation {
                vantage: if i == 0 {
                    VantageKind::Initiator
                } else {
                    VantageKind::Ppc
                },
                vantage_id: 100 + i,
                country: Country::ES,
                city: Some("Madrid".into()),
                ip: IpV4(0x0a00_0001 + i as u32),
                raw_text: "EUR654.00".into(),
                currency: "EUR".into(),
                amount: 654.0,
                amount_eur: 654.0,
                low_confidence: false,
                failed: false,
            })
            .collect(),
    }
}

fn wire_codec(out: &mut Out) {
    let payload = vec![b'x'; FRAME_PAYLOAD];
    let mut buf = Vec::with_capacity(FRAME_PAYLOAD + 8);
    out.time("wire.frame.write_ns", "ns", 1.0, || {
        buf.clear();
        write_frame(&mut buf, black_box(&payload)).expect("vec write");
    });
    out.time("wire.frame.read_ns", "ns", 1.0, || {
        black_box(read_frame(&mut Cursor::new(black_box(&buf[..]))).expect("whole frame"));
    });
    let env = Envelope {
        from: Address::Server { index: 0 },
        msg: ProtoMsg::Results {
            job: JobId(7),
            check: Box::new(sample_check(7, 4)),
        },
    };
    out.time("wire.proto.send_ns", "ns", 1.0, || {
        buf.clear();
        black_box(&env).send(&mut buf).expect("vec write");
    });
    out.time("wire.proto.recv_ns", "ns", 1.0, || {
        black_box(Envelope::recv(&mut Cursor::new(black_box(&buf[..]))).expect("whole envelope"));
    });
}

/// Framed ping-pong over one loopback connection against an echo thread
/// the benchmark owns: the floor under one hop.
fn wire_loopback(out: &mut Out) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        s.set_nodelay(true).expect("nodelay");
        while let Ok(Some(p)) = read_frame(&mut s) {
            if write_frame(&mut s, &p).is_err() {
                break;
            }
        }
    });
    let mut s = TcpStream::connect(addr).expect("connect loopback");
    s.set_nodelay(true).expect("nodelay");
    let payload = vec![b'x'; FRAME_PAYLOAD];
    out.time("wire.loopback_rtt_us", "us", 1.0, || {
        write_frame(&mut s, &payload).expect("ping");
        black_box(read_frame(&mut s).expect("pong"));
    });
    drop(s);
    echo.join().expect("echo thread");
}

fn wal_records(n: u64) -> Vec<WalRecord> {
    (0..n)
        .map(|job| WalRecord {
            vt_ms: job * 10,
            job,
            check: sample_check(job, 4),
        })
        .collect()
}

fn storage(out: &mut Out, tmp: &Path) {
    let records = wal_records(1_000);
    let record = encode_record(1, 1, &records[1].check);
    let wal: Vec<u8> = records
        .iter()
        .flat_map(|r| encode_record(r.vt_ms, r.job, &r.check))
        .collect();
    let snapshot = encode_snapshot(&records);

    out.time("core.durability.encode_record_ns", "ns", 1.0, || {
        black_box(encode_record(1, 1, black_box(&records[1].check)));
    });
    out.time(
        "core.durability.decode_records_ns_per_rec",
        "ns",
        1_000.0,
        || {
            black_box(decode_records(black_box(&wal)));
        },
    );
    out.time("core.durability.encode_snapshot_us_1k", "us", 1.0, || {
        black_box(encode_snapshot(black_box(&records)));
    });
    out.time("core.durability.recover_us_1k", "us", 1.0, || {
        let store = MemStorage::with_contents(Vec::new(), wal.clone());
        black_box(recover(&store));
    });

    let dir = tmp.join("layer-storage");
    let _ = std::fs::remove_dir_all(&dir);
    let mut files = FileStorage::open(&dir);
    out.time("wire.storage.append_barrier_us", "us", 1.0, || {
        files.append_wal(&record);
        files.barrier();
    });
    out.time("wire.storage.install_snapshot_us_1k", "us", 1.0, || {
        files.install_snapshot(&snapshot);
    });
    assert_eq!(files.io_errors(), 0, "storage measurements hit I/O errors");
    let _ = std::fs::remove_dir_all(&dir);
}

fn deployment(out: &mut Out, seed: u64) {
    let mut start_ms = Vec::new();
    let mut stop_ms = Vec::new();
    for i in 0..3 {
        let t = Instant::now();
        let (d, mut inputs) = tcp_start(seed + i, tcp_config(seed + i), 0);
        start_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tcp_serial_checks(&d, &mut inputs, 1);
        let t = Instant::now();
        d.shutdown();
        stop_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.push("wire.deploy.start_ms", "ms", median(&start_ms));
    out.push("wire.deploy.shutdown_ms", "ms", median(&stop_ms));

    // Default v2 delays back on: the ROADMAP's "99.5 ms" check. The
    // modeled share is this minus `tcp_serial`'s `op_ms_p50`.
    let mut cfg = SheriffConfig::v2(seed, 2);
    cfg.ipc_locations.clear();
    let (d, mut inputs) = tcp_start(seed, cfg, 0);
    tcp_serial_checks(&d, &mut inputs, 2);
    let n = (out.budget.as_secs_f64() * 4.0 / 0.09).ceil() as usize;
    let lat = tcp_serial_checks(&d, &mut inputs, n.clamp(3, 100));
    d.shutdown();
    out.push("wire.deploy.modeled_check_ms_p50", "ms", median(&lat));
}

struct Echo;
impl Node<u32> for Echo {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
        if msg > 0 {
            ctx.send(from, msg - 1);
        }
    }
}

/// Re-arms its own timer until `left` runs out: the timer path alone.
struct Ticker {
    left: u64,
}
impl Node<u32> for Ticker {
    fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, token: u64) {
        if self.left > 0 {
            self.left -= 1;
            ctx.set_timer(SimTime::from_millis(1), token);
        }
    }
}

fn des_engine(out: &mut Out, seed: u64) {
    let latency = || Box::new(ConstantLatency(SimTime::from_millis(1)));
    out.time(
        "netsim.engine.ns_per_event",
        "ns",
        ENGINE_EVENTS as f64,
        || {
            let mut sim: Simulator<u32> = Simulator::new(latency(), 7);
            let a = sim.add_node(Box::new(Echo));
            let b = sim.add_node(Box::new(Echo));
            sim.inject(SimTime::ZERO, a, b, ENGINE_EVENTS as u32);
            black_box(sim.run_until_idle(2 * ENGINE_EVENTS));
        },
    );
    out.time("netsim.engine.timer_ns", "ns", ENGINE_EVENTS as f64, || {
        let mut sim: Simulator<u32> = Simulator::new(latency(), 7);
        let n = sim.add_node(Box::new(Ticker {
            left: ENGINE_EVENTS,
        }));
        sim.inject_timer(SimTime::ZERO, n, 1);
        black_box(sim.run_until_idle(2 * ENGINE_EVENTS));
    });
    out.time("market.world.build_ms", "ms", 1.0, || {
        black_box(World::build(&WorldConfig::small(), black_box(seed)));
    });
    let mut new_ms = Vec::new();
    for _ in 0..3 {
        let world = World::build(&WorldConfig::small(), seed);
        let t = Instant::now();
        black_box(PriceSheriff::new(
            SheriffConfig::v2(seed, 2),
            world,
            &peers(64),
        ));
        new_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.push("core.system.new_ms", "ms", median(&new_ms));
}

fn extraction(out: &mut Out) {
    let page = synthetic_page("EUR654.00", 200);
    let doc = Document::parse(&page);
    let el = doc.find_by_class("span", "price").expect("price present");
    let path = TagsPath::from_node(&doc, el).expect("path to the price");
    let remote = Document::parse(&synthetic_page("CAD912.00", 200));
    let variant = page.replace("EUR654.00", "CAD912.00");
    out.time("html.dom.parse_us", "us", 1.0, || {
        black_box(Document::parse(black_box(&page)));
    });
    out.time("html.tagspath.from_node_us", "us", 1.0, || {
        black_box(TagsPath::from_node(black_box(&doc), el));
    });
    out.time("html.tagspath.extract_us", "us", 1.0, || {
        black_box(extract_text_by_path(black_box(&remote), &path));
    });
    out.time("html.diff.store_us", "us", 1.0, || {
        let mut store = DiffStorage::new(black_box(&page));
        black_box(store.store(&variant));
    });
    let rates = FixedRates::paper_era();
    out.time(
        "currency.detect_convert_ns",
        "ns",
        FIG2_PRICES.len() as f64,
        || {
            for text in FIG2_PRICES {
                black_box(
                    detect_and_convert(black_box(text), "EUR", &rates).expect("Fig. 2 price"),
                );
            }
        },
    );
}

fn crypto(out: &mut Out, km: &KmeansInputs) {
    let mut rng = StdRng::seed_from_u64(3);
    for bits in [128usize, 256] {
        let g = GroupParams::baked(bits);
        let a = g.random_exponent(&mut rng);
        let b = g.random_exponent(&mut rng);
        if bits == 128 {
            out.time("bigint.mod_mul_ns_128", "ns", 1.0, || {
                black_box(mod_mul(black_box(&a), black_box(&b), &g.p));
            });
            out.time("bigint.mod_inv_us_128", "us", 1.0, || {
                black_box(mod_inv(black_box(&a), &g.q));
            });
        }
        out.time(&format!("bigint.mod_pow_us_{bits}"), "us", 1.0, || {
            black_box(mod_pow(black_box(&a), black_box(&b), &g.p));
        });
    }

    let params = &km.params;
    let m = km.points[0].len();
    let sk = SecretKey::generate(params, m + 2, &mut rng);
    let pk = sk.public_key();
    let cvec = client_vector(&km.points[0]);
    let ct = pk.encrypt(&cvec, &mut rng);
    let rho = params.random_exponent(&mut rng);
    let s = server_vector(&km.init[0]);
    let table = DlogTable::build(params, m as u64 * 64 + 1);
    let query = BlindedQuery::blind(params, &ct, &mut rng);
    let resp = coordinator_evaluate(&sk, &query.blinded, &s);
    let cts: Vec<_> = km
        .points
        .iter()
        .map(|p| pk.encrypt(&client_vector(p), &mut rng))
        .collect();
    let refs: Vec<_> = cts.iter().collect();
    let target = params.g_pow(&Big::from_u64(m as u64 * 64 - 7));

    out.time("crypto.elgamal.encrypt_ms_m20", "ms", 1.0, || {
        black_box(pk.encrypt(black_box(&cvec), &mut rng));
    });
    out.time("crypto.elgamal.pow_all_ms_m20", "ms", 1.0, || {
        black_box(ct.pow_all(black_box(&rho), params));
    });
    let mut rng = StdRng::seed_from_u64(5);
    out.time("crypto.protocol.blind_ms", "ms", 1.0, || {
        black_box(BlindedQuery::blind(params, black_box(&ct), &mut rng));
    });
    out.time("crypto.protocol.coordinator_evaluate_ms", "ms", 1.0, || {
        black_box(coordinator_evaluate(&sk, black_box(&query.blinded), &s));
    });
    out.time("crypto.protocol.unblind_us", "us", 1.0, || {
        black_box(query.unblind(params, black_box(&resp), &table));
    });
    out.time("crypto.protocol.aggregate_cluster_us", "us", 1.0, || {
        black_box(aggregate_cluster(params, black_box(&refs)));
    });
    out.time("crypto.dlog.build_ms", "ms", 1.0, || {
        black_box(DlogTable::build(params, black_box(m as u64 * 64 + 1)));
    });
    out.time("crypto.dlog.solve_us", "us", 1.0, || {
        black_box(table.solve(black_box(&target)));
    });
}

fn kmeans(out: &mut Out, km: &KmeansInputs) {
    let mut off = Tracer::new(false);
    let runs: Vec<_> = (0..3)
        .map(|i| kmeans_phases(km, 1, i, &mut off, Tracer::root(), i).0)
        .collect();
    let phase_ms = |name: &str| {
        let v: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.iter().filter(|(n, _)| *n == name).map(|&(_, ms)| ms))
            .collect();
        median(&v)
    };
    out.push("kmeans.private.setup_ms", "ms", phase_ms("kmeans.setup"));
    out.push(
        "kmeans.private.map_clients_ms",
        "ms",
        phase_ms("kmeans.map_clients"),
    );
    out.push(
        "kmeans.private.update_centroids_ms",
        "ms",
        phase_ms("kmeans.update_centroids"),
    );
    let mut i = 0;
    out.time("kmeans.private.iter_ms_t2", "ms", 1.0, || {
        i += 1;
        assert!(
            km.iterate(2, i),
            "two-thread iteration disagrees with the reference"
        );
    });
}

fn telemetry(out: &mut Out) {
    let reg = Registry::new();
    let counter = reg.counter("bench.counter");
    let hist = reg.histogram("bench.hist_ms", &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]);
    for i in 0..64 {
        reg.counter(&format!("bench.c{i}")).inc();
        reg.gauge(&format!("bench.g{i}")).set(i);
    }
    out.time("telemetry.counter_inc_ns", "ns", 1.0, || counter.inc());
    let mut v = 0.0;
    out.time("telemetry.histogram_record_ns", "ns", 1.0, || {
        v = (v + 7.3) % 120.0;
        hist.observe(black_box(v));
    });
    const EVENTS: u64 = 4_096;
    out.time("telemetry.event_ns", "ns", EVENTS as f64, || {
        let reg = Registry::with_event_capacity(EVENTS as usize);
        for i in 0..EVENTS {
            reg.event(i, "bench.event", vec![("job", FieldValue::U64(i))]);
        }
        black_box(reg);
    });
    out.time("telemetry.snapshot_us", "us", 1.0, || {
        black_box(reg.snapshot());
    });
}

/// Runs every layer measurement, `budget` of wall time per timed metric.
/// `tmp` is a scratch directory inside the checkout.
pub fn measure_all(budget: Duration, tmp: &Path, seed: u64) -> Vec<Metric> {
    let mut out = Out {
        budget,
        metrics: Vec::new(),
    };
    let km = KmeansInputs::new(seed);
    wire_codec(&mut out);
    wire_loopback(&mut out);
    storage(&mut out, tmp);
    deployment(&mut out, seed);
    des_engine(&mut out, seed);
    extraction(&mut out);
    crypto(&mut out, &km);
    kmeans(&mut out, &km);
    telemetry(&mut out);
    out.metrics
}
