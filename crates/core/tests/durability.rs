//! The durability proof for the Database tier (DESIGN.md "Durability &
//! recovery"):
//!
//! * a **crash-point matrix** that re-runs recovery from every WAL
//!   record boundary (and every mid-record byte) and asserts the
//!   reconstructed store equals exactly the durable prefix;
//! * **determinism**: the same schedule produces byte-identical WAL and
//!   snapshot images, at the protocol level and for a whole DES run;
//! * a **regression** for the crash-window path: pre-crash observations
//!   survive a Database crash, and a store torn off with the unflushed
//!   tail is re-stored by the sender's retransmit — zero observation
//!   loss either way;
//! * **proptests**: the record codec round-trips arbitrary records, and
//!   truncated or corrupted tails are cleanly ignored at recovery,
//!   never a panic.

use proptest::collection::vec as arb_vec;
use proptest::prelude::*;
use sheriff_core::coordinator::JobId;
use sheriff_core::db::DbCostModel;
use sheriff_core::durability::{
    decode_records, encode_record, encode_snapshot, record_boundaries, recover, MemStorage,
    WalRecord,
};
use sheriff_core::protocol::{Address, DbEvent, DbProto, ProtoMsg, TimerKind};
use sheriff_core::records::{PriceCheck, PriceObservation, VantageKind};
use sheriff_core::system::{PpcSpec, PriceSheriff, SheriffConfig};
use sheriff_geo::{Country, IpV4};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::{FaultPlan, SimTime};
use std::collections::BTreeSet;

fn obs(i: u64) -> PriceObservation {
    PriceObservation {
        vantage: match i % 3 {
            0 => VantageKind::Initiator,
            1 => VantageKind::Ipc,
            _ => VantageKind::Ppc,
        },
        vantage_id: i,
        country: Country::ES,
        city: i.is_multiple_of(2).then(|| format!("city-{i}")),
        ip: IpV4(0x0A00_0000 + i as u32),
        raw_text: format!("{i},99 €"),
        currency: "EUR".into(),
        amount: i as f64 + 0.99,
        amount_eur: i as f64 + 0.99,
        low_confidence: i % 5 == 4,
        failed: i % 7 == 6,
    }
}

fn check(job: u64, n: usize) -> PriceCheck {
    PriceCheck {
        job_id: job,
        domain: format!("shop-{}.example", job % 3),
        url: format!("/product/{job}"),
        day: (job % 30) as u32,
        observations: (0..n as u64).map(obs).collect(),
    }
}

/// The record `store_one` writes for `job`.
fn record(job: u64) -> WalRecord {
    WalRecord {
        vt_ms: job * 100,
        job,
        check: check(job, 3 + (job % 4) as usize),
    }
}

/// One store (message + DbDone timer) of `record(job)`; true when it
/// installed a snapshot.
fn store_one(proto: &mut DbProto, job: u64) -> bool {
    let (mut out, mut events) = (Vec::new(), Vec::new());
    let rec = record(job);
    proto.on_message(
        rec.vt_ms,
        Address::Server { index: 0 },
        ProtoMsg::StoreCheck {
            job: JobId(job),
            check: Box::new(rec.check),
        },
        &mut out,
        &mut events,
    );
    proto.on_timer(TimerKind::DbDone(JobId(job)), &mut out, &mut events);
    events
        .iter()
        .any(|e| matches!(e, DbEvent::SnapshotInstalled { .. }))
}

fn reborn(snapshot: Vec<u8>, wal: Vec<u8>, snapshot_every: usize) -> DbProto {
    DbProto::with_storage(
        DbCostModel::dedicated(),
        Box::new(MemStorage::with_contents(snapshot, wal)),
        snapshot_every,
    )
}

/// Drives `n` stores through a fresh `DbProto` at the given snapshot
/// cadence and returns the proto.
fn run_stores(n: u64, snapshot_every: usize) -> DbProto {
    let mut proto = reborn(Vec::new(), Vec::new(), snapshot_every);
    for job in 1..=n {
        store_one(&mut proto, job);
    }
    proto
}

/// What a crash right now would recover from `proto`'s durable bytes.
fn durable(proto: &DbProto) -> sheriff_core::durability::Recovered {
    recover(&MemStorage::with_contents(
        proto.snapshot_bytes(),
        proto.wal_bytes(),
    ))
}

// ---------------------------------------------------------------------
// Crash-point matrix
// ---------------------------------------------------------------------

#[test]
fn recovery_matrix_every_wal_boundary_restores_the_durable_prefix() {
    // A cadence the feed never reaches: the whole history lives in the
    // WAL, so the boundaries enumerate every crash point.
    let proto = run_stores(6, 1_000);
    let wal = proto.wal_bytes();
    let bounds = record_boundaries(&wal);
    assert_eq!(bounds.len(), 7, "6 records plus offset 0");

    for (k, &cut) in bounds.iter().enumerate() {
        // A crash that durably preserved exactly `k` records...
        let storage = MemStorage::with_contents(Vec::new(), wal[..cut].to_vec());
        let recovered = recover(&storage);
        assert_eq!(recovered.records.len(), k, "boundary {k}");
        // ...recovers exactly checks 1..=k, in store order.
        for (i, rec) in recovered.records.iter().enumerate() {
            let job = i as u64 + 1;
            assert_eq!(rec.job, job);
            assert_eq!(rec.vt_ms, job * 100);
            assert_eq!(rec.check, check(job, 3 + (job % 4) as usize));
        }
        // And a DbProto rebooted over those bytes serves the same store.
        let reborn = DbProto::with_storage(
            DbCostModel::dedicated(),
            Box::new(MemStorage::with_contents(Vec::new(), wal[..cut].to_vec())),
            1_000,
        );
        assert_eq!(reborn.database.len(), k);
        let jobs: BTreeSet<u64> = reborn.stored_jobs().map(|j| j.0).collect();
        assert_eq!(jobs, (1..=k as u64).collect::<BTreeSet<u64>>());
    }
}

#[test]
fn recovery_matrix_mid_record_cuts_round_down_to_the_boundary() {
    let proto = run_stores(4, 1_000);
    let wal = proto.wal_bytes();
    let bounds = record_boundaries(&wal);
    for cut in 0..=wal.len() {
        // Number of whole records strictly before the cut.
        let expect = bounds.iter().filter(|&&b| b <= cut).count() - 1;
        let storage = MemStorage::with_contents(Vec::new(), wal[..cut].to_vec());
        let recovered = recover(&storage);
        assert_eq!(recovered.records.len(), expect, "cut at byte {cut}");
    }
}

#[test]
fn recovery_matrix_with_snapshots_spans_both_regions() {
    // Cadence 2 over 5 stores: the durable image is a snapshot of 4
    // records plus a 1-record WAL tail. Every cut of the tail must
    // recover the 4 snapshotted checks plus the surviving tail prefix.
    let proto = run_stores(5, 2);
    let snapshot = proto.snapshot_bytes();
    let wal = proto.wal_bytes();
    assert!(!snapshot.is_empty(), "cadence must have folded the log");
    let bounds = record_boundaries(&wal);
    assert_eq!(bounds.len(), 2, "one tail record");
    for cut in 0..=wal.len() {
        let whole = bounds.iter().filter(|&&b| b <= cut).count() - 1;
        let storage = MemStorage::with_contents(snapshot.clone(), wal[..cut].to_vec());
        let recovered = recover(&storage);
        assert_eq!(recovered.snapshot_records, 4, "cut at {cut}");
        assert_eq!(recovered.records.len(), 4 + whole, "cut at {cut}");
        for (i, rec) in recovered.records.iter().enumerate() {
            assert_eq!(rec.job, i as u64 + 1, "store order survives, cut {cut}");
        }
    }
}

// ---------------------------------------------------------------------
// The snapshot is built by concatenation, and must not show it
// ---------------------------------------------------------------------

#[test]
fn every_installed_image_is_the_encoding_of_all_records_in_store_order() {
    let mut proto = reborn(Vec::new(), Vec::new(), 3);
    let mut installs = 0;
    for job in 1..=20 {
        if store_one(&mut proto, job) {
            installs += 1;
            let all: Vec<WalRecord> = (1..=job).map(record).collect();
            assert_eq!(proto.snapshot_bytes(), encode_snapshot(&all), "job {job}");
            assert!(proto.wal_bytes().is_empty(), "log folded at job {job}");
        }
    }
    assert_eq!(installs, 6);
}

#[test]
fn images_installed_after_every_crash_point_are_canonical_and_complete() {
    // Cadence 2 over 5 stores: a 4-record image plus a 1-record log.
    // Reboot over every cut of that log (most of them mid-record: a torn
    // tail), keep storing, and look at every image installed afterwards.
    let before = run_stores(5, 2);
    let (snapshot, wal) = (before.snapshot_bytes(), before.wal_bytes());
    for cut in 0..=wal.len() {
        let mut proto = reborn(snapshot.clone(), wal[..cut].to_vec(), 2);
        let survivors = if cut == wal.len() { 5 } else { 4 };
        assert_eq!(proto.database.len(), survivors as usize, "cut {cut}");
        let mut expected: Vec<WalRecord> = (1..=survivors).map(record).collect();
        let mut installs = 0;
        for job in 6..=9 {
            expected.push(record(job));
            if store_one(&mut proto, job) {
                installs += 1;
                assert_eq!(
                    proto.snapshot_bytes(),
                    encode_snapshot(&expected),
                    "cut {cut}, job {job}"
                );
            }
            // Whatever was acknowledged is recoverable, in store order.
            assert_eq!(durable(&proto).records, expected, "cut {cut}, job {job}");
        }
        assert!(installs >= 1, "cut {cut}");
    }
}

#[test]
fn store_behind_a_torn_wal_tail_is_recovered() {
    // The dying process raced a partial third record into the log. A
    // record appended behind it would be invisible to the next recovery
    // (decoding stops at the torn frame), so the reboot must not leave
    // the tail where it is.
    let wal = run_stores(3, 1_000).wal_bytes();
    let bounds = record_boundaries(&wal);
    let torn = wal[..bounds[2] + 7].to_vec();
    let mut proto = reborn(Vec::new(), torn, 1_000);
    assert_eq!(proto.database.len(), 2, "the whole records survive");
    assert!(!store_one(&mut proto, 9), "cadence not reached");
    let jobs: Vec<u64> = durable(&proto).records.iter().map(|r| r.job).collect();
    assert_eq!(jobs, [1, 2, 9], "the store after the torn tail is durable");
    // A snapshot with a torn tail is cut back the same way.
    let mut image = encode_snapshot(&[record(1), record(2)]);
    image.extend_from_slice(&wal[bounds[2]..bounds[2] + 7]);
    let mut proto = reborn(image, Vec::new(), 2);
    store_one(&mut proto, 8);
    assert!(store_one(&mut proto, 9), "cadence reached");
    let all = [record(1), record(2), record(8), record(9)];
    assert_eq!(proto.snapshot_bytes(), encode_snapshot(&all));
}

#[test]
fn des_run_of_300_stores_keeps_the_image_canonical() {
    let world = World::build(&WorldConfig::small(), 29);
    let mut sheriff = PriceSheriff::new(SheriffConfig::fast(29), world, &specs(2));
    // One Database crash in the middle of the feed.
    sheriff.install_fault_plan(FaultPlan::new(29).with_crash(2, 200_000, 203_000));
    for i in 0..300u64 {
        let (domain, product) = [("amazon.com", 0), ("chegg.com", 1)][(i % 2) as usize];
        sheriff.submit_check(
            SimTime::from_millis(i * 1_500),
            100 + i % 2,
            domain,
            ProductId(product),
        );
    }
    let mut images = BTreeSet::new();
    for step in 1..=60u64 {
        sheriff.run_until(SimTime::from_millis(step * 10_000));
        let snapshot = sheriff.db_snapshot_bytes().expect("v2 has a database");
        let wal = sheriff.db_wal_bytes().expect("v2 has a database");
        let recovered = recover(&MemStorage::with_contents(snapshot.clone(), wal));
        let in_image = &recovered.records[..recovered.snapshot_records];
        assert_eq!(snapshot, encode_snapshot(in_image), "at {step}0 s");
        let stored = sheriff.database_checks();
        let durable: Vec<&PriceCheck> = recovered.records.iter().map(|r| &r.check).collect();
        // Everything but the not-yet-barriered tail of the table.
        assert!(durable.len() <= stored.len() && stored.len() - durable.len() <= 8);
        assert!(durable.iter().zip(&stored).all(|(a, b)| *a == b));
        images.insert(snapshot.len());
    }
    assert_eq!(sheriff.database_checks().len(), 300, "every check stored");
    assert!(
        images.len() >= 5,
        "the image was looked at across several installs: {images:?}"
    );
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

#[test]
fn identical_schedules_write_identical_bytes() {
    let a = run_stores(5, 2);
    let b = run_stores(5, 2);
    assert_eq!(a.wal_bytes(), b.wal_bytes());
    assert_eq!(a.snapshot_bytes(), b.snapshot_bytes());
}

fn specs(n: u64) -> Vec<PpcSpec> {
    (0..n)
        .map(|i| PpcSpec {
            peer_id: 100 + i,
            country: Country::ES,
            city_idx: 0,
            user_agent: UserAgent {
                os: sheriff_market::pricing::Os::Linux,
                browser: sheriff_market::pricing::Browser::Firefox,
            },
            affluence: 0.2,
            logged_in_domains: vec![],
        })
        .collect()
}

/// A full DES run with a Database crash window; returns the durable
/// images plus the completed/stored job sets.
fn des_run(seed: u64, crash: (u64, u64)) -> (Vec<u8>, Vec<u8>, BTreeSet<u64>, BTreeSet<u64>) {
    let world = World::build(&WorldConfig::small(), seed);
    let mut sheriff = PriceSheriff::new(SheriffConfig::fast(seed), world, &specs(2));
    sheriff.install_fault_plan(FaultPlan::new(seed).with_crash(2, crash.0, crash.1));
    sheriff.submit_check(SimTime::from_millis(0), 100, "amazon.com", ProductId(0));
    sheriff.submit_check(SimTime::from_millis(4_000), 101, "chegg.com", ProductId(1));
    sheriff.run_until(SimTime::from_mins(3));
    let completed: BTreeSet<u64> = sheriff.completed().iter().map(|c| c.check.job_id).collect();
    let stored: BTreeSet<u64> = sheriff.database_checks().iter().map(|c| c.job_id).collect();
    (
        sheriff.db_wal_bytes().expect("v2 has a database"),
        sheriff.db_snapshot_bytes().expect("v2 has a database"),
        completed,
        stored,
    )
}

#[test]
fn same_seed_same_crash_window_means_identical_wal_bytes() {
    let a = des_run(7, (3_500, 5_200));
    let b = des_run(7, (3_500, 5_200));
    assert_eq!(a.0, b.0, "WAL bytes diverged across replays");
    assert_eq!(a.1, b.1, "snapshot bytes diverged across replays");
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}

// ---------------------------------------------------------------------
// Crash-window regressions (the `DbProto::on_restart` satellite)
// ---------------------------------------------------------------------

#[test]
fn pre_crash_observations_survive_a_database_crash_window() {
    // Check 1 is stored and acked (~2.8s) before the DB dies at 3.5s;
    // check 2 runs entirely after the restart. Both must complete and
    // both must sit in the post-restart store: the crash destroyed only
    // volatile state, never an acknowledged observation.
    let world = World::build(&WorldConfig::small(), 13);
    let mut sheriff = PriceSheriff::new(SheriffConfig::fast(13), world, &specs(2));
    sheriff.install_fault_plan(FaultPlan::new(13).with_crash(2, 3_500, 5_200));
    sheriff.submit_check(SimTime::from_millis(0), 100, "amazon.com", ProductId(0));
    sheriff.submit_check(SimTime::from_millis(4_000), 101, "chegg.com", ProductId(1));
    sheriff.run_until(SimTime::from_mins(3));

    let done = sheriff.completed();
    assert_eq!(done.len(), 2, "both checks complete despite the crash");
    let stored = sheriff.database_checks();
    let stored_jobs: BTreeSet<u64> = stored.iter().map(|c| c.job_id).collect();
    let done_jobs: BTreeSet<u64> = done.iter().map(|c| c.check.job_id).collect();
    assert_eq!(stored_jobs, done_jobs, "zero observation loss");
    // The pre-crash check's observations came back byte-for-byte.
    let pre = done
        .iter()
        .find(|c| c.check.domain == "amazon.com")
        .expect("first check completed");
    let recovered = stored
        .iter()
        .find(|c| c.job_id == pre.check.job_id)
        .expect("first check recovered");
    assert_eq!(recovered.observations, pre.check.observations);

    let snap = sheriff.telemetry().snapshot();
    assert_eq!(snap.counters["faults.node_restarts"], 1);
    assert!(
        snap.counters["db.recovered_records"] >= 1,
        "restart must have replayed the durable record"
    );
}

#[test]
fn store_torn_off_by_the_crash_is_recovered_by_retransmit() {
    // The crash window covers the whole interval where the StoreCheck
    // can land (replies arrive well before the 2s deadline, so the store
    // goes out around the one-second mark): the delivery is either eaten
    // by the dead node or its append dies with the unflushed tail. The
    // reliable channel keeps retransmitting past the restart at 2.6s,
    // and the re-store must land: still zero loss.
    let world = World::build(&WorldConfig::small(), 17);
    let mut sheriff = PriceSheriff::new(SheriffConfig::fast(17), world, &specs(1));
    sheriff.install_fault_plan(FaultPlan::new(17).with_crash(2, 300, 2_600));
    sheriff.submit_check(SimTime::from_millis(0), 100, "amazon.com", ProductId(0));
    sheriff.run_until(SimTime::from_mins(3));

    let done = sheriff.completed();
    assert_eq!(
        done.len(),
        1,
        "the check completes despite the mid-store crash"
    );
    let stored = sheriff.database_checks();
    assert_eq!(stored.len(), 1);
    assert_eq!(stored[0].job_id, done[0].check.job_id);
    assert_eq!(stored[0].observations, done[0].check.observations);
    let snap = sheriff.telemetry().snapshot();
    assert_eq!(snap.counters["faults.node_restarts"], 1);
}

// ---------------------------------------------------------------------
// Proptests: codec totality
// ---------------------------------------------------------------------

fn arb_observation() -> impl Strategy<Value = PriceObservation> {
    let ident = (0u8..3, any::<u64>(), 0usize..Country::count());
    let text = (any::<bool>(), "\\PC{0,12}", "\\PC{0,20}", "[A-Z]{0,4}");
    // Finite floats only: NaN round-trips bit-exactly through the codec
    // but fails the PartialEq the assertions rely on.
    let nums = (
        any::<u32>(),
        -1.0e12f64..1.0e12,
        -1.0e12f64..1.0e12,
        (any::<bool>(), any::<bool>()),
    );
    (ident, text, nums).prop_map(
        |((vk, vantage_id, c), (has_city, city, raw_text, currency), (ip, a, e, (low, failed)))| {
            PriceObservation {
                vantage: match vk {
                    0 => VantageKind::Initiator,
                    1 => VantageKind::Ipc,
                    _ => VantageKind::Ppc,
                },
                vantage_id,
                country: Country::all().nth(c).expect("index drawn in range"),
                city: has_city.then_some(city),
                ip: IpV4(ip),
                raw_text,
                currency,
                amount: a,
                amount_eur: e,
                low_confidence: low,
                failed,
            }
        },
    )
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    (
        (any::<u64>(), any::<u64>(), any::<u32>()),
        "\\PC{0,24}",
        "\\PC{0,24}",
        arb_vec(arb_observation(), 0..5),
    )
        .prop_map(|((vt_ms, job, day), domain, url, observations)| WalRecord {
            vt_ms,
            job,
            check: PriceCheck {
                job_id: job,
                domain,
                url,
                day,
                observations,
            },
        })
}

proptest! {
    #[test]
    fn prop_codec_roundtrips_every_record(rec in arb_record()) {
        let bytes = encode_record(rec.vt_ms, rec.job, &rec.check);
        let (decoded, consumed) = decode_records(&bytes);
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded, vec![rec]);
    }

    #[test]
    fn prop_truncated_tail_is_ignored_cleanly(
        recs in arb_vec(arb_record(), 1..4),
        keep_num in 0u32..=1_000,
    ) {
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for rec in &recs {
            bytes.extend_from_slice(&encode_record(rec.vt_ms, rec.job, &rec.check));
            ends.push(bytes.len());
        }
        let cut = (keep_num as usize * bytes.len()) / 1_000;
        let whole = ends.iter().filter(|&&e| e <= cut).count();
        // Recovery over the cut bytes: no panic, exactly the whole-record
        // prefix (records share no jobs only by luck, so count via the
        // raw decoder, then through `recover` with dedup semantics).
        let (decoded, consumed) = decode_records(&bytes[..cut]);
        prop_assert_eq!(decoded.len(), whole);
        prop_assert_eq!(consumed, ends.get(whole.wrapping_sub(1)).copied().unwrap_or(0));
        let storage = MemStorage::with_contents(Vec::new(), bytes[..cut].to_vec());
        let recovered = recover(&storage);
        prop_assert!(recovered.records.len() <= whole);
    }

    #[test]
    fn prop_corrupted_tail_never_panics_and_never_invents_records(
        recs in arb_vec(arb_record(), 1..4),
        flip_num in 0u32..1_000,
        xor in 1u8..=255,
    ) {
        let mut bytes = Vec::new();
        for rec in &recs {
            bytes.extend_from_slice(&encode_record(rec.vt_ms, rec.job, &rec.check));
        }
        let flip = (flip_num as usize * (bytes.len() - 1)) / 1_000;
        bytes[flip] ^= xor;
        let (decoded, consumed) = decode_records(&bytes);
        prop_assert!(decoded.len() <= recs.len());
        prop_assert!(consumed <= bytes.len());
        // Whatever survived is a prefix of the original stream.
        for (d, orig) in decoded.iter().zip(recs.iter()) {
            prop_assert_eq!(d, orig);
        }
    }
}
