//! Durable storage for the Database server: WAL + snapshot + recovery.
//!
//! The paper's Database server is the system of record for every price
//! observation (§3.2, Table 1); losing it loses the longitudinal history
//! the §6–§7 analyses need — a lost observation is indistinguishable
//! from "no fiddling". This module gives the [`crate::protocol::DbProto`]
//! machine a crash-consistent persistence model:
//!
//! * a **write-ahead log** of [`WalRecord`]s in a hand-rolled,
//!   deterministic byte format (same virtual schedule → identical WAL
//!   bytes, so DES replays are byte-comparable);
//! * periodic **snapshots** that fold the log into one durable image and
//!   truncate it;
//! * a [`Storage`] trait separating the *discipline* (append, barrier,
//!   install, recover) from the *medium*: the DES backend runs against
//!   the in-memory [`MemStorage`], `wire::deploy` against real files.
//!
//! The crash-consistency contract: bytes appended to the WAL are
//! *volatile* until a [`Storage::barrier`] (the fsync-equivalent); a
//! crash discards the un-barriered tail, deterministically. Recovery
//! replays the snapshot plus every *whole, checksummed* log record and
//! cleanly ignores a truncated or corrupted tail — never panics, so the
//! workspace's transitive panic-freedom invariant holds through the
//! protocol entry points that call into this module.

use std::collections::BTreeSet;

use crate::records::{PriceCheck, PriceObservation, VantageKind};
use sheriff_geo::{Country, IpV4};

/// First byte of every WAL record frame.
pub const RECORD_MAGIC: u8 = 0xA5;

/// Leading bytes of a snapshot image.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SNP1";

/// One durable log entry: a stored check stamped with the virtual time
/// of the store.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Virtual time of the store (DES: simulated ms; TCP: ms since the
    /// deployment epoch).
    pub vt_ms: u64,
    /// The job the check settles.
    pub job: u64,
    /// The stored check itself.
    pub check: PriceCheck,
}

// ---------------------------------------------------------------------
// Byte store abstraction
// ---------------------------------------------------------------------

/// The durable byte store behind the Database server.
///
/// Two append-only regions — a snapshot image and a WAL — with an
/// explicit durability barrier. Implementations must make
/// [`Storage::lose_unflushed`] discard exactly the bytes appended since
/// the last barrier (or snapshot install), so crash truncation is
/// deterministic for a deterministic append/barrier schedule.
pub trait Storage: Send {
    /// The durable snapshot image (empty when none was ever installed).
    fn read_snapshot(&self) -> Vec<u8>;
    /// The durable (barrier-flushed) WAL bytes.
    fn read_wal(&self) -> Vec<u8>;
    /// Appends bytes at the WAL tail; volatile until [`Storage::barrier`].
    fn append_wal(&mut self, bytes: &[u8]);
    /// Fsync-equivalent: every byte appended so far becomes durable.
    fn barrier(&mut self);
    /// Atomically replaces the snapshot and truncates the WAL to empty.
    fn install_snapshot(&mut self, bytes: &[u8]);
    /// Atomically appends whole record `frames` to the snapshot image
    /// (starting one if there is none) and truncates the WAL. A medium
    /// that can grow its image in place overrides this; the default
    /// rewrites it.
    fn extend_snapshot(&mut self, frames: &[u8]) {
        let mut image = self.read_snapshot();
        extend_image(&mut image, frames);
        self.install_snapshot(&image);
    }
    /// Power-loss: the un-barriered WAL tail is gone. Returns how many
    /// bytes were discarded.
    fn lose_unflushed(&mut self) -> usize;
    /// `(durable, buffered)` WAL byte counts, for telemetry and tests.
    fn wal_len(&self) -> (usize, usize);
}

/// In-memory [`Storage`] for the discrete-event backend: a byte vector
/// per region plus a flushed watermark. Same schedule → same bytes.
#[derive(Debug, Default)]
pub struct MemStorage {
    snapshot: Vec<u8>,
    wal: Vec<u8>,
    flushed: usize,
}

impl MemStorage {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store pre-loaded with a durable image, for recovery tests.
    pub fn with_contents(snapshot: Vec<u8>, wal: Vec<u8>) -> Self {
        let flushed = wal.len();
        MemStorage {
            snapshot,
            wal,
            flushed,
        }
    }
}

impl Storage for MemStorage {
    fn read_snapshot(&self) -> Vec<u8> {
        self.snapshot.clone()
    }

    fn read_wal(&self) -> Vec<u8> {
        self.wal.get(..self.flushed).unwrap_or(&self.wal).to_vec()
    }

    fn append_wal(&mut self, bytes: &[u8]) {
        self.wal.extend_from_slice(bytes);
    }

    fn barrier(&mut self) {
        self.flushed = self.wal.len();
    }

    fn install_snapshot(&mut self, bytes: &[u8]) {
        self.snapshot = bytes.to_vec();
        self.wal.clear();
        self.flushed = 0;
    }

    fn extend_snapshot(&mut self, frames: &[u8]) {
        extend_image(&mut self.snapshot, frames);
        self.wal.clear();
        self.flushed = 0;
    }

    fn lose_unflushed(&mut self) -> usize {
        let lost = self.wal.len().saturating_sub(self.flushed);
        self.wal.truncate(self.flushed);
        lost
    }

    fn wal_len(&self) -> (usize, usize) {
        (self.flushed, self.wal.len())
    }
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

/// FNV-1a over `bytes`, the per-record integrity check. 32 bits is
/// plenty against torn writes (the only corruption model here); this is
/// not a cryptographic seal.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_check(out: &mut Vec<u8>, check: &PriceCheck) {
    put_u64(out, check.job_id);
    put_str(out, &check.domain);
    put_str(out, &check.url);
    put_u32(out, check.day);
    put_u32(out, check.observations.len() as u32);
    for o in &check.observations {
        out.push(match o.vantage {
            VantageKind::Initiator => 0,
            VantageKind::Ipc => 1,
            VantageKind::Ppc => 2,
        });
        put_u64(out, o.vantage_id);
        put_str(out, o.country.code());
        match &o.city {
            None => out.push(0),
            Some(c) => {
                out.push(1);
                put_str(out, c);
            }
        }
        put_u32(out, o.ip.0);
        put_str(out, &o.raw_text);
        put_str(out, &o.currency);
        put_u64(out, o.amount.to_bits());
        put_u64(out, o.amount_eur.to_bits());
        out.push(u8::from(o.low_confidence));
        out.push(u8::from(o.failed));
    }
}

/// Encodes one WAL record frame:
/// `[magic u8][payload_len u32 LE][checksum u32 LE][payload]`, where the
/// payload is `vt_ms · job · check` in the fixed field order above. All
/// integers little-endian, strings length-prefixed — no map iteration,
/// no float formatting, nothing schedule-dependent: the bytes are a pure
/// function of the record.
pub fn encode_record(vt_ms: u64, job: u64, check: &PriceCheck) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64 + 96 * check.observations.len());
    put_u64(&mut payload, vt_ms);
    put_u64(&mut payload, job);
    put_check(&mut payload, check);
    let mut out = Vec::with_capacity(9 + payload.len());
    out.push(RECORD_MAGIC);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, checksum(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Cursor over a byte slice; every read is bounds-checked and returns
/// `None` past the end, which recovery treats as "truncated tail".
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s.first().copied().unwrap_or(0))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| {
            let mut b = [0u8; 4];
            b.copy_from_slice(s);
            u32::from_le_bytes(b)
        })
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| {
            let mut b = [0u8; 8];
            b.copy_from_slice(s);
            u64::from_le_bytes(b)
        })
    }

    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).ok()
    }
}

fn read_observation(r: &mut Reader<'_>) -> Option<PriceObservation> {
    let vantage = match r.u8()? {
        0 => VantageKind::Initiator,
        1 => VantageKind::Ipc,
        2 => VantageKind::Ppc,
        _ => return None,
    };
    let vantage_id = r.u64()?;
    let country = Country::from_code(&r.str()?)?;
    let city = match r.u8()? {
        0 => None,
        1 => Some(r.str()?),
        _ => return None,
    };
    Some(PriceObservation {
        vantage,
        vantage_id,
        country,
        city,
        ip: IpV4(r.u32()?),
        raw_text: r.str()?,
        currency: r.str()?,
        amount: f64::from_bits(r.u64()?),
        amount_eur: f64::from_bits(r.u64()?),
        low_confidence: r.u8()? != 0,
        failed: r.u8()? != 0,
    })
}

fn read_check(r: &mut Reader<'_>) -> Option<PriceCheck> {
    let job_id = r.u64()?;
    let domain = r.str()?;
    let url = r.str()?;
    let day = r.u32()?;
    let n = r.u32()? as usize;
    // A length claim beyond the remaining bytes is corruption, not an
    // allocation request.
    if n > r.buf.len().saturating_sub(r.pos) {
        return None;
    }
    let mut observations = Vec::with_capacity(n);
    for _ in 0..n {
        observations.push(read_observation(r)?);
    }
    Some(PriceCheck {
        job_id,
        domain,
        url,
        day,
        observations,
    })
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let vt_ms = r.u64()?;
    let job = r.u64()?;
    let check = read_check(&mut r)?;
    // Trailing garbage inside a checksummed frame is corruption too.
    if r.pos != payload.len() {
        return None;
    }
    Some(WalRecord { vt_ms, job, check })
}

/// Decodes a stream of WAL record frames. Returns every whole, intact
/// record plus the byte offset of the end of that valid prefix; the
/// first truncated, magic-less, or checksum-failing frame ends the
/// stream cleanly (the crash-recovery contract — never a panic).
pub fn decode_records(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut r = Reader { buf: bytes, pos: 0 };
    loop {
        let start = r.pos;
        let frame = (|| {
            if r.u8()? != RECORD_MAGIC {
                return None;
            }
            let len = r.u32()? as usize;
            let sum = r.u32()?;
            let payload = r.take(len)?;
            if checksum(payload) != sum {
                return None;
            }
            decode_payload(payload)
        })();
        match frame {
            Some(rec) => records.push(rec),
            None => return (records, start),
        }
        if r.pos >= bytes.len() {
            return (records, r.pos);
        }
    }
}

/// Offsets of every record boundary in a valid WAL byte stream,
/// including 0 and the total length — the crash points the recovery
/// matrix replays from.
pub fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut out = vec![0];
    let mut r = Reader { buf: bytes, pos: 0 };
    while r.u8() == Some(RECORD_MAGIC) {
        let Some(len) = r.u32() else { break };
        if r.take(4).is_none() || r.take(len as usize).is_none() {
            break;
        }
        out.push(r.pos);
    }
    out
}

/// Encodes a snapshot image: the magic header followed by every record
/// in store order, each in the WAL frame format (so a snapshot is
/// self-checking the same way the log is).
pub fn encode_snapshot(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    for rec in records {
        out.extend_from_slice(&encode_record(rec.vt_ms, rec.job, &rec.check));
    }
    out
}

/// Appends whole record `frames` to a snapshot `image` (header first if it
/// is empty): byte for byte [`encode_snapshot`] of the records in order.
pub fn extend_image(image: &mut Vec<u8>, frames: &[u8]) {
    if image.is_empty() {
        image.extend_from_slice(&SNAPSHOT_MAGIC);
    }
    image.extend_from_slice(frames);
}

/// What recovery reconstructed from a [`Storage`].
#[derive(Debug, Default)]
pub struct Recovered {
    /// Every durable record, snapshot first then log tail, deduplicated
    /// by job id (first store wins — the same at-least-once rule the
    /// live path applies).
    pub records: Vec<WalRecord>,
    /// Records contributed by the snapshot image.
    pub snapshot_records: usize,
    /// Records contributed by the log tail (also the live machine's
    /// "records since last snapshot" counter after recovery).
    pub wal_records: usize,
    /// Bytes of the snapshot image past its last whole record (the whole
    /// image when its header is bad).
    pub snapshot_torn: usize,
    /// Bytes of the durable log past its last whole record. Frames
    /// appended behind such a tail would be invisible to the next
    /// recovery, so whoever keeps writing must drop it first.
    pub wal_torn: usize,
}

/// Replays `storage`: snapshot image first, then the durable log tail,
/// keeping the first record per job. Corrupt or truncated tails are
/// ignored; the result is exactly the durable prefix.
pub fn recover(storage: &dyn Storage) -> Recovered {
    let mut out = Recovered::default();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let snapshot = storage.read_snapshot();
    // A missing or corrupt header yields no records, never a panic.
    let (image, whole) = match snapshot.strip_prefix(&SNAPSHOT_MAGIC) {
        Some(frames) => {
            let (records, end) = decode_records(frames);
            (records, SNAPSHOT_MAGIC.len() + end)
        }
        None => (Vec::new(), 0),
    };
    out.snapshot_torn = snapshot.len() - whole;
    for rec in image {
        if seen.insert(rec.job) {
            out.records.push(rec);
            out.snapshot_records += 1;
        }
    }
    let wal = storage.read_wal();
    let (tail, whole) = decode_records(&wal);
    out.wal_torn = wal.len() - whole;
    for rec in tail {
        out.wal_records += 1;
        if seen.insert(rec.job) {
            out.records.push(rec);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(i: u64) -> PriceObservation {
        PriceObservation {
            vantage: VantageKind::Ipc,
            vantage_id: i,
            country: Country::ES,
            city: i.is_multiple_of(2).then(|| format!("city-{i}")),
            ip: IpV4(i as u32),
            raw_text: format!("EUR {i}.99"),
            currency: "EUR".into(),
            amount: i as f64 + 0.99,
            amount_eur: i as f64 + 0.99,
            low_confidence: false,
            failed: i % 7 == 3,
        }
    }

    fn check(job: u64, n: usize) -> PriceCheck {
        PriceCheck {
            job_id: job,
            domain: "amazon.com".into(),
            url: format!("/p/{job}"),
            day: 3,
            observations: (0..n as u64).map(obs).collect(),
        }
    }

    #[test]
    fn record_roundtrip_is_exact() {
        let c = check(7, 5);
        let bytes = encode_record(1234, 7, &c);
        let (records, consumed) = decode_records(&bytes);
        assert_eq!(consumed, bytes.len());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].vt_ms, 1234);
        assert_eq!(records[0].job, 7);
        assert_eq!(records[0].check, c);
    }

    #[test]
    fn encoding_is_deterministic() {
        let c = check(9, 8);
        assert_eq!(encode_record(55, 9, &c), encode_record(55, 9, &c));
    }

    #[test]
    fn truncated_tail_yields_the_prefix() {
        let mut bytes = encode_record(1, 1, &check(1, 3));
        let first = bytes.len();
        bytes.extend_from_slice(&encode_record(2, 2, &check(2, 3)));
        for cut in first..bytes.len() {
            let (records, consumed) = decode_records(&bytes[..cut]);
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert_eq!(consumed, first, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_ends_the_stream_at_the_previous_boundary() {
        let mut bytes = encode_record(1, 1, &check(1, 2));
        let first = bytes.len();
        bytes.extend_from_slice(&encode_record(2, 2, &check(2, 2)));
        for flip in first..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[flip] ^= 0xFF;
            let (records, _) = decode_records(&corrupt);
            assert_eq!(records.len(), 1, "flip at {flip}");
            assert_eq!(records[0].job, 1);
        }
    }

    #[test]
    fn boundaries_cover_every_record() {
        let mut bytes = Vec::new();
        for j in 0..4 {
            bytes.extend_from_slice(&encode_record(j, j, &check(j, 2)));
        }
        let bounds = record_boundaries(&bytes);
        assert_eq!(bounds.len(), 5);
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().unwrap(), bytes.len());
        for (i, &b) in bounds.iter().enumerate() {
            assert_eq!(decode_records(&bytes[..b]).0.len(), i);
        }
    }

    #[test]
    fn snapshot_roundtrip_and_corrupt_header() {
        let records: Vec<WalRecord> = (0..3)
            .map(|j| WalRecord {
                vt_ms: 10 * j,
                job: j,
                check: check(j, 2),
            })
            .collect();
        let img = encode_snapshot(&records);
        let from = |image: &[u8]| recover(&MemStorage::with_contents(image.to_vec(), Vec::new()));
        let whole = from(&img);
        assert_eq!((whole.records, whole.snapshot_torn), (records, 0));
        let junk = from(b"junk");
        assert_eq!((junk.records, junk.snapshot_torn), (Vec::new(), 4));
        assert!(from(&[]).records.is_empty());
    }

    #[test]
    fn mem_storage_loses_exactly_the_unflushed_tail() {
        let mut s = MemStorage::new();
        s.append_wal(b"abc");
        s.barrier();
        s.append_wal(b"defg");
        assert_eq!(s.wal_len(), (3, 7));
        assert_eq!(s.lose_unflushed(), 4);
        assert_eq!(s.read_wal(), b"abc");
        s.install_snapshot(b"img");
        assert_eq!(s.read_snapshot(), b"img");
        assert_eq!(s.wal_len(), (0, 0));
    }

    #[test]
    fn recover_dedups_by_job_keeping_the_first_store() {
        let snap = encode_snapshot(&[WalRecord {
            vt_ms: 5,
            job: 1,
            check: check(1, 2),
        }]);
        let mut wal = encode_record(9, 1, &check(1, 5)); // redelivered job 1
        wal.extend_from_slice(&encode_record(11, 2, &check(2, 1)));
        let storage = MemStorage::with_contents(snap, wal);
        let rec = recover(&storage);
        assert_eq!(rec.snapshot_records, 1);
        assert_eq!(rec.wal_records, 2);
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[0].check.observations.len(), 2, "first wins");
    }
}
