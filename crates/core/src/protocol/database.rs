//! Database-server role (v2): store assembled checks *durably* under a
//! modeled concurrency-sensitive cost, then ack.
//!
//! Write discipline (see `durability` module docs and DESIGN.md):
//! **WAL-then-store, flush-before-ack.** A `StoreCheck` appends one
//! [`crate::durability::WalRecord`] (volatile until a barrier) and
//! enters the in-memory table; the `DbDone` timer that models the
//! query's I/O cost begins a durability barrier and acks. Every ack
//! queues, in send order, behind the newest barrier at its sending, and
//! leaves once [`DbProto::on_durable`] finds that barrier durable, so an
//! acknowledged store is always on disk. The DES's in-memory storage
//! completes a ticket at hand-off, so its acks leave at once. Every
//! `snapshot_every` records the log is folded into the snapshot and
//! truncated, with the compaction I/O charged to the triggering query;
//! a WAL record is already an image frame, so nothing is re-encoded.
//!
//! Crash recovery ([`DbProto::on_restart`]): volatile state — the
//! memory table, in-flight queries, queued acks, the reliable channel's
//! windows — is gone; the un-barriered WAL tail is discarded
//! deterministically; the snapshot plus the surviving log tail are
//! replayed. Nobody here remembers whom a torn store was owed to, so the
//! *requester* closes that window: a Measurement server sends its
//! `StoreCheck` again every job deadline until the `DbAck` arrives. The
//! rebuilt stored-job set makes that redelivery idempotent: a
//! `StoreCheck` for a job that survived is re-acked without a second
//! store (the per-job analogue of the measurement tier's per-`(kind,
//! id)` vantage dedup), one whose record was torn off with the tail is
//! simply stored again, and one still waiting for its `DbDone` is
//! absorbed without an ack — that timer sends the only one.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::coordinator::JobId;
use crate::db::{Database, DbCostModel};
use crate::durability::{self, MemStorage, Storage};
use crate::protocol::digest::Digest;
use crate::protocol::{Address, Output, ProtoMsg, TimerKind};

/// Snapshot cadence when none is configured: fold the log every this
/// many records.
pub const DEFAULT_SNAPSHOT_EVERY: usize = 64;

/// Observable outcomes for the driver's telemetry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DbEvent {
    /// A store query was accepted and scheduled.
    QueryScheduled {
        /// Modeled cost of this store, ms.
        cost_ms: u64,
        /// Queries in flight (including this one).
        active: u32,
    },
    /// A store query finished.
    QueryDone {
        /// Queries still in flight.
        active: u32,
    },
    /// One record was appended to the write-ahead log.
    WalAppended {
        /// Encoded record size.
        bytes: u64,
    },
    /// The log was folded into the snapshot and truncated.
    SnapshotInstalled {
        /// Records in the snapshot image.
        records: u64,
    },
    /// A redelivered `StoreCheck` for a job already in the log was
    /// absorbed without a second store.
    DuplicateStoreAbsorbed {
        /// The redelivered job.
        job: JobId,
    },
    /// Crash recovery replayed the durable prefix.
    Recovered {
        /// Records reconstructed (snapshot + log tail).
        records: u64,
        /// Un-barriered WAL bytes the crash destroyed.
        lost_wal_bytes: u64,
    },
}

/// The dedicated Database server as a sans-IO state machine.
pub struct DbProto {
    /// The in-memory store itself.
    pub database: Database,
    cost: DbCostModel,
    active: u32,
    pending: BTreeMap<JobId, Address>,
    storage: Box<dyn Storage>,
    snapshot_every: usize,
    /// WAL records appended since the last snapshot install.
    since_snapshot: usize,
    /// Jobs with a record in the WAL or snapshot — the at-least-once
    /// dedup set, rebuilt on recovery.
    stored_jobs: BTreeSet<JobId>,
    /// The newest barrier ticket this machine began.
    ticket: u64,
    /// Acks not yet sent, in send order: the ticket each waits for, its
    /// requester, its job.
    held: VecDeque<(u64, Address, JobId)>,
}

#[deny(clippy::wildcard_enum_match_arm)]
impl DbProto {
    /// A fresh database under `cost`, backed by in-memory storage (the
    /// DES default) at the default snapshot cadence.
    pub fn new(cost: DbCostModel) -> Self {
        Self::with_storage(cost, Box::new(MemStorage::new()), DEFAULT_SNAPSHOT_EVERY)
    }

    /// A database over an explicit [`Storage`] backend. Any durable
    /// contents are recovered immediately, so constructing over a
    /// previous incarnation's files resumes its store.
    pub fn with_storage(
        cost: DbCostModel,
        storage: Box<dyn Storage>,
        snapshot_every: usize,
    ) -> Self {
        let mut proto = DbProto {
            database: Database::new(),
            cost,
            active: 0,
            pending: BTreeMap::new(),
            storage,
            snapshot_every: snapshot_every.max(1),
            since_snapshot: 0,
            stored_jobs: BTreeSet::new(),
            ticket: 0,
            held: VecDeque::new(),
        };
        proto.replay();
        proto
    }

    /// Rebuilds volatile state from the durable prefix. Returns the
    /// number of records replayed.
    fn replay(&mut self) -> u64 {
        let recovered = durability::recover(self.storage.as_ref());
        self.since_snapshot = recovered.wal_records;
        for rec in recovered.records {
            if self.stored_jobs.insert(JobId(rec.job)) {
                self.database.store(rec.check);
            }
        }
        // A region ending in a torn frame (a write the dying process raced)
        // must not be appended to: the next recovery would stop at that
        // frame and lose what is behind it. Install what is whole instead.
        if recovered.snapshot_torn + recovered.wal_torn > 0 {
            let mut image = self.storage.read_snapshot();
            image.truncate(image.len().saturating_sub(recovered.snapshot_torn));
            let log = self.storage.read_wal();
            let whole = log.len().saturating_sub(recovered.wal_torn);
            durability::extend_image(&mut image, log.get(..whole).unwrap_or_default());
            self.storage.install_snapshot(&image);
            self.since_snapshot = 0;
        }
        self.database.len() as u64
    }

    /// Feeds one delivered message. `now_ms` stamps the WAL record
    /// (virtual time under DES, wall time since the epoch over TCP).
    pub fn on_message(
        &mut self,
        now_ms: u64,
        from: Address,
        msg: ProtoMsg,
        out: &mut Vec<Output>,
        events: &mut Vec<DbEvent>,
    ) {
        let ProtoMsg::StoreCheck { job, check } = msg else {
            return;
        };
        if self.stored_jobs.contains(&job) {
            // Redelivery: never store twice. A job past its `DbDone` is
            // re-acked (the first ack was lost), behind any ack still
            // waiting; one still pending is not — its record is appended
            // but unflushed, and the `DbDone` already armed acks it.
            events.push(DbEvent::DuplicateStoreAbsorbed { job });
            if !self.pending.contains_key(&job) {
                self.ack(from, job, out);
            }
            return;
        }
        self.active += 1;
        let rows = check.observations.len();
        let record = durability::encode_record(now_ms, job.0, &check);
        self.storage.append_wal(&record);
        self.since_snapshot += 1;
        // The whole durable write is charged to this query: table write
        // under pool queueing, sequential log append, the pre-ack
        // barrier, and — when this record trips the cadence — folding
        // the table into a snapshot.
        let mut cost = self.cost.store_cost_ms(rows, self.active)
            + self.cost.wal_cost_ms(rows)
            + self.cost.barrier_cost_ms();
        if self.since_snapshot >= self.snapshot_every {
            cost += self.cost.compaction_cost_ms(self.database.len() + 1);
        }
        self.database.store(*check);
        self.stored_jobs.insert(job);
        self.pending.insert(job, from);
        events.push(DbEvent::WalAppended {
            bytes: record.len() as u64,
        });
        events.push(DbEvent::QueryScheduled {
            cost_ms: cost,
            active: self.active,
        });
        out.push(Output::Timer {
            delay_ms: cost,
            kind: TimerKind::DbDone(job),
        });
    }

    /// Feeds one fired timer.
    pub fn on_timer(&mut self, kind: TimerKind, out: &mut Vec<Output>, events: &mut Vec<DbEvent>) {
        let job = match kind {
            TimerKind::DbDone(job) => job,
            // Armed by other roles, or by the channel.
            TimerKind::JobDeadline(_)
            | TimerKind::ProcDone(_)
            | TimerKind::Heartbeat
            | TimerKind::Retransmit(_)
            | TimerKind::CoordSweep
            | TimerKind::Quarantine(_)
            | TimerKind::Parole(_) => return,
        };
        self.active = self.active.saturating_sub(1);
        events.push(DbEvent::QueryDone {
            active: self.active,
        });
        // A timer deferred across a crash finds its store gone with the
        // rest of the volatile state: nobody to ack. The requester's job
        // deadline sends the check again.
        let Some(requester) = self.pending.remove(&job) else {
            return;
        };
        // Flush-before-ack: hand everything appended so far to the
        // storage's group commit, then (at the cadence) fold the log into
        // the snapshot — both already charged into this query's cost at
        // schedule time. The ack leaves once the ticket is durable.
        // Both regions are whole here: images are installed atomically,
        // `replay` dropped any torn tail it found, and every append since
        // was one whole frame, now handed off.
        self.ticket = self.storage.begin_barrier();
        if self.since_snapshot >= self.snapshot_every {
            // Waits for the flush to land, so the fold takes every record.
            let log = self.storage.read_wal();
            self.storage.extend_snapshot(&log);
            self.since_snapshot = 0;
            events.push(DbEvent::SnapshotInstalled {
                records: self.database.len() as u64,
            });
        }
        self.ack(requester, job, out);
    }

    /// Acks `job` to `to` behind the newest barrier and every earlier ack.
    fn ack(&mut self, to: Address, job: JobId, out: &mut Vec<Output>) {
        self.held.push_back((self.ticket, to, job));
        self.on_durable(out);
    }

    /// Host input: the storage may report more of the log durable. Sends,
    /// in order, every held ack its durable ticket now covers.
    pub fn on_durable(&mut self, out: &mut Vec<Output>) {
        let durable = self.storage.durable_ticket();
        while let Some((_, to, job)) = self.held.pop_front_if(|(t, ..)| *t <= durable) {
            out.push(Output::send(to, ProtoMsg::DbAck { job }));
        }
    }

    /// Acks waiting for their barrier to become durable.
    pub fn held_acks(&self) -> usize {
        self.held.len()
    }

    /// Crash recovery: the process restarted. Volatile state (memory
    /// table, in-flight queries, held acks) is gone, the un-barriered WAL
    /// tail is discarded deterministically, and the durable prefix is
    /// replayed.
    pub fn on_restart(&mut self, events: &mut Vec<DbEvent>) {
        let lost = self.storage.lose_unflushed();
        self.active = 0;
        self.pending.clear();
        self.held.clear();
        self.database = Database::new();
        self.stored_jobs.clear();
        self.since_snapshot = 0;
        let records = self.replay();
        events.push(DbEvent::Recovered {
            records,
            lost_wal_bytes: lost as u64,
        });
    }

    /// The durable (barrier-flushed) WAL bytes — what a crash right now
    /// would preserve. Deterministic per seed under DES.
    pub fn wal_bytes(&self) -> Vec<u8> {
        self.storage.read_wal()
    }

    /// The durable snapshot image (empty before the first compaction).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.storage.read_snapshot()
    }

    /// Jobs with a durable (or at least appended) record.
    pub fn stored_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.stored_jobs.iter().copied()
    }

    /// Jobs accepted but not yet acked — each pins a [`TimerKind::DbDone`]
    /// obligation. The model checker's quiescence invariant requires
    /// this to drain once no events remain.
    pub fn pending_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.pending.keys().copied()
    }

    /// Folds the machine's logical state into `d` for model-checker
    /// state canonicalization. The storage is the host's to fold: its
    /// reads may wait for a flush, and its WAL records carry absolute
    /// time stamps. Dedup and recovery consult `stored_jobs` and the
    /// record count, never the stamps, so those stand in for the log.
    pub fn state_digest(&self, d: &mut Digest) {
        d.write_u64(u64::from(self.active));
        d.write_u64(self.pending.len() as u64);
        for (job, requester) in &self.pending {
            d.write_u64(job.0);
            requester.fold_digest(d);
        }
        d.write_u64(self.stored_jobs.len() as u64);
        for job in &self.stored_jobs {
            d.write_u64(job.0);
        }
        d.write_u64(self.since_snapshot as u64);
        d.write_u64(self.database.len() as u64);
        d.write_u64(self.held.len() as u64);
        for (_, requester, job) in &self.held {
            d.write_u64(job.0);
            requester.fold_digest(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{PriceCheck, PriceObservation, VantageKind};
    use sheriff_geo::{Country, IpV4};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn check(job: u64, n: usize) -> PriceCheck {
        PriceCheck {
            job_id: job,
            domain: "amazon.com".into(),
            url: format!("/p/{job}"),
            day: 0,
            observations: (0..n as u64)
                .map(|i| PriceObservation {
                    vantage: VantageKind::Ipc,
                    vantage_id: i,
                    country: Country::ES,
                    city: None,
                    ip: IpV4(i as u32),
                    raw_text: "EUR 1.00".into(),
                    currency: "EUR".into(),
                    amount: 1.0,
                    amount_eur: 1.0,
                    low_confidence: false,
                    failed: false,
                })
                .collect(),
        }
    }

    fn server() -> Address {
        Address::Server { index: 0 }
    }

    fn store(proto: &mut DbProto, now: u64, job: u64, rows: usize) -> Vec<Output> {
        let (mut out, mut events) = (Vec::new(), Vec::new());
        proto.on_message(
            now,
            server(),
            ProtoMsg::StoreCheck {
                job: JobId(job),
                check: Box::new(check(job, rows)),
            },
            &mut out,
            &mut events,
        );
        out
    }

    fn finish(proto: &mut DbProto, job: u64) -> (Vec<Output>, Vec<DbEvent>) {
        let (mut out, mut events) = (Vec::new(), Vec::new());
        proto.on_timer(TimerKind::DbDone(JobId(job)), &mut out, &mut events);
        (out, events)
    }

    #[test]
    fn ack_only_after_barrier_makes_the_record_durable() {
        let mut proto = DbProto::new(DbCostModel::dedicated());
        store(&mut proto, 100, 1, 3);
        // Appended but not yet barriered: a crash now loses it.
        assert!(proto.wal_bytes().is_empty(), "unflushed tail is volatile");
        let (out, _) = finish(&mut proto, 1);
        assert!(out
            .iter()
            .any(|o| matches!(o, Output::Send { msg: ProtoMsg::DbAck { job }, .. } if job.0 == 1)));
        assert!(!proto.wal_bytes().is_empty(), "ack implies durable");
        assert_eq!(
            proto.held_acks(),
            0,
            "in-memory storage completes its ticket at once: the ack left in the same step"
        );
    }

    #[test]
    fn duplicate_store_is_reacked_not_restored() {
        let mut proto = DbProto::new(DbCostModel::dedicated());
        store(&mut proto, 100, 1, 3);
        finish(&mut proto, 1);
        let out = store(&mut proto, 200, 1, 3);
        assert_eq!(proto.database.len(), 1, "no double store");
        assert!(
            out.iter().any(
                |o| matches!(o, Output::Send { msg: ProtoMsg::DbAck { job }, .. } if job.0 == 1)
            ),
            "redelivery is re-acked immediately"
        );
        assert!(
            !out.iter().any(|o| matches!(o, Output::Timer { .. })),
            "no query is scheduled for a duplicate"
        );
    }

    #[test]
    fn restart_recovers_exactly_the_durable_prefix() {
        let mut proto = DbProto::new(DbCostModel::dedicated());
        store(&mut proto, 100, 1, 3);
        finish(&mut proto, 1); // durable
        store(&mut proto, 200, 2, 4); // appended, never barriered
        let mut events = Vec::new();
        proto.on_restart(&mut events);
        assert_eq!(proto.database.len(), 1, "torn tail is discarded");
        assert_eq!(proto.database.checks()[0].job_id, 1);
        assert!(events.iter().any(|e| matches!(
            e,
            DbEvent::Recovered {
                records: 1,
                lost_wal_bytes
            } if *lost_wal_bytes > 0
        )));
        // The lost job can be redelivered and stored normally.
        store(&mut proto, 300, 2, 4);
        finish(&mut proto, 2);
        assert_eq!(proto.database.len(), 2);
    }

    #[test]
    fn snapshot_cadence_folds_the_log() {
        let mut proto =
            DbProto::with_storage(DbCostModel::dedicated(), Box::new(MemStorage::new()), 2);
        for job in 1..=4 {
            store(&mut proto, job * 100, job, 2);
            finish(&mut proto, job);
        }
        assert!(!proto.snapshot_bytes().is_empty(), "cadence installed one");
        assert!(
            proto.wal_bytes().is_empty(),
            "log truncated at the last fold"
        );
        let mut events = Vec::new();
        proto.on_restart(&mut events);
        assert_eq!(proto.database.len(), 4, "snapshot + tail replay");
    }

    #[test]
    fn deferred_done_timer_for_a_torn_record_acks_nobody() {
        let mut proto = DbProto::new(DbCostModel::dedicated());
        store(&mut proto, 100, 1, 3);
        let mut events = Vec::new();
        proto.on_restart(&mut events); // crash before the DbDone fired
        let (out, _) = finish(&mut proto, 1); // the deferred timer arrives late
        assert!(out.is_empty(), "no ack for a store the crash destroyed");
        assert!(proto.database.is_empty());
    }

    fn acks(out: &[Output]) -> usize {
        out.iter()
            .filter(
                |o| matches!(o, Output::Send { msg: ProtoMsg::DbAck { job }, .. } if job.0 == 1),
            )
            .count()
    }

    #[test]
    fn resent_store_is_never_acked_ahead_of_its_barrier() {
        let mut proto = DbProto::new(DbCostModel::dedicated());
        store(&mut proto, 100, 1, 3);
        // The requester's deadline re-sends while the first copy still
        // waits for its barrier: absorbed, and not acknowledged.
        let out = store(&mut proto, 150, 1, 3);
        assert!(out.is_empty(), "no ack, no second query: {out:?}");
        assert_eq!(proto.pending_jobs().count(), 1);
        assert!(proto.wal_bytes().is_empty(), "still unflushed");
        let (out, _) = finish(&mut proto, 1);
        assert_eq!(acks(&out), 1, "the one ack follows the barrier");
        assert_eq!(proto.database.len(), 1);

        // Durable and no longer pending — also after a crash rebuilt the
        // set from the log: a further copy is re-acked at once.
        proto.on_restart(&mut Vec::new());
        let (mut out, mut events) = (Vec::new(), Vec::new());
        proto.on_message(
            300,
            server(),
            ProtoMsg::StoreCheck {
                job: JobId(1),
                check: Box::new(check(1, 3)),
            },
            &mut out,
            &mut events,
        );
        assert_eq!(events, [DbEvent::DuplicateStoreAbsorbed { job: JobId(1) }]);
        assert_eq!(acks(&out), 1);
        assert_eq!(out.len(), 1, "no query is scheduled for a duplicate");
        assert_eq!(proto.database.len(), 1);
    }

    /// In-memory storage whose flush lags its hand-off: a ticket is
    /// durable once the test says so through the shared counter.
    struct Lagging {
        inner: MemStorage,
        durable: Arc<AtomicU64>,
    }

    impl Storage for Lagging {
        fn read_snapshot(&self) -> Vec<u8> {
            self.inner.read_snapshot()
        }
        fn read_wal(&self) -> Vec<u8> {
            self.inner.read_wal()
        }
        fn append_wal(&mut self, bytes: &[u8]) {
            self.inner.append_wal(bytes);
        }
        fn begin_barrier(&mut self) -> u64 {
            self.inner.begin_barrier()
        }
        fn durable_ticket(&self) -> u64 {
            let flushed = self.durable.load(Ordering::Relaxed);
            flushed.min(self.inner.durable_ticket())
        }
        fn install_snapshot(&mut self, bytes: &[u8]) {
            self.inner.install_snapshot(bytes);
        }
        fn lose_unflushed(&mut self) -> usize {
            self.inner.lose_unflushed()
        }
    }

    fn lagging() -> (DbProto, Arc<AtomicU64>) {
        let durable = Arc::new(AtomicU64::new(0));
        let storage = Lagging {
            inner: MemStorage::new(),
            durable: Arc::clone(&durable),
        };
        let proto = DbProto::with_storage(
            DbCostModel::dedicated(),
            Box::new(storage),
            DEFAULT_SNAPSHOT_EVERY,
        );
        (proto, durable)
    }

    /// The jobs of the `DbAck`s in `out`, in order.
    fn acked(out: &[Output]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                Output::Send {
                    msg: ProtoMsg::DbAck { job },
                    ..
                } => Some(job.0),
                _ => None,
            })
            .collect()
    }

    fn durable(proto: &mut DbProto) -> Vec<u64> {
        let mut out = Vec::new();
        proto.on_durable(&mut out);
        acked(&out)
    }

    #[test]
    fn ack_is_held_until_its_ticket_is_durable() {
        let (mut proto, flushed) = lagging();
        store(&mut proto, 100, 1, 3);
        let (out, _) = finish(&mut proto, 1);
        assert!(acked(&out).is_empty(), "no ack ahead of the flush");
        assert_eq!(proto.held_acks(), 1);
        assert!(durable(&mut proto).is_empty(), "still not durable");
        flushed.store(1, Ordering::Relaxed);
        assert_eq!(durable(&mut proto), [1]);
        assert_eq!(proto.held_acks(), 0);
    }

    #[test]
    fn reack_of_a_duplicate_waits_behind_a_held_ack() {
        let (mut proto, flushed) = lagging();
        store(&mut proto, 100, 1, 3);
        finish(&mut proto, 1);
        flushed.store(1, Ordering::Relaxed);
        assert_eq!(durable(&mut proto), [1]);
        store(&mut proto, 200, 2, 3);
        finish(&mut proto, 2);
        // Job 1 is durable, but an ack sent now would overtake job 2's.
        let out = store(&mut proto, 300, 1, 3);
        assert!(acked(&out).is_empty(), "the re-ack waits its turn");
        assert_eq!(proto.held_acks(), 2);
        flushed.store(2, Ordering::Relaxed);
        assert_eq!(durable(&mut proto), [2, 1]);
    }

    #[test]
    fn held_acks_leave_in_send_order() {
        let (mut proto, flushed) = lagging();
        for job in 1..=3 {
            store(&mut proto, job * 100, job, 2);
            finish(&mut proto, job);
        }
        assert_eq!(proto.held_acks(), 3);
        flushed.store(2, Ordering::Relaxed);
        assert_eq!(
            durable(&mut proto),
            [1, 2],
            "what ticket 2 covers, in order"
        );
        flushed.store(3, Ordering::Relaxed);
        assert_eq!(durable(&mut proto), [3]);
    }

    #[test]
    fn restart_drops_the_held_acks() {
        let (mut proto, flushed) = lagging();
        store(&mut proto, 100, 1, 3);
        finish(&mut proto, 1);
        assert_eq!(proto.held_acks(), 1);
        proto.on_restart(&mut Vec::new());
        assert_eq!(proto.held_acks(), 0, "volatile: gone with the process");
        flushed.store(1, Ordering::Relaxed);
        assert!(durable(&mut proto).is_empty(), "nothing left to release");
        // The record was handed off, so it survived; the requester's
        // re-send is re-acked, and the flush has landed.
        assert_eq!(proto.database.len(), 1);
        assert_eq!(acked(&store(&mut proto, 200, 1, 3)), [1]);
    }
}
