//! File-backed [`Storage`] for the Database node's durability layer.
//!
//! The DES runs [`sheriff_core::durability::MemStorage`]; the TCP
//! mini-deployment backs the same `DbProto` with real files so a crash
//! window followed by a restart exercises genuine read-back-from-disk
//! recovery.
//!
//! **One flush path.** `append_wal` only buffers in memory.
//! [`Storage::begin_barrier`] hands the buffer to the store's one flusher
//! thread and returns a ticket. The flusher takes every hand-off queued
//! when it wakes as one batch, writes it through its one append handle
//! on `wal.bin` and `sync_all`s it — a group commit — then publishes the
//! batch's newest ticket ([`Storage::durable_ticket`]) and rings whoever
//! asked to be told (`FlushHandle::ring_with`): the Database's shard,
//! whose sweep then hands the Database node `RoleNode::on_durable`, and
//! `DbProto` sends the acks that ticket covers. [`FileStorage::barrier`]
//! is `begin_barrier` plus a wait for that ticket, on the same path.
//! Reads and snapshot folds first wait for the flusher to go idle, so
//! they see every byte it could make durable. Dropping the store joins
//! the flusher: every handed-off byte is on disk (or failed) before the
//! directory can be reopened.
//!
//! **Crashes.** [`Storage::lose_unflushed`] discards only the bytes never
//! handed off. Bytes the flusher holds are the disk's now, as they would
//! be once a `write` had returned; what a crash may destroy is therefore
//! what a barrier has not yet begun to cover, and no acknowledgement was
//! ever promised for that.
//!
//! **Failures.** I/O errors are counted, not propagated: the protocol
//! layer is panic-free and has no error channel. A failed flush leaves
//! the durable ticket where it was, so no acknowledgement held behind it
//! leaves. The flusher drops its handle and keeps the batch; with the
//! next hand-off it reopens `wal.bin`, cuts it back to its durable length
//! — a partial write left in place would be a torn frame that hides every
//! record written behind it from recovery — and writes the batch again
//! with the new bytes behind it.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use sheriff_core::durability::{Storage, SNAPSHOT_MAGIC};
use sheriff_telemetry::{Counter, Registry};

use crate::leaf::LeafLock;

/// Snapshot file name inside the storage directory.
const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Write-ahead-log file name inside the storage directory.
const WAL_FILE: &str = "wal.bin";

/// Durable storage rooted at a directory holding `snapshot.bin` and
/// `wal.bin`. Opening an existing directory resumes its contents, which
/// is how a restarted Database worker recovers.
pub struct FileStorage {
    dir: PathBuf,
    /// Appends not yet handed to the flusher — volatile, like the
    /// process's own buffers.
    unflushed: Vec<u8>,
    /// The newest ticket handed off.
    ticket: u64,
    flusher: FlushHandle,
    thread: Option<JoinHandle<()>>,
}

/// What the flusher and the store's owner share.
struct Shared {
    /// Notified on every hand-off and every finished flush: the flusher
    /// waits here for work, and `barrier`/reads wait here for progress.
    /// Leaf: its guard moves bytes and flags (and bumps atomic counters);
    /// the file I/O and the ring both run after it is released.
    state: LeafLock<FlushState>,
    /// The newest ticket whose bytes are durable. Written under `state`,
    /// read without it.
    durable: AtomicU64,
    /// Called after each flush that made a ticket durable.
    ring: OnceLock<Box<dyn Fn() + Send + Sync>>,
    /// `wire.storage.flushes`: one per `sync_all` of the WAL.
    flushes: Arc<Counter>,
    /// `wire.storage.io_errors`: I/O errors swallowed (disk full,
    /// permissions, …).
    io_errors: Arc<Counter>,
}

#[derive(Default)]
struct FlushState {
    /// Handed off, not yet durable.
    queued: Vec<u8>,
    /// The ticket covering every byte in `queued`.
    queued_ticket: u64,
    /// Bytes of `wal.bin` that are durable.
    durable_len: u64,
    /// The flusher is writing a batch it took from `queued`.
    writing: bool,
    /// `queued` starts with a batch whose flush failed; it is retried
    /// with the next hand-off, not before.
    stalled: bool,
    /// The newest ticket whose flush failed.
    failed_ticket: u64,
    /// Test latch: the flusher takes no batch while set.
    paused: bool,
    /// The store is being dropped: flush what is queued, then exit.
    stop: bool,
}

impl FlushState {
    /// The flusher is not writing and has nothing it may take.
    fn idle(&self) -> bool {
        !self.writing && (self.queued.is_empty() || self.stalled)
    }
}

/// A handle on a [`FileStorage`]'s flusher that outlives the store being
/// boxed behind `dyn Storage`.
#[derive(Clone)]
pub(crate) struct FlushHandle(Arc<Shared>);

impl FlushHandle {
    /// Calls `ring` after every flush that makes a ticket durable — the
    /// cue to tell the store's owner. The first call wins.
    pub(crate) fn ring_with(&self, ring: impl Fn() + Send + Sync + 'static) {
        let _ = self.0.ring.set(Box::new(ring));
    }

    /// Stops the flusher between batches until the returned latch drops,
    /// so a test can hold a barrier open (a failing test resumes it too).
    #[cfg(test)]
    pub(crate) fn pause(&self) -> Paused {
        self.0.state.with(|st| st.paused = true);
        Paused(self.clone())
    }

    /// Waits until the flusher is idle; returns the durable length of
    /// `wal.bin`.
    fn settle(&self) -> u64 {
        self.0.state.wait(|st| st.idle().then_some(st.durable_len))
    }
}

/// A paused flusher; dropping this resumes it.
#[cfg(test)]
pub(crate) struct Paused(FlushHandle);

#[cfg(test)]
impl Drop for Paused {
    fn drop(&mut self) {
        let state = &self.0 .0.state;
        state.with(|st| st.paused = false);
        state.notify_all();
    }
}

impl FileStorage {
    /// Opens (creating if needed) a storage directory. Pre-existing
    /// snapshot/WAL files are kept: recovery reads them back.
    pub fn open(dir: &Path) -> Self {
        Self::open_counted(dir, Arc::default(), Arc::default())
    }

    /// Like [`FileStorage::open`], counting into `registry`'s
    /// `wire.storage.flushes` and `wire.storage.io_errors`.
    pub(crate) fn open_published(dir: &Path, registry: &Registry) -> Self {
        Self::open_counted(
            dir,
            registry.counter("wire.storage.flushes"),
            registry.counter("wire.storage.io_errors"),
        )
    }

    #[expect(clippy::expect_used, reason = "without a flusher no byte is durable")]
    fn open_counted(dir: &Path, flushes: Arc<Counter>, io_errors: Arc<Counter>) -> Self {
        if fs::create_dir_all(dir).is_err() {
            io_errors.inc();
        }
        let wal = dir.join(WAL_FILE);
        let state = FlushState {
            durable_len: fs::metadata(&wal).map_or(0, |m| m.len()),
            ..FlushState::default()
        };
        let flusher = FlushHandle(Arc::new(Shared {
            state: LeafLock::new(state),
            durable: AtomicU64::new(0),
            ring: OnceLock::new(),
            flushes,
            io_errors,
        }));
        let handle = flusher.clone();
        let thread = std::thread::Builder::new()
            .name("wal-flusher".into())
            .spawn(move || run_flusher(&handle, &wal))
            .expect("the WAL flusher thread starts");
        FileStorage {
            dir: dir.to_path_buf(),
            unflushed: Vec::new(),
            ticket: 0,
            flusher,
            thread: Some(thread),
        }
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// I/O errors swallowed so far.
    pub fn io_errors(&self) -> u64 {
        self.flusher.0.io_errors.get()
    }

    /// A handle on this store's flusher.
    pub(crate) fn flush_handle(&self) -> FlushHandle {
        self.flusher.clone()
    }

    /// Fsync-equivalent: [`Storage::begin_barrier`], then wait until that
    /// ticket is durable or its flush failed.
    pub fn barrier(&mut self) {
        let ticket = self.begin_barrier();
        let durable = &self.flusher.0.durable;
        self.flusher.0.state.wait(|st| {
            (durable.load(Ordering::Acquire) >= ticket || st.failed_ticket >= ticket).then_some(())
        });
    }

    /// Once the new image is durable (`image` is `Ok`), truncates the WAL.
    /// Called with the flusher idle, and only this thread hands it work,
    /// so nothing writes `wal.bin` meanwhile.
    fn fold_wal(&mut self, image: io::Result<()>) {
        match image.and_then(|()| fs::write(self.wal_path(), b"")) {
            Ok(()) => {
                self.flusher.0.state.with(|st| st.durable_len = 0);
                self.unflushed.clear();
            }
            Err(_) => self.flusher.0.io_errors.inc(),
        }
    }
}

/// The flusher thread: take every queued hand-off as one batch, write
/// and `sync_all` it, publish its ticket, ring; until the store drops.
fn run_flusher(flusher: &FlushHandle, path: &Path) {
    let shared = &flusher.0;
    let mut file: Option<File> = None;
    loop {
        let next = shared.state.wait(|st| {
            let ready = !st.queued.is_empty() && !st.stalled;
            if ready && (st.stop || !st.paused) {
                st.writing = true;
                let batch = std::mem::take(&mut st.queued);
                Some(Some((batch, st.queued_ticket, st.durable_len)))
            } else if st.stop && !ready {
                Some(None)
            } else {
                None
            }
        });
        let Some((mut batch, ticket, durable_len)) = next else {
            return;
        };
        let flushed = append(&mut file, path, durable_len, &batch).is_ok();
        if !flushed {
            // The next open cuts the file back.
            file = None;
        }
        shared.state.with(|st| {
            st.writing = false;
            if flushed {
                st.durable_len += batch.len() as u64;
                shared.durable.store(ticket, Ordering::Release);
                shared.flushes.inc();
            } else {
                shared.io_errors.inc();
                // Hand-offs that came in meanwhile go behind the failed
                // batch and retry it.
                batch.append(&mut st.queued);
                st.queued = batch;
                st.stalled = st.queued_ticket == ticket;
                st.failed_ticket = ticket;
            }
        });
        shared.state.notify_all();
        if flushed {
            if let Some(ring) = shared.ring.get() {
                ring();
            }
        }
    }
}

/// Appends `batch` to the WAL and makes it durable. A handle is opened
/// on first use and after a failure, and each open first cuts the file
/// back to `durable_len`.
fn append(file: &mut Option<File>, path: &Path, durable_len: u64, batch: &[u8]) -> io::Result<()> {
    let f = match file {
        Some(f) => f,
        None => {
            let f = OpenOptions::new().create(true).append(true).open(path)?;
            f.set_len(durable_len)?;
            file.insert(f)
        }
    };
    f.write_all(batch)?;
    f.sync_all()
}

impl Drop for FileStorage {
    fn drop(&mut self) {
        let state = &self.flusher.0.state;
        state.with(|st| st.stop = true);
        state.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Storage for FileStorage {
    fn read_snapshot(&self) -> Vec<u8> {
        fs::read(self.snapshot_path()).unwrap_or_default()
    }

    fn read_wal(&self) -> Vec<u8> {
        let durable_len = self.flusher.settle();
        let mut bytes = fs::read(self.wal_path()).unwrap_or_default();
        // Only the flushed prefix is durable; a failed or raced write may
        // lie past it, and recovery must not see more than a flush made
        // durable.
        bytes.truncate(usize::try_from(durable_len).unwrap_or(usize::MAX));
        bytes
    }

    fn append_wal(&mut self, bytes: &[u8]) {
        self.unflushed.extend_from_slice(bytes);
    }

    fn begin_barrier(&mut self) -> u64 {
        if !self.unflushed.is_empty() {
            self.ticket += 1;
            let state = &self.flusher.0.state;
            state.with(|st| {
                st.queued.append(&mut self.unflushed);
                st.queued_ticket = self.ticket;
                st.stalled = false;
            });
            state.notify_all();
        }
        self.ticket
    }

    fn durable_ticket(&self) -> u64 {
        self.flusher.0.durable.load(Ordering::Acquire)
    }

    fn install_snapshot(&mut self, bytes: &[u8]) {
        self.flusher.settle();
        // Write, fsync, rename: a crash mid-install leaves the previous
        // snapshot intact, and no rename outruns the bytes it names.
        let tmp = self.dir.join("snapshot.tmp");
        let image = fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(bytes)?;
                f.sync_all()
            })
            .and_then(|()| fs::rename(&tmp, self.snapshot_path()));
        self.fold_wal(image);
    }

    fn extend_snapshot(&mut self, frames: &[u8]) {
        self.flusher.settle();
        // Grow the image in place. A crash mid-append leaves a torn tail
        // recovery cuts off, and the WAL still holds those records.
        let image = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.snapshot_path())
            .and_then(|mut f| {
                if f.metadata()?.len() == 0 {
                    f.write_all(&SNAPSHOT_MAGIC)?;
                }
                f.write_all(frames)?;
                f.sync_all()
            });
        self.fold_wal(image);
    }

    fn lose_unflushed(&mut self) -> usize {
        let lost = self.unflushed.len();
        self.unflushed.clear();
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sheriff_core::coordinator::JobId;
    use sheriff_core::db::DbCostModel;
    use sheriff_core::durability::{
        decode_records, encode_record, recover, MemStorage, RECORD_MAGIC,
    };
    use sheriff_core::protocol::{Address, DbProto, ProtoMsg, TimerKind};
    use sheriff_core::records::PriceCheck;

    fn check(job: u64) -> PriceCheck {
        PriceCheck {
            job_id: job,
            domain: "shop.example".into(),
            url: "/p".into(),
            day: 3,
            observations: Vec::new(),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sheriff-storage-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn barrier_makes_appends_durable_across_reopen() {
        let dir = temp_dir("reopen");
        let rec = encode_record(5, 1, &check(1));
        {
            let mut s = FileStorage::open(&dir);
            s.append_wal(&rec);
            s.barrier();
            // A second append left un-barriered must not survive.
            s.append_wal(&encode_record(6, 2, &check(2)));
        }
        let s = FileStorage::open(&dir);
        let (records, consumed) = decode_records(&s.read_wal());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].job, 1);
        assert_eq!(consumed, rec.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lose_unflushed_drops_only_the_buffer() {
        let dir = temp_dir("lose");
        let mut s = FileStorage::open(&dir);
        s.append_wal(&encode_record(1, 1, &check(1)));
        s.barrier();
        let tail = encode_record(2, 2, &check(2));
        s.append_wal(&tail);
        assert_eq!(s.lose_unflushed(), tail.len());
        let rec = recover(&s);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(s.io_errors(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn queued_hand_offs_share_one_flush_and_outlive_a_crash() {
        let dir = temp_dir("group");
        let records: Vec<Vec<u8>> = (1..=3).map(|j| encode_record(j, j, &check(j))).collect();
        {
            let mut s = FileStorage::open(&dir);
            let paused = s.flusher.pause();
            for (ticket, rec) in (1..).zip(&records) {
                s.append_wal(rec);
                assert_eq!(s.begin_barrier(), ticket);
            }
            assert_eq!(
                s.durable_ticket(),
                0,
                "nothing is durable behind a paused flusher"
            );
            // A crash now takes only what was never handed off.
            let tail = encode_record(4, 4, &check(4));
            s.append_wal(&tail);
            assert_eq!(s.lose_unflushed(), tail.len());
            drop(paused);
            s.barrier();
            assert_eq!(s.durable_ticket(), 3);
            assert_eq!(
                s.flusher.0.flushes.get(),
                1,
                "one write + fsync for three barriers"
            );
        }
        let rec = recover(&FileStorage::open(&dir));
        let jobs: Vec<u64> = rec.records.iter().map(|r| r.job).collect();
        assert_eq!(jobs, [1, 2, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The directory is swapped for a plain file — unwritable even for
    /// root, whom permission bits do not stop — and then put back.
    #[test]
    fn failed_flush_keeps_its_ticket_and_retries_with_the_next_hand_off() {
        let dir = temp_dir("fail");
        let away = dir.with_extension("away");
        let _ = fs::remove_dir_all(&away);
        let mut s = FileStorage::open(&dir);
        fs::rename(&dir, &away).expect("move the directory away");
        fs::write(&dir, b"not a directory").expect("block its path");

        let first = encode_record(1, 1, &check(1));
        s.append_wal(&first);
        s.barrier();
        assert_eq!(s.durable_ticket(), 0, "a failed flush completes nothing");
        assert!(s.io_errors() >= 1);
        assert_eq!(
            s.read_wal(),
            Vec::<u8>::new(),
            "reads do not wait on a stalled batch"
        );

        fs::remove_file(&dir).expect("unblock");
        fs::rename(&away, &dir).expect("restore the directory");
        // What a partial write would have left behind the durable length.
        fs::write(dir.join(WAL_FILE), [RECORD_MAGIC, 9, 9]).expect("torn tail");
        let second = encode_record(2, 2, &check(2));
        s.append_wal(&second);
        s.barrier();
        assert_eq!(s.durable_ticket(), 2, "the retry covers both tickets");
        let on_disk = fs::read(dir.join(WAL_FILE)).expect("wal.bin");
        assert_eq!(
            on_disk,
            [first, second].concat(),
            "the torn tail was cut first"
        );
        drop(s);
        assert_eq!(recover(&FileStorage::open(&dir)).records.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_snapshot_truncates_the_wal() {
        let dir = temp_dir("snap");
        let mut s = FileStorage::open(&dir);
        s.append_wal(&encode_record(1, 1, &check(1)));
        s.barrier();
        s.install_snapshot(b"SNP1\x00\x00\x00\x00");
        assert_eq!(s.read_wal(), Vec::<u8>::new());
        assert_eq!(s.read_snapshot(), b"SNP1\x00\x00\x00\x00");
        assert_eq!(s.lose_unflushed(), 0, "nothing left buffered");
        assert_eq!(s.flusher.settle(), 0, "nor queued or on disk");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The Database's whole store path — append, barrier, and a fold of
    /// the WAL into the image every `snapshot_every` records — over 300
    /// stores: the file-backed image must grow to the very bytes the
    /// in-memory one does, and recover to the same records.
    #[test]
    fn appended_image_matches_the_in_memory_one() {
        for snapshot_every in [64, 2] {
            let dir = temp_dir(&format!("extend-{snapshot_every}"));
            let mut on_disk = DbProto::with_storage(
                DbCostModel::dedicated(),
                Box::new(FileStorage::open(&dir)),
                snapshot_every,
            );
            let mut in_memory = DbProto::with_storage(
                DbCostModel::dedicated(),
                Box::new(MemStorage::new()),
                snapshot_every,
            );
            for job in 1..=300 {
                for proto in [&mut on_disk, &mut in_memory] {
                    let (mut out, mut events) = (Vec::new(), Vec::new());
                    let store = ProtoMsg::StoreCheck {
                        job: JobId(job),
                        check: Box::new(check(job)),
                    };
                    let server = Address::Server { index: 0 };
                    proto.on_message(job * 10, server, store, &mut out, &mut events);
                    proto.on_timer(TimerKind::DbDone(JobId(job)), &mut out, &mut events);
                }
            }
            let image = in_memory.snapshot_bytes();
            assert!(image.len() > 4, "every {snapshot_every}: no snapshot taken");
            assert_eq!(on_disk.snapshot_bytes(), image, "every {snapshot_every}");
            assert_eq!(on_disk.wal_bytes(), in_memory.wal_bytes());

            let from_disk = recover(&FileStorage::open(&dir));
            let from_memory = recover(&MemStorage::with_contents(image, in_memory.wal_bytes()));
            assert_eq!(from_disk.records.len(), 300);
            assert_eq!(from_disk.records, from_memory.records);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
