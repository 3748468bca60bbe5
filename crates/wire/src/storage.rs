//! File-backed [`Storage`] for the Database node's durability layer.
//!
//! The DES runs [`sheriff_core::durability::MemStorage`]; the TCP
//! mini-deployment backs the same `DbProto` with real files so a crash
//! window followed by a restart exercises genuine read-back-from-disk
//! recovery. The contract mirrors the in-memory store exactly:
//! `append_wal` only buffers in memory, and bytes reach the file (and
//! are fsynced) at [`Storage::barrier`] — so [`Storage::lose_unflushed`]
//! models a crash by discarding the buffer, never touching the file.
//!
//! I/O errors are counted, not propagated: the protocol layer is
//! panic-free and has no error channel, so a failing disk degrades to
//! "nothing became durable", which recovery already tolerates.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use sheriff_core::durability::{Storage, SNAPSHOT_MAGIC};

/// Snapshot file name inside the storage directory.
const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Write-ahead-log file name inside the storage directory.
const WAL_FILE: &str = "wal.bin";

/// Durable storage rooted at a directory holding `snapshot.bin` and
/// `wal.bin`. Opening an existing directory resumes its contents, which
/// is how a restarted Database worker recovers.
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    /// Appends not yet flushed by a barrier — volatile, like page cache.
    unflushed: Vec<u8>,
    /// Bytes of WAL currently durable in `wal.bin`.
    wal_flushed: usize,
    /// I/O errors swallowed (disk full, permissions, ...).
    io_errors: u64,
}

impl FileStorage {
    /// Opens (creating if needed) a storage directory. Pre-existing
    /// snapshot/WAL files are kept: recovery reads them back.
    pub fn open(dir: &Path) -> Self {
        let mut s = FileStorage {
            dir: dir.to_path_buf(),
            unflushed: Vec::new(),
            wal_flushed: 0,
            io_errors: 0,
        };
        if fs::create_dir_all(dir).is_err() {
            s.io_errors += 1;
        }
        s.wal_flushed = fs::metadata(s.wal_path()).map_or(0, |m| m.len() as usize);
        s
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// I/O errors swallowed so far.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// Once the new image is durable (`image` is `Ok`), truncates the WAL.
    fn fold_wal(&mut self, image: io::Result<()>) {
        match image.and_then(|()| fs::write(self.wal_path(), b"")) {
            Ok(()) => {
                self.wal_flushed = 0;
                self.unflushed.clear();
            }
            Err(_) => self.io_errors += 1,
        }
    }
}

impl Storage for FileStorage {
    fn read_snapshot(&self) -> Vec<u8> {
        fs::read(self.snapshot_path()).unwrap_or_default()
    }

    fn read_wal(&self) -> Vec<u8> {
        let mut bytes = fs::read(self.wal_path()).unwrap_or_default();
        // Only the flushed prefix is durable; a dying process may have
        // raced a partial write, and recovery must not see more than a
        // barrier made durable.
        bytes.truncate(self.wal_flushed);
        bytes
    }

    fn append_wal(&mut self, bytes: &[u8]) {
        self.unflushed.extend_from_slice(bytes);
    }

    fn barrier(&mut self) {
        if self.unflushed.is_empty() {
            return;
        }
        let res = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.wal_path())
            .and_then(|mut f| {
                f.write_all(&self.unflushed)?;
                f.sync_all()
            });
        match res {
            Ok(()) => {
                self.wal_flushed += self.unflushed.len();
                self.unflushed.clear();
            }
            Err(_) => self.io_errors += 1,
        }
    }

    fn install_snapshot(&mut self, bytes: &[u8]) {
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

    fn wal_len(&self) -> (usize, usize) {
        (self.wal_flushed, self.unflushed.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sheriff_core::coordinator::JobId;
    use sheriff_core::db::DbCostModel;
    use sheriff_core::durability::{decode_records, encode_record, recover, MemStorage};
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
    fn install_snapshot_truncates_the_wal() {
        let dir = temp_dir("snap");
        let mut s = FileStorage::open(&dir);
        s.append_wal(&encode_record(1, 1, &check(1)));
        s.barrier();
        s.install_snapshot(b"SNP1\x00\x00\x00\x00");
        assert_eq!(s.read_wal(), Vec::<u8>::new());
        assert_eq!(s.read_snapshot(), b"SNP1\x00\x00\x00\x00");
        assert_eq!(s.wal_len(), (0, 0));
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
