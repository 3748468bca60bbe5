//! The model Database's [`Storage`]: a disk whose flush is an event of
//! its own.
//!
//! `MemStorage` makes a ticket durable the moment it is handed off, so
//! a world running on it never reaches the window in which a record is
//! handed off but not yet on disk — the window `DbProto`'s held acks
//! exist for. [`Disk`] keeps that window open until the world fires
//! [`crate::Event::Flush`], and mirrors `wire::storage::FileStorage`
//! otherwise: a crash loses only what was never handed off, and reads
//! and snapshot folds wait for (here: land) a pending flush, as the
//! file store's do for its flusher.
//!
//! The world keeps a second handle on the same disk: it fires the flush
//! and reads the durable image the durability invariant is checked
//! against, without landing anything.

use std::sync::Arc;

use parking_lot::Mutex;
use sheriff_core::durability::{self, MemStorage, Storage};
use sheriff_core::protocol::Digest;

/// A shared handle on one model disk; see the module docs.
#[derive(Clone)]
pub struct Disk(Arc<Mutex<Media>>);

/// A [`MemStorage`] whose hand-offs reach the disk only when flushed.
struct Media {
    /// Everything written; its "flushed" region is what was handed off.
    mem: MemStorage,
    /// The newest ticket on disk.
    durable: u64,
    /// Bytes of the handed-off WAL on disk.
    durable_len: usize,
    /// The `ack-at-hand-off` defect: report each ticket durable as soon
    /// as it is handed off, bytes or no bytes.
    ack_at_hand_off: bool,
}

impl Media {
    fn land(&mut self) {
        self.durable = self.mem.durable_ticket();
        self.durable_len = self.mem.read_wal().len();
    }
}

impl Disk {
    /// An empty disk; `ack_at_hand_off` seeds the defect.
    pub fn new(ack_at_hand_off: bool) -> Disk {
        Disk(Arc::new(Mutex::new(Media {
            mem: MemStorage::new(),
            durable: 0,
            durable_len: 0,
            ack_at_hand_off,
        })))
    }

    /// Handed-off bytes wait for [`Disk::flush`].
    pub fn flush_pending(&self) -> bool {
        let m = self.0.lock();
        m.mem.durable_ticket() > m.durable
    }

    /// The flush lands: everything handed off is durable.
    pub fn flush(&self) {
        self.0.lock().land();
    }

    /// The jobs a recovery from the disk as it stands would rebuild.
    pub fn durable_jobs(&self) -> Vec<u64> {
        let image = {
            let m = self.0.lock();
            let mut wal = m.mem.read_wal();
            wal.truncate(m.durable_len);
            MemStorage::with_contents(m.mem.read_snapshot(), wal)
        };
        let recovered = durability::recover(&image);
        recovered.records.iter().map(|r| r.job).collect()
    }

    /// Folds what the disk holds: the log as byte counts (its records
    /// carry absolute time stamps) and whether a snapshot exists.
    pub fn state_digest(&self, d: &mut Digest) {
        let m = self.0.lock();
        d.write_bool(m.mem.read_snapshot().is_empty());
        d.write_u64(m.mem.read_wal().len() as u64);
        d.write_u64(m.durable_len as u64);
    }
}

impl Storage for Disk {
    fn read_snapshot(&self) -> Vec<u8> {
        self.0.lock().mem.read_snapshot()
    }

    fn read_wal(&self) -> Vec<u8> {
        let mut m = self.0.lock();
        m.land();
        m.mem.read_wal()
    }

    fn append_wal(&mut self, bytes: &[u8]) {
        self.0.lock().mem.append_wal(bytes);
    }

    fn begin_barrier(&mut self) -> u64 {
        self.0.lock().mem.begin_barrier()
    }

    fn durable_ticket(&self) -> u64 {
        let m = self.0.lock();
        if m.ack_at_hand_off {
            m.mem.durable_ticket()
        } else {
            m.durable
        }
    }

    fn install_snapshot(&mut self, bytes: &[u8]) {
        let mut m = self.0.lock();
        m.mem.install_snapshot(bytes);
        m.land();
    }

    fn extend_snapshot(&mut self, frames: &[u8]) {
        let mut m = self.0.lock();
        m.mem.extend_snapshot(frames);
        m.land();
    }

    fn lose_unflushed(&mut self) -> usize {
        self.0.lock().mem.lose_unflushed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ticket_is_durable_only_once_flushed() {
        let disk = Disk::new(false);
        let mut storage = disk.clone();
        storage.append_wal(b"abc");
        assert_eq!(storage.begin_barrier(), 1);
        assert!(disk.flush_pending());
        assert_eq!(storage.durable_ticket(), 0);
        storage.append_wal(b"de");
        assert_eq!(storage.lose_unflushed(), 2, "only the un-handed tail");
        disk.flush();
        assert_eq!(storage.durable_ticket(), 1);
        assert!(!disk.flush_pending());
        assert_eq!(storage.read_wal(), b"abc");
    }

    #[test]
    fn reads_land_a_pending_flush_and_the_defect_lies_about_it() {
        let honest = Disk::new(false);
        let mut storage = honest.clone();
        storage.append_wal(b"abc");
        storage.begin_barrier();
        assert_eq!(storage.read_wal(), b"abc", "a read waits for the flush");
        assert!(!honest.flush_pending());

        let lying = Disk::new(true);
        let mut storage = lying.clone();
        storage.append_wal(b"abc");
        assert_eq!(storage.begin_barrier(), 1);
        assert_eq!(storage.durable_ticket(), 1, "reported durable at hand-off");
        assert!(lying.flush_pending(), "but nothing is on disk");
    }
}
