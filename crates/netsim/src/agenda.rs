//! The time-ordered work queue both backends schedule on.
//!
//! An [`Agenda`] holds items against a due millisecond and hands them
//! back earliest first; items due in the *same* millisecond come back in
//! the order they were pushed. That tie-break is what makes a run
//! replayable — a restart pushed before a deferred timer fires before
//! it, two messages injected at one instant arrive in injection order —
//! and it is decided here and nowhere else: the [`crate::Simulator`]
//! schedules its events on one agenda (virtual time), each reactor shard
//! of `sheriff-wire` its timers, restarts and fault-delayed sends on
//! another (elapsed real milliseconds).
//!
//! `sheriff-model` keeps its own slot-stable `Vec<Option<TimerEntry>>`
//! on purpose: there a transition is addressed by the slot it fires, and
//! stable slot numbers are what let a counterexample trace be replayed.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

struct Entry<T> {
    at_ms: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at_ms, self.seq) == (other.at_ms, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at_ms, self.seq).cmp(&(other.at_ms, other.seq))
    }
}

/// A queue of `T`s ordered by due millisecond, then by insertion.
///
/// ```
/// use sheriff_netsim::Agenda;
///
/// let mut agenda = Agenda::new();
/// agenda.push(20, "late");
/// agenda.push(10, "first at 10");
/// agenda.push(10, "second at 10");
/// assert_eq!(agenda.next_due(), Some(10));
/// assert_eq!(agenda.pop_due(10), Some((10, "first at 10")));
/// assert_eq!(agenda.pop_due(10), Some((10, "second at 10")));
/// assert_eq!(agenda.pop_due(10), None); // "late" is not due yet
/// ```
pub struct Agenda<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

impl<T> Default for Agenda<T> {
    fn default() -> Self {
        Agenda {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> Agenda<T> {
    /// An empty agenda.
    pub fn new() -> Self {
        Agenda::default()
    }

    /// Schedules `item` for `at_ms`, behind everything already scheduled
    /// for that millisecond.
    pub fn push(&mut self, at_ms: u64, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at_ms, seq, item }));
    }

    /// The due millisecond of the head item, if any.
    pub fn next_due(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.at_ms)
    }

    /// Removes the head item if it is due at or before `now_ms`,
    /// returning it with its due millisecond.
    pub fn pop_due(&mut self, now_ms: u64) -> Option<(u64, T)> {
        if self.next_due()? > now_ms {
            return None;
        }
        self.heap.pop().map(|Reverse(e)| (e.at_ms, e.item))
    }

    /// Every scheduled item, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.heap.iter().map(|Reverse(e)| &e.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_millisecond_pops_in_insertion_order_across_interleaved_pops() {
        let mut a = Agenda::new();
        a.push(5, 'a');
        a.push(5, 'b');
        a.push(3, 'x');
        assert_eq!(a.pop_due(9), Some((3, 'x')));
        assert_eq!(a.pop_due(9), Some((5, 'a')));
        // Pushed after a pop, into a millisecond that still has an older
        // entry waiting: the older one goes first.
        a.push(5, 'c');
        a.push(4, 'y');
        assert_eq!(a.pop_due(9), Some((4, 'y')));
        assert_eq!(a.pop_due(9), Some((5, 'b')));
        assert_eq!(a.pop_due(9), Some((5, 'c')));
        assert_eq!(a.pop_due(9), None);
    }

    #[test]
    fn pop_due_includes_the_exact_boundary_and_nothing_later() {
        let mut a = Agenda::new();
        a.push(100, "on time");
        a.push(101, "next");
        assert_eq!(a.pop_due(99), None);
        assert_eq!(a.pop_due(100), Some((100, "on time")));
        assert_eq!(a.pop_due(100), None);
        assert_eq!(a.pop_due(u64::MAX), Some((101, "next")));
    }

    #[test]
    fn next_due_tracks_the_head() {
        let mut a = Agenda::new();
        assert_eq!(a.next_due(), None);
        a.push(40, ());
        a.push(7, ());
        assert_eq!(a.next_due(), Some(7));
        a.pop_due(7);
        assert_eq!(a.next_due(), Some(40));
        assert_eq!(a.iter().count(), 1);
    }
}
