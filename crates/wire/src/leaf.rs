//! The one lock type of the threaded wire layer: a mutex whose guard
//! never leaves a closure, with a condvar to wait on the value it guards.
//! Under the guard nothing takes a second lock, nothing blocks and no
//! protocol machine runs (each declaration says why), so no thread holds
//! two locks and the layer has no lock order to keep. Debug builds panic
//! when a thread takes a leaf while it holds another; release builds
//! carry no check. DESIGN.md "Concurrency invariants in the wire layer"
//! audits every lock a shard or caller thread can take.
//!
//! Poisoning is ignored: nothing under a guard can panic, and every
//! update leaves the value whole.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A mutex and condvar whose guard is live only inside `with` or a wait.
#[derive(Default)]
pub(crate) struct LeafLock<T> {
    value: Mutex<T>,
    cv: Condvar,
}

impl<T> LeafLock<T> {
    pub(crate) const fn new(value: T) -> Self {
        LeafLock {
            value: Mutex::new(value),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, T> {
        self.value.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` on the value under the lock.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let _held = Held::enter();
        let mut guard = self.lock();
        f(&mut guard)
    }

    /// Parks until `pick` returns `Some`, checked first and then after
    /// each wake-up. `pick` runs under the lock and may update the value;
    /// the lock is released while parked.
    pub(crate) fn wait<R>(&self, mut pick: impl FnMut(&mut T) -> Option<R>) -> R {
        let _held = Held::enter();
        let mut guard = self.lock();
        loop {
            if let Some(picked) = pick(&mut guard) {
                return picked;
            }
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`LeafLock::wait`] for at most `timeout`; `None` if `pick` never
    /// yielded.
    pub(crate) fn wait_timeout<R>(
        &self,
        timeout: Duration,
        mut pick: impl FnMut(&mut T) -> Option<R>,
    ) -> Option<R> {
        let _held = Held::enter();
        let mut picked = None;
        let _guard = self
            .cv
            .wait_timeout_while(self.lock(), timeout, |value| {
                picked = pick(value);
                picked.is_none()
            })
            .unwrap_or_else(PoisonError::into_inner);
        picked
    }

    /// Wakes every waiter; called after the `with` that changed the value.
    pub(crate) fn notify_all(&self) {
        self.cv.notify_all();
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread holds a leaf guard.
    static LIVE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A leaf guard is live on this thread while this exists (checked in
/// debug builds only).
struct Held;

impl Held {
    fn enter() -> Held {
        #[cfg(debug_assertions)]
        LIVE.with(|live| {
            debug_assert!(
                !live.replace(true),
                "a leaf lock was taken while this thread held another"
            );
        });
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        LIVE.with(|live| live.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reorder a deadlock needs: the reactor asking the fault gate
    /// while it holds the completion sink (`drain_peer` taking them the
    /// other way round would close the cycle).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "while this thread held another")]
    fn the_gate_taken_inside_the_sink_panics_in_debug_builds() {
        let sink = LeafLock::new(crate::deploy::SinkState::default());
        let gate = LeafLock::new(sheriff_netsim::FaultGate::default());
        sink.with(|_| gate.with(|gate| gate.stats()));
    }

    #[test]
    fn wait_returns_what_pick_takes_or_none_at_the_timeout() {
        let slot = LeafLock::new(None::<u32>);
        assert_eq!(
            slot.wait_timeout(Duration::from_millis(1), Option::take),
            None
        );
        std::thread::scope(|s| {
            s.spawn(|| {
                slot.with(|v| *v = Some(7));
                slot.notify_all();
            });
            // A lost wake-up would sit out the whole minute.
            let got = slot.wait_timeout(Duration::from_secs(60), Option::take);
            assert_eq!(got, Some(7));
        });
        assert_eq!(slot.with(|v| *v), None, "pick took the value");
    }
}
