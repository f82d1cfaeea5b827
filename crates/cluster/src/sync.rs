//! Poison-tolerant access to `std::sync` locks.
//!
//! A thread that panics while holding a lock poisons it, and std then
//! refuses the lock to every later caller. The runtime's threads keep
//! serving instead: a poisoned lock hands back its guard, over the state
//! as the panicking holder last wrote it.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, poisoned or not.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, poisoned or not.
pub(crate) fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, poisoned or not.
pub(crate) fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` on a thread of its own and asserts that it panicked.
    fn panics_on_a_thread(f: impl FnOnce() + Send) {
        std::thread::scope(|s| {
            assert!(s.spawn(f).join().is_err());
        });
    }

    #[test]
    fn a_panic_under_a_mutex_leaves_its_last_write_readable() {
        let m = Mutex::new(1);
        panics_on_a_thread(|| {
            let mut g = lock(&m);
            *g = 2;
            panic!("poison the mutex");
        });
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 2);
        *lock(&m) = 3;
        assert_eq!(*lock(&m), 3);
    }

    #[test]
    fn a_panic_under_a_write_guard_leaves_its_last_write_readable() {
        let l = RwLock::new(vec![1]);
        panics_on_a_thread(|| {
            write(&l).push(2);
            let mut g = write(&l);
            g.push(3);
            panic!("poison the rwlock");
        });
        assert!(l.is_poisoned());
        assert_eq!(*read(&l), [1, 2, 3]);
        write(&l).push(4);
        assert_eq!(*read(&l), [1, 2, 3, 4]);
    }
}
