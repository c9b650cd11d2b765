//! Offline stand-in for `parking_lot`.
//!
//! Wraps `std::sync::Mutex` behind `parking_lot`'s non-poisoning API (the
//! guard is returned directly, not inside a `Result`), with only the items
//! the workspace calls. A thread that panics while holding a lock poisons
//! the std primitive; the shim recovers the inner guard, matching
//! `parking_lot`'s behavior of simply releasing the lock. Performance
//! differs from the real crate (std mutexes are heavier under contention)
//! but semantics for correctness testing are the same.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync;

/// Guard for [`Mutex::lock`].
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

/// A mutual-exclusion lock that does not poison.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn lock_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("die holding the lock");
        })
        .join();
        // parking_lot semantics: the lock is usable afterwards.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
