//! Thin synchronization wrappers over `std::sync` with a guard-based API
//! that never surfaces lock poisoning: a panicked guest thread must not
//! poison runtime state for the whole simulation, so a poisoned lock is
//! recovered into its inner guard (the runtime's invariants are protected
//! by its own error propagation, not by poisoning).

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

/// Mutual exclusion; `lock()` returns the guard directly.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard for [`Mutex`]. Holds the underlying guard in an `Option` so a
/// [`Condvar`] can take and re-install it across a wait.
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard taken during condvar wait")
    }
}

/// Condition variable whose wait methods take the guard by `&mut`.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.0.take().expect("guard taken during condvar wait");
        guard.0 = Some(self.0.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    /// Wait for a notification or until `timeout` has passed, whichever
    /// comes first (or a spurious wake-up).
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        let g = guard.0.take().expect("guard taken during condvar wait");
        let (g, _) = self.0.wait_timeout(g, timeout).unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(g);
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        // Nobody notifies: the wait returns on its own, with the guard back.
        let m = Mutex::new(1);
        let cv = Condvar::new();
        let mut g = m.lock();
        cv.wait_for(&mut g, Duration::from_millis(1));
        *g += 1;
        assert_eq!(*g, 2);
    }
}
