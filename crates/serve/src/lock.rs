//! Poison-tolerant locking for the serving layer.
//!
//! `std::sync::Mutex` poisons itself when a thread panics while holding
//! the guard. The serving layer holds its locks around state that falls
//! into two classes:
//!
//! * **Re-derivable / advisory** — the prediction cache (worst case: a
//!   recompute) and the registry map (models are validated *before*
//!   insertion). For
//!   these, cascading the poison into every later caller turns one
//!   panicking forward into a total outage —
//!   exactly the failure mode a multi-tenant engine must not have — so
//!   the helpers here recover the guard and carry on.
//! * **Not re-derivable** — a session's pipeline state mid-update. Those
//!   paths do NOT use these helpers blindly: they track coherence
//!   explicitly (see `session::SessionCore`) and surface
//!   [`crate::ServeError::Poisoned`] instead of guessing.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks a mutex guarding re-derivable state, recovering from poison.
pub(crate) fn recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks an `RwLock` guarding re-derivable state.
pub(crate) fn read_recover<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks an `RwLock` guarding re-derivable state.
pub(crate) fn write_recover<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn recovers_after_a_panicking_holder() {
        let m = Arc::new(Mutex::new(7u32));
        let poisoner = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the mutex");
        })
        .join();
        assert!(m.lock().is_err(), "the mutex really is poisoned");
        assert_eq!(*recover(&m), 7, "recovery hands the state back");
        *recover(&m) = 9;
        assert_eq!(*recover(&m), 9);
    }

    #[test]
    fn rwlock_recovery() {
        let l = Arc::new(RwLock::new(1u32));
        let poisoner = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.write().unwrap();
            panic!("poison the rwlock");
        })
        .join();
        assert_eq!(*read_recover(&l), 1);
        *write_recover(&l) = 2;
        assert_eq!(*read_recover(&l), 2);
    }
}
