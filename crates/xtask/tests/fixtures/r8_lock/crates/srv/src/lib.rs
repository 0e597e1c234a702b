//! Serving-shaped crate exercising lock acquisition order.
#![deny(missing_docs)]

pub mod seq;

use std::sync::{Mutex, PoisonError, RwLock};

/// Shared state with the workspace's two ordered locks.
pub struct State {
    /// Outermost lock.
    pub service: RwLock<u64>,
    /// Innermost lock.
    pub cache: Mutex<u64>,
}

/// Acquires in the declared order (must not fire).
pub fn ordered(s: &State) -> u64 {
    let svc = match s.service.read() {
        Ok(g) => *g,
        Err(_) => return 0,
    };
    match s.cache.lock() {
        Ok(g) => svc + *g,
        Err(_) => svc,
    }
}

/// Acquires the outer lock while holding the inner one (the violation).
pub fn inverted(s: &State) -> u64 {
    let held = match s.cache.lock() {
        Ok(g) => *g,
        Err(_) => return 0,
    };
    match s.service.read() {
        Ok(g) => held + *g,
        Err(_) => held,
    }
}

/// The same inversion with the outer acquisition wrapped onto its own
/// line, the way rustfmt breaks a long chain.
pub fn inverted_wrapped(s: &State) -> u64 {
    let held = *s.cache.lock().unwrap_or_else(PoisonError::into_inner);
    let svc = *s
        .service
        .read()
        .unwrap_or_else(PoisonError::into_inner);
    held + svc
}
