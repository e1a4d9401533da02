//! The workspace synchronization facade.
//!
//! Every crate in the workspace imports its concurrency primitives from
//! here instead of `std::sync`/`parking_lot` directly (enforced by
//! `stopss-lint`'s `sync-facade` rule). In an ordinary build the facade
//! is exactly the vendored `parking_lot` locks plus `std` atomics and
//! containers — zero-cost re-exports. With the `loom` cargo feature the
//! same names resolve to the instrumented types from `vendor/loom-lite`,
//! so the model-check suites (`cargo test --features loom --test
//! loom_model`) explore every bounded interleaving of the *real*
//! production types, not hand-written doubles.
//!
//! Items deliberately **not** behind the facade: `std::thread` (worker
//! threads are spawned by harnesses and long-running services, never by
//! the state machines the models exercise).

#[cfg(feature = "loom")]
pub use loom_lite::sync::{
    atomic, Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak,
};

#[cfg(not(feature = "loom"))]
pub use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
#[cfg(not(feature = "loom"))]
pub use std::sync::{atomic, Arc, OnceLock, Weak};
