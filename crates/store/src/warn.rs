//! The process-wide, silenceable warning funnel.
//!
//! A store problem degrades to a cold run (or, in the service, to a typed
//! protocol error), so these are advisories, not errors. Everything the
//! store, the bench harness, and the service want to say about non-fatal
//! artifact trouble goes through [`store_warn`]; tests that provoke those
//! paths on purpose (or that compare stderr byte-for-byte) silence the
//! funnel with [`set_store_warnings`].

use std::sync::atomic::{AtomicBool, Ordering};

/// Whether [`store_warn`] actually prints.
static STORE_WARNINGS: AtomicBool = AtomicBool::new(true);

/// Enables or disables store warnings (process-wide).
pub fn set_store_warnings(enabled: bool) {
    STORE_WARNINGS.store(enabled, Ordering::Relaxed);
}

/// Prints a non-fatal store advisory to stderr unless silenced.
///
/// Call as `store_warn(format_args!("..."))` — taking [`fmt::Arguments`]
/// keeps the formatting cost off the silenced path's callers.
///
/// [`fmt::Arguments`]: std::fmt::Arguments
pub fn store_warn(msg: std::fmt::Arguments<'_>) {
    if STORE_WARNINGS.load(Ordering::Relaxed) {
        eprintln!("{msg}");
    }
}
