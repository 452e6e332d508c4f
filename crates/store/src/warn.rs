//! The warning funnel.
//!
//! A store problem degrades to a cold run (or, in the service, to a typed
//! protocol error), so these are advisories, not errors. Everything the
//! store, the bench harness, and the service want to say about non-fatal
//! artifact trouble goes through [`store_warn`].

/// Prints a non-fatal store advisory to stderr.
///
/// Call as `store_warn(format_args!("..."))`.
pub fn store_warn(msg: std::fmt::Arguments<'_>) {
    eprintln!("{msg}");
}
