//! Daemon observability: lock-free counters rendered as plaintext.
//!
//! The render format is the `/metrics` convention — one
//! `name{label="value"} count` line each, sorted deterministically — so
//! tests and CI can assert exact lines with `grep` and a scrape is
//! readable over `nc`. Counters are relaxed atomics: they are
//! diagnostics, not synchronization (same policy as
//! [`StoreActivity`](prophet_store::StoreActivity)).

use crate::proto::{ErrorCode, Request};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The request kinds, for per-operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Submit,
    Fetch,
    Metrics,
    Ping,
}

impl Op {
    /// Stable label used in metrics lines.
    pub fn label(self) -> &'static str {
        match self {
            Op::Submit => "submit",
            Op::Fetch => "fetch",
            Op::Metrics => "metrics",
            Op::Ping => "ping",
        }
    }

    /// Every operation, in render order.
    pub const ALL: [Op; 4] = [Op::Submit, Op::Fetch, Op::Metrics, Op::Ping];

    /// The operation a request is.
    pub fn of(req: &Request) -> Self {
        match req {
            Request::Submit { .. } => Op::Submit,
            Request::Fetch { .. } => Op::Fetch,
            Request::Metrics => Op::Metrics,
            Request::Ping => Op::Ping,
        }
    }

    fn index(self) -> usize {
        match self {
            Op::Submit => 0,
            Op::Fetch => 1,
            Op::Metrics => 2,
            Op::Ping => 3,
        }
    }
}

/// All of the daemon's counters.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    connections_total: AtomicU64,
    in_flight: AtomicU64,
    requests_total: [AtomicU64; 4],
    request_micros_total: [AtomicU64; 4],
    submissions_total: AtomicU64,
    submissions_fresh: AtomicU64,
    submissions_duplicate: AtomicU64,
    merges_total: AtomicU64,
    fetches_served: AtomicU64,
    recovered_submissions: AtomicU64,
    errors_total: [AtomicU64; 6],
}

impl ServiceMetrics {
    fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was accepted.
    pub fn connection_opened(&self) {
        Self::inc(&self.connections_total);
        Self::inc(&self.in_flight);
    }

    /// A connection ended.
    pub fn connection_closed(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// One request of kind `op` finished after `took`.
    pub fn record_request(&self, op: Op, took: Duration) {
        Self::inc(&self.requests_total[op.index()]);
        self.request_micros_total[op.index()].fetch_add(took.as_micros() as u64, Ordering::Relaxed);
    }

    /// A submission arrived; `fresh` = not a byte-identical duplicate.
    pub fn record_submission(&self, fresh: bool) {
        Self::inc(&self.submissions_total);
        Self::inc(if fresh {
            &self.submissions_fresh
        } else {
            &self.submissions_duplicate
        });
    }

    /// The submissions were re-merged and re-analyzed.
    pub fn record_merge(&self) {
        Self::inc(&self.merges_total);
    }

    /// A hint set was served.
    pub fn record_fetch(&self) {
        Self::inc(&self.fetches_served);
    }

    /// `n` submissions were rebuilt from the store at startup.
    pub fn record_recovered(&self, n: u64) {
        self.recovered_submissions.fetch_add(n, Ordering::Relaxed);
    }

    /// A request was answered with the given error code.
    pub fn record_error(&self, code: ErrorCode) {
        Self::inc(&self.errors_total[code as u8 as usize - 1]);
    }

    /// Appends the service-level metrics lines (store and per-key lines
    /// are appended by the state, which owns that data).
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write;
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut line = |name: &str, v: u64| {
            let _ = writeln!(out, "{name} {v}");
        };
        line(
            "prophet_service_connections_total",
            g(&self.connections_total),
        );
        line("prophet_service_in_flight", g(&self.in_flight));
        for op in Op::ALL {
            let _ = writeln!(
                out,
                "prophet_service_requests_total{{op=\"{}\"}} {}",
                op.label(),
                g(&self.requests_total[op.index()])
            );
        }
        for op in Op::ALL {
            let _ = writeln!(
                out,
                "prophet_service_request_micros_total{{op=\"{}\"}} {}",
                op.label(),
                g(&self.request_micros_total[op.index()])
            );
        }
        let mut line = |name: &str, v: u64| {
            let _ = writeln!(out, "{name} {v}");
        };
        line(
            "prophet_service_submissions_total",
            g(&self.submissions_total),
        );
        line(
            "prophet_service_submissions_fresh",
            g(&self.submissions_fresh),
        );
        line(
            "prophet_service_submissions_duplicate",
            g(&self.submissions_duplicate),
        );
        line("prophet_service_merges_total", g(&self.merges_total));
        line("prophet_service_fetches_served", g(&self.fetches_served));
        line(
            "prophet_service_recovered_submissions",
            g(&self.recovered_submissions),
        );
        for code in ErrorCode::ALL {
            let _ = writeln!(
                out,
                "prophet_service_errors_total{{code=\"{}\"}} {}",
                code.label(),
                g(&self.errors_total[code as u8 as usize - 1])
            );
        }
    }
}
