//! Dependency-free observability for the stepstone pipeline:
//! lock-free metrics, lightweight tracing spans, and a hand-rolled
//! Prometheus-style exposition endpoint.
//!
//! Three layers, each usable alone:
//!
//! * **Metrics** — [`Counter`] (one atomic; an increment is a single
//!   relaxed atomic add with zero allocation),
//!   [`Gauge`], and [`Histogram`] (log-bucketed with p50/p95/p99
//!   estimation). Handles are interned by a [`Registry`] once at
//!   construction; instrumented code never touches the registry on a
//!   hot path.
//! * **Spans** — [`SpanLog`], a fixed-capacity ring buffer of
//!   `(id, parent, name, enter µs, exit µs)` events, written through
//!   the [`span!`] and [`time!`] macros. Building this crate with the
//!   `disabled` feature compiles both macros down to their bodies —
//!   no timer reads, no ring writes.
//! * **Exposition** — [`MetricsServer`], a tiny HTTP/1.1 listener on
//!   `std::net::TcpListener` (bounded connections, short socket
//!   timeouts) serving `/metrics` in Prometheus text format,
//!   `/healthz`, and a JSON `/snapshot` with histogram quantiles and
//!   recent spans.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use stepstone_telemetry::{MetricsServer, Registry};
//!
//! let registry = Arc::new(Registry::new());
//! let packets = registry.counter("packets_total", "packets seen");
//! let latency = registry.histogram("decode_micros", "decode latency");
//!
//! let outcome = stepstone_telemetry::time!(latency, {
//!     packets.inc();
//!     21 * 2
//! });
//! assert_eq!(outcome, 42);
//! assert_eq!(packets.get(), 1);
//!
//! let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
//! println!("curl http://{}/metrics", server.local_addr());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod http;
mod metrics;
mod registry;
mod trace;

pub use histogram::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use http::{MetricsServer, Request, Response, Routes, MAX_BODY_BYTES};
pub use metrics::{Counter, Gauge};
pub use registry::Registry;
pub use trace::{saturating_micros, SpanEvent, SpanGuard, SpanLog, Timer};

/// Opens a span on `$log` (a [`SpanLog`], `&SpanLog`, or
/// `Arc<SpanLog>`) that closes at the end of the enclosing scope.
/// Expands to nothing but the guard binding; with the crate's
/// `disabled` feature the guard is a unit value and no clock is read.
///
/// ```
/// use stepstone_telemetry::SpanLog;
/// let log = SpanLog::new(16);
/// {
///     stepstone_telemetry::span!(log, "decode");
///     // … work …
/// }
/// let expected = if cfg!(feature = "disabled") { 0 } else { 1 };
/// assert_eq!(log.events().len(), expected);
/// ```
#[macro_export]
macro_rules! span {
    ($log:expr, $name:expr) => {
        // `&$log` rather than `$log`: a place expression is borrowed
        // (not moved), and a temporary like `registry.spans()` gets its
        // lifetime extended to the enclosing scope by the `let`.
        let __stepstone_span_log = &$log;
        let __stepstone_span_guard =
            $crate::__span_enter(::core::borrow::Borrow::borrow(__stepstone_span_log), $name);
    };
}

/// Evaluates `$body`, recording its wall-clock duration in
/// microseconds into `$hist` (a [`Histogram`], `&Histogram`, or
/// `Arc<Histogram>`), and yields the body's value. With the crate's
/// `disabled` feature this reduces to the body alone.
///
/// ```
/// use stepstone_telemetry::Histogram;
/// let hist = Histogram::new();
/// let v = stepstone_telemetry::time!(hist, 1 + 1);
/// assert_eq!(v, 2);
/// let expected = if cfg!(feature = "disabled") { 0 } else { 1 };
/// assert_eq!(hist.snapshot().count(), expected);
/// ```
#[macro_export]
macro_rules! time {
    ($hist:expr, $body:expr) => {{
        let __stepstone_timer = $crate::Timer::start();
        let __stepstone_result = $body;
        __stepstone_timer.record_into(::core::borrow::Borrow::borrow(&$hist));
        __stepstone_result
    }};
}

/// Macro support for [`span!`]; not public API.
#[doc(hidden)]
#[inline]
#[cfg(not(feature = "disabled"))]
pub fn __span_enter<'a>(log: &'a SpanLog, name: &'static str) -> SpanGuard<'a> {
    log.enter(name)
}

/// Macro support for [`span!`] with spans compiled out; not public
/// API.
#[doc(hidden)]
#[inline]
#[cfg(feature = "disabled")]
pub fn __span_enter(log: &SpanLog, name: &'static str) {
    let _ = (log, name);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_macro_records_through_arc_and_ref() {
        let log = std::sync::Arc::new(SpanLog::new(8));
        {
            span!(log, "by-arc");
        }
        {
            let by_ref: &SpanLog = &log;
            span!(by_ref, "by-ref");
        }
        let names: Vec<_> = log.events().iter().map(|e| e.name).collect();
        #[cfg(not(feature = "disabled"))]
        assert_eq!(names, vec!["by-arc", "by-ref"]);
        #[cfg(feature = "disabled")]
        assert!(names.is_empty());
    }

    #[test]
    fn time_macro_yields_body_value() {
        let hist = Histogram::new();
        let v = time!(hist, {
            std::thread::sleep(std::time::Duration::from_micros(100));
            "done"
        });
        assert_eq!(v, "done");
        #[cfg(not(feature = "disabled"))]
        assert_eq!(hist.snapshot().count(), 1);
        #[cfg(feature = "disabled")]
        assert_eq!(hist.snapshot().count(), 0);
    }
}
