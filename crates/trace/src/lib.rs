//! Dependency-free tracing spine for the OLxP engine.
//!
//! Three pieces, designed to be cheap enough to leave compiled into release
//! builds and gated at runtime by one relaxed atomic:
//!
//! * [`LogHistogram`] — a fixed-size, HDR-style log-scale bucket histogram
//!   with a bounded relative error (≤ 1/32 ≈ 3.125%), exact below 32 units,
//!   mergeable and subtractable so snapshots can be diffed.
//! * Span recording ([`span`], [`record_span`]) — per-thread lock-free ring
//!   buffers of completed span events (category + shard + txn id + begin/end
//!   timestamps).  When tracing is disabled the recording path is a single
//!   relaxed atomic load and a branch.
//! * Exporters ([`chrome_trace_json`], [`prometheus_text`],
//!   [`prometheus_counter`] / [`prometheus_gauge`] / [`prometheus_histogram`])
//!   — Chrome trace-event JSON that loads in Perfetto / `chrome://tracing`,
//!   and Prometheus text-exposition encoders for counters, gauges and
//!   histogram series.
//!
//! On top of the spine sits a dependency-free embedded HTTP/1.1 listener
//! ([`TelemetryServer`]) that serves whatever a caller-supplied handler
//! routes — the engine mounts `/metrics`, `/healthz`, `/snapshot` and
//! `/timeseries` on it.

mod breakdown;
mod export;
mod hist;
mod http;
mod span;

pub use breakdown::StageBreakdown;
pub use export::{
    chrome_trace_json, prometheus_counter, prometheus_escape_label, prometheus_gauge,
    prometheus_histogram, prometheus_text,
};
pub use hist::{LogHistogram, HIST_MAX_RELATIVE_ERROR};
pub use http::{Handler, HttpResponse, TelemetryServer};
pub use span::{
    enabled, init_from_env, now_nanos, record_span, set_enabled, span, take_events, SpanCategory,
    SpanEvent, SpanGuard, TaggedSpan, ALL_CATEGORIES, ENV_TRACE,
};
