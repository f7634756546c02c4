//! Live telemetry: a background metrics sampler and embedded HTTP scrape
//! endpoints.
//!
//! Two optional background services ride on [`HybridDatabase`]:
//!
//! * **Sampler** — when [`crate::EngineConfig::telemetry_interval_ms`] is
//!   non-zero (the default is 250 ms), a dedicated thread snapshots the
//!   engine metrics every interval, diffs against the previous snapshot and
//!   appends one [`TelemetryPoint`] per interval to a fixed-capacity
//!   [`TimeSeriesRing`].  The ring feeds the per-interval timeline table in
//!   benchmark reports and the `/timeseries` endpoint.
//! * **HTTP listener** — when [`crate::EngineConfig::telemetry_addr`] (or
//!   `OLXP_TELEMETRY_ADDR`) is set, a dependency-free HTTP/1.1 listener
//!   serves `GET /metrics` (Prometheus text exposition), `/healthz` (SLO
//!   health checks, 200/503), `/snapshot` (full counter snapshot as JSON)
//!   and `/timeseries` (the sampler's ring as JSON).
//!
//! Both threads hold only a [`Weak`] reference to the database, so an open
//! database with telemetry enabled can still be dropped normally; the
//! threads observe the dead weak reference and exit, and
//! [`HybridDatabase`]'s drop shuts them down explicitly first.

use crate::database::HybridDatabase;
use crate::metrics::{MetricKind, MetricsSnapshot, Sample};
use crate::timeseries::{TelemetryPoint, TimeSeriesRing};
use olxp_storage::SyncPolicy;
use olxp_trace::{
    prometheus_counter, prometheus_gauge, prometheus_histogram, Handler, HttpResponse,
    LogHistogram, TelemetryServer,
};
use parking_lot::Mutex;
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Per-interval points retained by the sampler ring: at the default 250 ms
/// interval this is ~17 minutes of history, bounded at ~700 KiB.
const TIMELINE_CAPACITY: usize = 4096;

/// Longest single sleep inside the sampler loop, so shutdown is never
/// delayed by more than this even under second-scale sampling intervals.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// Live telemetry state shared between the sampler thread, the HTTP handler
/// and the report path.  Owned by the database via `Arc` and referenced by
/// the background threads through it (they hold the database weakly).
pub struct TelemetryState {
    started: Instant,
    ring: Mutex<TimeSeriesRing>,
    /// Set while the newest WAL LSN is ahead of the durable LSN and the
    /// durable LSN did not advance across a whole sampling interval — the
    /// signature of a wedged fsync path, surfaced by `/healthz`.
    wal_stalled: AtomicBool,
}

impl TelemetryState {
    pub(crate) fn new() -> TelemetryState {
        TelemetryState {
            started: Instant::now(),
            ring: Mutex::new(TimeSeriesRing::with_capacity(TIMELINE_CAPACITY)),
            wal_stalled: AtomicBool::new(false),
        }
    }

    /// Milliseconds since the database was opened (the sampler's time axis).
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Copy of every retained timeline point, oldest first.
    pub fn timeline(&self) -> Vec<TelemetryPoint> {
        self.ring.lock().points()
    }

    /// Copy of the retained points sampled at or after `t_ms`.
    pub fn timeline_since(&self, t_ms: u64) -> Vec<TelemetryPoint> {
        self.ring.lock().points_since(t_ms)
    }

    /// The ring rendered as a JSON document (the `/timeseries` body).
    pub fn timeline_json(&self) -> String {
        self.ring.lock().to_json()
    }

    /// True while the sampler believes the WAL fsync path is wedged.
    pub fn wal_stalled(&self) -> bool {
        self.wal_stalled.load(Ordering::Relaxed)
    }

    fn push(&self, point: TelemetryPoint) {
        self.ring.lock().push(point);
    }
}

impl std::fmt::Debug for TelemetryState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryState")
            .field("points", &self.ring.lock().len())
            .field("wal_stalled", &self.wal_stalled())
            .finish()
    }
}

/// The background metrics-sampler thread and its shutdown plumbing.
pub(crate) struct TelemetrySampler {
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) handle: Option<std::thread::JoinHandle<()>>,
}

/// Spawn the sampler thread.  It holds the database weakly: every tick
/// upgrades, snapshots, diffs and appends one point; when the database is
/// gone (or shutdown is flagged) the thread exits.
pub(crate) fn spawn_sampler(db: &Arc<HybridDatabase>) -> TelemetrySampler {
    let interval = Duration::from_millis(db.config().telemetry_interval_ms.max(1));
    let weak: Weak<HybridDatabase> = Arc::downgrade(db);
    let state = Arc::clone(db.telemetry_state_arc());
    let mut prev = db.metrics_snapshot();
    let mut prev_t = state.elapsed_ms();
    let shutdown = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&shutdown);
    let handle = std::thread::Builder::new()
        .name("olxp-telemetry-sampler".to_string())
        .spawn(move || loop {
            // Sleep the interval in small slices so shutdown (and drop) never
            // waits a full sampling period.
            let tick_deadline = Instant::now() + interval;
            while Instant::now() < tick_deadline {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(SHUTDOWN_POLL.min(tick_deadline - Instant::now()));
            }
            if stop.load(Ordering::Acquire) {
                return;
            }
            let Some(db) = weak.upgrade() else { return };
            let now = db.metrics_snapshot();
            let t_ms = state.elapsed_ms();
            let delta = now.delta_since(&prev);
            // The durable LSN failing to advance across a whole interval
            // while commits are waiting on it means the fsync path is
            // wedged.  `SyncPolicy::Never` legitimately leaves the durable
            // LSN behind, so it never counts as a stall.
            let syncing = db.is_durable() && db.config().durability.sync != SyncPolicy::Never;
            let stalled = syncing
                && now.wal.last_lsn > now.wal.durable_lsn
                && now.wal.durable_lsn == prev.wal.durable_lsn;
            state.wal_stalled.store(stalled, Ordering::Relaxed);
            state.push(TelemetryPoint::from_delta(
                t_ms,
                t_ms.saturating_sub(prev_t).max(1),
                &delta,
                db.replication_lag(),
            ));
            prev = now;
            prev_t = t_ms;
            // Dropped before the next sleep: the sampler must not keep the
            // database alive across an interval while everyone else is done
            // with it.
            drop(db);
        })
        .expect("spawning the telemetry sampler thread succeeds");
    TelemetrySampler {
        shutdown,
        handle: Some(handle),
    }
}

/// Bind the embedded HTTP listener on `addr` and route the four telemetry
/// endpoints to `db` (held weakly: scrapes after the database is gone get
/// 503, and the listener never keeps the engine alive).
pub(crate) fn serve(db: &Arc<HybridDatabase>, addr: &str) -> std::io::Result<TelemetryServer> {
    TelemetryServer::bind(addr, handler_for(db))
}

/// The endpoint router used by [`serve`] (separated so tests can drive it
/// without a live socket).
pub(crate) fn handler_for(db: &Arc<HybridDatabase>) -> Handler {
    let weak: Weak<HybridDatabase> = Arc::downgrade(db);
    Arc::new(move |path: &str| {
        let Some(db) = weak.upgrade() else {
            return HttpResponse::json(503, "{\"error\":\"database is shut down\"}");
        };
        match path {
            "/metrics" => HttpResponse::text(200, render_prometheus(&db, &db.metrics_snapshot())),
            "/healthz" => {
                let report = health_report(&db);
                let status = if report.healthy() { 200 } else { 503 };
                HttpResponse::json(status, report.to_json())
            }
            "/snapshot" => {
                HttpResponse::json(200, render_snapshot_json(&db, &db.metrics_snapshot()))
            }
            "/timeseries" => HttpResponse::json(200, db.telemetry_state().timeline_json()),
            other => HttpResponse::not_found(other),
        }
    })
}

/// One SLO health check evaluated by `/healthz`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HealthCheck {
    /// Stable check identifier (e.g. `replication_errors`).
    pub name: &'static str,
    /// Whether the check passed.
    pub healthy: bool,
    /// Human-readable evidence for the verdict.
    pub detail: String,
}

/// The `/healthz` verdict: every check with its evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// All evaluated checks, stable order.
    pub checks: Vec<HealthCheck>,
}

impl HealthReport {
    /// True when every check passed (the endpoint returns 200).
    pub fn healthy(&self) -> bool {
        self.checks.iter().all(|c| c.healthy)
    }

    /// The `/healthz` JSON body.
    pub fn to_json(&self) -> String {
        json(&Value::Map(vec![
            ("healthy".to_string(), self.healthy().serialize()),
            ("checks".to_string(), self.checks.serialize()),
        ]))
    }
}

/// Replication apply-error rate above which `/healthz` degrades (1%).
const MAX_REPLICATION_ERROR_RATE: f64 = 0.01;

/// Evaluate the SLO health checks against the live engine: background-thread
/// liveness, freshness-timeout count, replication error rate and WAL fsync
/// progress.
pub fn health_report(db: &HybridDatabase) -> HealthReport {
    let snapshot = db.metrics_snapshot();
    let mut checks = Vec::new();

    let applier_expected = db.config().background_applier;
    let applier_ok = !applier_expected || db.has_background_applier();
    checks.push(HealthCheck {
        name: "replication_applier",
        healthy: applier_ok,
        detail: if !applier_expected {
            "not configured".to_string()
        } else if applier_ok {
            "running".to_string()
        } else {
            "configured but not running".to_string()
        },
    });

    let compactor_expected = db.config().compression;
    let compactor_ok = !compactor_expected || db.has_background_compactor();
    checks.push(HealthCheck {
        name: "delta_compactor",
        healthy: compactor_ok,
        detail: if !compactor_expected {
            "not configured".to_string()
        } else if compactor_ok {
            "running".to_string()
        } else {
            "configured but not running".to_string()
        },
    });

    let error_rate =
        snapshot.replication_errors as f64 / (snapshot.replication_applied.max(1)) as f64;
    checks.push(HealthCheck {
        name: "replication_errors",
        healthy: error_rate <= MAX_REPLICATION_ERROR_RATE,
        detail: format!(
            "{} errors / {} applied ({:.2}%)",
            snapshot.replication_errors,
            snapshot.replication_applied,
            error_rate * 100.0
        ),
    });

    checks.push(HealthCheck {
        name: "freshness_timeouts",
        healthy: snapshot.freshness_timeouts == 0,
        detail: format!("{} timed-out bounded reads", snapshot.freshness_timeouts),
    });

    let stalled = db.telemetry_state().wal_stalled();
    checks.push(HealthCheck {
        name: "wal_progress",
        healthy: !stalled,
        detail: if stalled {
            format!(
                "durable LSN stuck at {} with last LSN {}",
                snapshot.wal.durable_lsn, snapshot.wal.last_lsn
            )
        } else {
            "durable LSN advancing (or nothing pending)".to_string()
        },
    });

    HealthReport { checks }
}

/// Render the Prometheus text exposition for `/metrics`: every row of the
/// metric table, one family per run of rows sharing a family name, plus
/// liveness, replication lag and the stage histograms.
pub(crate) fn render_prometheus(db: &HybridDatabase, s: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(8192);
    prometheus_gauge(&mut out, "olxp_up", "Engine liveness.", &[(&[], 1.0)]);
    let samples: Vec<Sample> = s.samples().collect();
    let mut rest = &samples[..];
    while let Some(first) = rest.first() {
        let metric = first.metric;
        let len = rest
            .iter()
            .take_while(|sample| sample.metric.family == metric.family)
            .count();
        let (family, tail) = rest.split_at(len);
        let series: Vec<(&[(&str, &str)], f64)> = family
            .iter()
            .map(|sample| (sample.label.as_slice(), sample.value as f64))
            .collect();
        let encode = match metric.kind {
            MetricKind::Counter => prometheus_counter,
            MetricKind::Gauge => prometheus_gauge,
        };
        encode(&mut out, metric.family, &metric.help(), &series);
        rest = tail;
    }
    prometheus_gauge(
        &mut out,
        "olxp_replication_lag_records",
        "Appended-but-unapplied replication records, summed across shards.",
        &[(&[], db.replication_lag() as f64)],
    );
    let stage_series: Vec<(&str, &LogHistogram)> = s
        .stages
        .iter_nonempty()
        .map(|(category, hist)| (category.as_str(), hist))
        .collect();
    if !stage_series.is_empty() {
        out.push_str(&prometheus_histogram(
            "olxp_stage_nanos",
            "Per-lifecycle-stage latency in nanoseconds (tracing required).",
            &stage_series,
        ));
    }
    out
}

/// Render the `/snapshot` JSON body: every value of the metric table under
/// its key, plus uptime, replication lag and the retained slow-transaction
/// and slow-query records (copied, not drained — scraping must never steal
/// the benchmark report's data).
pub(crate) fn render_snapshot_json(db: &HybridDatabase, s: &MetricsSnapshot) -> String {
    let slow_txns: Vec<String> = db
        .slow_txn_log()
        .records()
        .iter()
        .map(|r| r.format())
        .collect();
    let slow_queries: Vec<String> = db
        .slow_query_log()
        .records()
        .iter()
        .map(|r| r.format())
        .collect();
    let mut fields = vec![(
        "uptime_ms".to_string(),
        db.telemetry_state().elapsed_ms().serialize(),
    )];
    fields.extend(
        s.samples()
            .map(|sample| (sample.key(), sample.value.serialize())),
    );
    fields.push((
        "replication_lag_records".to_string(),
        db.replication_lag().serialize(),
    ));
    fields.push(("slow_txns".to_string(), slow_txns.serialize()));
    fields.push(("slow_queries".to_string(), slow_queries.serialize()));
    json(&Value::Map(fields))
}

fn json(value: &Value) -> String {
    serde_json::to_string(value).expect("a value tree always renders")
}

#[cfg(test)]
mod tests {
    use super::*;
    use olxp_trace::{SpanCategory, StageBreakdown};

    #[test]
    fn sample_point_derives_interval_fields() {
        let mut delta = MetricsSnapshot {
            commits: 50,
            aborts: 2,
            replication_applied: 40,
            chunks_pruned_zonemap: 3,
            chunks_pruned_filter: 4,
            freshness_timeouts: 1,
            ..MetricsSnapshot::default()
        };
        delta.statements = [100, 10, 5, 0];
        delta.wal.appends = 70;
        let mut stages = StageBreakdown::new();
        stages.record(SpanCategory::Commit, 2_000_000);
        delta.stages = stages;
        let point = TelemetryPoint::from_delta(1_250, 250, &delta, 9);
        assert_eq!(point.commits, 50);
        assert_eq!(point.oltp_statements, 100);
        assert_eq!(point.chunks_pruned, 7);
        assert_eq!(point.replication_lag, 9);
        assert_eq!(point.freshness_timeouts, 1);
        assert!((point.commit_tps() - 200.0).abs() < 1e-9);
        assert!(point.commit_p50_us >= 1_900.0, "p50 ≈ 2ms in µs");
        assert_eq!(point.freshness_p50_us, 0.0, "empty histogram reads zero");
    }

    #[test]
    fn health_report_json_shape() {
        let report = HealthReport {
            checks: vec![
                HealthCheck {
                    name: "a",
                    healthy: true,
                    detail: "fine \"quoted\"".to_string(),
                },
                HealthCheck {
                    name: "b",
                    healthy: false,
                    detail: "broken".to_string(),
                },
            ],
        };
        assert!(!report.healthy());
        let json = report.to_json();
        assert!(json.starts_with("{\"healthy\":false,"));
        assert!(json.contains("\"fine \\\"quoted\\\"\""), "{json}");
        let healthy = HealthReport {
            checks: vec![HealthCheck {
                name: "a",
                healthy: true,
                detail: String::new(),
            }],
        };
        assert!(healthy.healthy());
        assert!(healthy.to_json().starts_with("{\"healthy\":true,"));
    }

    #[test]
    fn json_strings_escape_control_characters() {
        let string = |s: &str| json(&Value::Str(s.to_string()));
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }
}
