//! Per-interval telemetry points and the bounded ring that holds them.
//!
//! The live telemetry sampler diffs consecutive engine metrics snapshots and
//! appends one [`TelemetryPoint`] per sampling interval into a
//! [`TimeSeriesRing`] — a bounded ring that keeps the newest points and
//! counts what it had to drop, so a long-lived engine exposes a sliding
//! window of its recent behaviour without growing memory.  The same point
//! type is what benchmark results carry as their timeline.

use crate::metrics::MetricsSnapshot;
use olxp_trace::{LogHistogram, SpanCategory};
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;

/// One sampling interval of engine activity: counter deltas over the
/// interval plus a few end-of-interval gauges.  Rates are derived, not
/// stored, so a point stays mergeable with its neighbours by summation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetryPoint {
    /// Milliseconds since the sampler started (in benchmark results: since
    /// the driver started observing the run), at the end of the interval
    /// this point covers.
    pub t_ms: u64,
    /// Actual length of the interval in milliseconds (the sampler aims for
    /// the configured cadence but records what really elapsed).
    pub interval_ms: u64,
    /// Transactions committed during the interval.
    pub commits: u64,
    /// Transactions aborted during the interval.
    pub aborts: u64,
    /// Online-transaction statements issued during the interval.
    pub oltp_statements: u64,
    /// Analytical statements issued during the interval.
    pub olap_statements: u64,
    /// Hybrid-transaction statements issued during the interval.
    pub hybrid_statements: u64,
    /// Replication records applied to columnar replicas during the interval.
    pub replication_applied: u64,
    /// Replication apply failures during the interval.
    pub replication_errors: u64,
    /// Replication lag in records at the end of the interval (gauge).
    pub replication_lag: u64,
    /// WAL records appended during the interval.
    pub wal_appends: u64,
    /// WAL fsyncs issued during the interval.
    pub wal_fsyncs: u64,
    /// WAL bytes written during the interval.
    pub wal_bytes: u64,
    /// Delta chunks sealed into the compressed main tier during the interval.
    pub chunks_compacted: u64,
    /// Column-store chunks scanned during the interval.
    pub chunks_scanned: u64,
    /// Column-store chunks skipped by zone maps or fingerprint filters
    /// during the interval.
    pub chunks_pruned: u64,
    /// Analytical freshness waits that timed out during the interval.
    pub freshness_timeouts: u64,
    /// Median end-to-end commit latency over the interval in microseconds
    /// (0 when tracing is off — the commit-stage histogram is the source).
    pub commit_p50_us: f64,
    /// 95th-percentile commit latency over the interval in microseconds.
    pub commit_p95_us: f64,
    /// Median freshness-wait latency over the interval in microseconds.
    pub freshness_p50_us: f64,
    /// 95th-percentile freshness-wait latency over the interval.
    pub freshness_p95_us: f64,
}

impl TelemetryPoint {
    /// Build the point for one interval from that interval's metrics delta
    /// and the replication lag at its end.
    pub fn from_delta(
        t_ms: u64,
        interval_ms: u64,
        delta: &MetricsSnapshot,
        replication_lag: u64,
    ) -> TelemetryPoint {
        // An empty histogram reads 0 at every quantile.
        let p_us = |hist: &LogHistogram, q: f64| hist.value_at_quantile(q) as f64 / 1_000.0;
        let commit = delta.stages.get(SpanCategory::Commit);
        let freshness = delta.stages.get(SpanCategory::FreshnessWait);
        TelemetryPoint {
            t_ms,
            interval_ms,
            commits: delta.commits,
            aborts: delta.aborts,
            oltp_statements: delta.statements[0],
            olap_statements: delta.statements[1],
            hybrid_statements: delta.statements[2],
            replication_applied: delta.replication_applied,
            replication_errors: delta.replication_errors,
            replication_lag,
            wal_appends: delta.wal.appends,
            wal_fsyncs: delta.wal.fsyncs,
            wal_bytes: delta.wal.bytes_written,
            chunks_compacted: delta.chunks_compacted,
            chunks_scanned: delta.chunks_scanned,
            chunks_pruned: delta.chunks_pruned_zonemap + delta.chunks_pruned_filter,
            freshness_timeouts: delta.freshness_timeouts,
            commit_p50_us: p_us(commit, 0.50),
            commit_p95_us: p_us(commit, 0.95),
            freshness_p50_us: p_us(freshness, 0.50),
            freshness_p95_us: p_us(freshness, 0.95),
        }
    }

    /// Events per second for a counter delta over this point's interval.
    pub fn rate(&self, count: u64) -> f64 {
        if self.interval_ms == 0 {
            return 0.0;
        }
        count as f64 * 1_000.0 / self.interval_ms as f64
    }

    /// Commit throughput over the interval (commits/s).
    pub fn commit_tps(&self) -> f64 {
        self.rate(self.commits)
    }

    /// Aborts as a fraction of commit attempts over the interval.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            return 0.0;
        }
        self.aborts as f64 / attempts as f64
    }

    /// Fraction of eligible chunks the scan path skipped this interval.
    pub fn prune_rate(&self) -> f64 {
        let eligible = self.chunks_scanned + self.chunks_pruned;
        if eligible == 0 {
            return 0.0;
        }
        self.chunks_pruned as f64 / eligible as f64
    }

    /// This point as a JSON object, with the derived commit rate and abort
    /// rate added to the stored fields.
    fn json_value(&self) -> Value {
        let mut value = self.serialize();
        if let Value::Map(fields) = &mut value {
            fields.push(("commit_tps".to_string(), Value::F64(self.commit_tps())));
            fields.push(("abort_rate".to_string(), Value::F64(self.abort_rate())));
        }
        value
    }
}

/// Bounded ring of [`TelemetryPoint`]s: keeps the newest `capacity` points
/// and counts evictions, so the memory held by a long-running sampler is
/// fixed at construction time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeriesRing {
    capacity: usize,
    points: VecDeque<TelemetryPoint>,
    dropped: u64,
}

impl TimeSeriesRing {
    /// A ring that retains at most `capacity` points (0 retains nothing).
    pub fn with_capacity(capacity: usize) -> TimeSeriesRing {
        TimeSeriesRing {
            capacity,
            points: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
        }
    }

    /// Append a point, evicting the oldest when the ring is full.
    pub fn push(&mut self, point: TelemetryPoint) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back(point);
    }

    /// Retained points, oldest first.
    pub fn points(&self) -> Vec<TelemetryPoint> {
        self.points.iter().copied().collect()
    }

    /// Retained points newer than (or at) `t_ms`, oldest first.
    pub fn points_since(&self, t_ms: u64) -> Vec<TelemetryPoint> {
        self.points
            .iter()
            .filter(|p| p.t_ms >= t_ms)
            .copied()
            .collect()
    }

    /// The newest retained point.
    pub fn last(&self) -> Option<&TelemetryPoint> {
        self.points.back()
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum number of retained points.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Points evicted (or rejected by a zero-capacity ring) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the ring as a JSON document:
    /// `{"capacity":N,"dropped":D,"points":[...]}`.
    pub fn to_json(&self) -> String {
        let doc = Value::Map(vec![
            ("capacity".to_string(), self.capacity.serialize()),
            ("dropped".to_string(), self.dropped.serialize()),
            (
                "points".to_string(),
                Value::Seq(self.points.iter().map(TelemetryPoint::json_value).collect()),
            ),
        ]);
        serde_json::to_string(&doc).expect("a value tree always renders")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(t_ms: u64, commits: u64) -> TelemetryPoint {
        TelemetryPoint {
            t_ms,
            interval_ms: 100,
            commits,
            aborts: 1,
            ..TelemetryPoint::default()
        }
    }

    #[test]
    fn derived_rates() {
        let p = point(100, 50);
        assert!((p.commit_tps() - 500.0).abs() < 1e-9);
        assert!((p.abort_rate() - 1.0 / 51.0).abs() < 1e-9);
        let idle = TelemetryPoint::default();
        assert_eq!(idle.commit_tps(), 0.0);
        assert_eq!(idle.abort_rate(), 0.0);
        assert_eq!(idle.prune_rate(), 0.0);
        let pruned = TelemetryPoint {
            chunks_scanned: 25,
            chunks_pruned: 75,
            ..TelemetryPoint::default()
        };
        assert!((pruned.prune_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = TimeSeriesRing::with_capacity(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.push(point(i * 100, i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.dropped(), 2);
        let points = ring.points();
        assert_eq!(points[0].t_ms, 200, "oldest two were evicted");
        assert_eq!(points[2].t_ms, 400);
        assert_eq!(ring.last().unwrap().t_ms, 400);
        assert_eq!(ring.points_since(300).len(), 2);
    }

    #[test]
    fn zero_capacity_ring_retains_nothing() {
        let mut ring = TimeSeriesRing::with_capacity(0);
        ring.push(point(0, 1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn json_document_shape() {
        let mut ring = TimeSeriesRing::with_capacity(8);
        ring.push(point(100, 10));
        ring.push(point(200, 20));
        let json = ring.to_json();
        assert!(json.starts_with("{\"capacity\":8,\"dropped\":0,\"points\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"t_ms\":100"));
        assert!(json.contains("\"commits\":20"));
        assert!(json.contains("\"commit_tps\":200.0"));
        let doc: serde_json::Value = serde_json::from_str(&json).expect("ring JSON parses");
        let points = doc
            .get("points")
            .and_then(|v| v.as_seq())
            .expect("points is an array");
        assert_eq!(points.len(), 2);
        assert!(points[0].get("abort_rate").is_some());
        let empty: serde_json::Value =
            serde_json::from_str(&TimeSeriesRing::with_capacity(4).to_json())
                .expect("empty ring parses");
        assert_eq!(
            empty
                .get("points")
                .and_then(|v| v.as_seq())
                .map(|p| p.len()),
            Some(0)
        );
    }
}
