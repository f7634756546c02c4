//! Turning measured rounds into named metrics.
//!
//! Nothing here is a modelled quantity: the cost model's `busy_nanos`,
//! `queue_wait_nanos`, lock overhead and buffer misses are deliberately left
//! out, because at `time_scale 0` they are outputs of the model, not
//! measurements.

use crate::client::{Class, Sample};
use crate::Spec;
use olxpbench::engine::MetricsSnapshot;
use olxpbench::trace::{LogHistogram, SpanCategory};

/// Everything one round recorded: a freshly set-up engine and its window.
pub struct Round {
    /// Open + schema creation + load, in seconds.
    pub load_s: f64,
    /// `finish_load` (replication catch-up, WAL fsync), in seconds.
    pub catchup_s: f64,
    /// Resident memory right after set-up, in bytes.
    pub rss_after_setup: u64,
    /// Reopen time of the durable engine (0 for in-memory workloads).
    pub reopen_s: f64,
    /// Wall-clock length of the measured window.
    pub secs: f64,
    /// Timed calls, one vector per client thread.
    pub clients: Vec<Vec<Sample>>,
    /// `(operation name, class)`, indexed by [`Sample::op`].
    pub ops: Vec<(String, Class)>,
    /// Engine counters over the window.
    pub delta: MetricsSnapshot,
    /// Write-lock acquisitions over the window.
    pub lock_acquisitions: u64,
    /// Lock requests that found the lock held, over the window.
    pub lock_contended: u64,
    /// Nanoseconds spent acquiring write locks, over the window.
    pub lock_wait_nanos: u64,
    /// Replication lag, in records, each analytical read observed.
    pub lag_records: Vec<u64>,
    /// Resident-memory change over the window.
    pub rss_growth_bytes: f64,
    /// Process CPU time (clients and engine threads) over the window.
    pub cpu_secs: f64,
    /// Share of the machine's CPU time the hypervisor stole over the window.
    pub steal_pct: f64,
}

/// One reported metric.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples the value was computed from.
    pub n: u64,
    /// Read from the engine's stage histograms, so only a traced round has
    /// it.
    pub traced: bool,
}

/// The metrics of one round, or the trimmed means of several, in report
/// order.
#[derive(Clone, Default)]
pub struct MetricSet {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl MetricSet {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &str, n: u64) {
        self.metrics.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit.to_string(),
            n,
            traced: false,
        });
    }

    fn push_traced(&mut self, name: impl Into<String>, value: f64, unit: &str, n: u64) {
        self.push(name, value, unit, n);
        if let Some(m) = self.metrics.last_mut() {
            m.traced = true;
        }
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    /// Trimmed mean of each metric across sets listing the same metrics:
    /// the highest and the lowest value are dropped when at least three
    /// remain.  Sample counts and operation counts add up.
    pub fn trimmed_mean_of(sets: &[MetricSet]) -> MetricSet {
        let mut out = MetricSet {
            attempted: sets.iter().map(|s| s.attempted).sum(),
            failed: sets.iter().map(|s| s.failed).sum(),
            ..MetricSet::default()
        };
        let Some(first) = sets.first() else {
            return out;
        };
        for (i, m) in first.metrics.iter().enumerate() {
            let mut values: Vec<f64> = sets.iter().map(|s| s.metrics[i].value).collect();
            out.metrics.push(Metric {
                value: trimmed_mean(&mut values),
                n: sets.iter().map(|s| s.metrics[i].n).sum(),
                ..m.clone()
            });
        }
        out
    }

    /// The figures of an untraced and a traced round of the same workload:
    /// stage metrics from the traced round, everything else from the
    /// untraced one, plus the tracing overhead on throughput.
    pub fn merge_traced(untraced: &MetricSet, traced: &MetricSet) -> MetricSet {
        let mut out = MetricSet {
            attempted: untraced.attempted + traced.attempted,
            failed: untraced.failed + traced.failed,
            ..MetricSet::default()
        };
        for (u, t) in untraced.metrics.iter().zip(&traced.metrics) {
            out.metrics
                .push(if u.traced { t.clone() } else { u.clone() });
        }
        let overhead = ratio(traced.value("txn_tps"), untraced.value("txn_tps")) - 1.0;
        out.push("trace.overhead_pct", overhead * 100.0, "%", 1);
        out
    }

    /// Human-readable table: name, value, unit, sample count.
    pub fn print_table(&self, with_traced: bool) {
        println!("{:<52} {:>16} {:<8} {:>10}", "metric", "value", "unit", "n");
        for m in self.metrics.iter().filter(|m| with_traced || !m.traced) {
            println!("{:<52} {:>16.6} {:<8} {:>10}", m.name, m.value, m.unit, m.n);
        }
        println!("attempted={} failed={}", self.attempted, self.failed);
    }

    /// One-line JSON result.
    pub fn to_json(&self, with_traced: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| with_traced || !m.traced)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\", \"n\": {}}}",
                    m.name, m.value, m.unit, m.n
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Tab-separated lines a round process hands to its parent.
    pub fn to_lines(&self) -> String {
        let mut out = format!("ops\t{}\t{}\n", self.attempted, self.failed);
        for m in &self.metrics {
            out.push_str(&format!(
                "metric\t{}\t{:?}\t{}\t{}\t{}\n",
                m.name, m.value, m.unit, m.n, m.traced as u8
            ));
        }
        out
    }

    /// Parse [`MetricSet::to_lines`] output; other lines are ignored.
    pub fn from_lines(text: &str) -> Result<MetricSet, String> {
        let mut set = MetricSet::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            let field = |i: usize| -> Result<&str, String> {
                f.get(i)
                    .copied()
                    .ok_or_else(|| format!("short round line: {line}"))
            };
            let num = |i: usize| -> Result<u64, String> {
                field(i)?
                    .parse()
                    .map_err(|e| format!("bad round line {line}: {e}"))
            };
            match f[0] {
                "ops" => {
                    set.attempted = num(1)?;
                    set.failed = num(2)?;
                }
                "metric" => set.metrics.push(Metric {
                    name: field(1)?.to_string(),
                    value: field(2)?
                        .parse()
                        .map_err(|e| format!("bad round line {line}: {e}"))?,
                    unit: field(3)?.to_string(),
                    n: num(4)?,
                    traced: num(5)? == 1,
                }),
                _ => {}
            }
        }
        Ok(set)
    }
}

/// CPU time this process (every thread: clients and engine) has used, in
/// seconds.  `/proc` reports it in `USER_HZ` ticks, which Linux fixes at 100.
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime and stime are the 14th and 15th fields of the line, the 12th and
    // 13th after the parenthesised command name.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// `(steal, total)` CPU ticks of the whole machine so far: steal is the time
/// the hypervisor ran something else while the virtual machine's CPUs had
/// work.
pub fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Resident set size of this process in bytes.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

fn trimmed_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let kept = match values.len() {
        0 => return 0.0,
        n if n >= 5 => &values[1..n - 1],
        _ => &values[..],
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank quantile of sorted values (0 when empty).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank quantile of sorted nanoseconds, in milliseconds.
fn quantile_ms(sorted: &[u64], q: f64) -> f64 {
    quantile(sorted, q) as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Latencies of successful calls matching `keep`, sorted.
fn latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
    let mut out: Vec<u64> = samples
        .iter()
        .filter(|s| s.ok && keep(s))
        .map(|s| s.nanos)
        .collect();
    out.sort_unstable();
    out
}

/// Busy time (ms), mean (µs), p95 (µs) and p99 (µs) of one traced stage,
/// with its span count.
fn stage(h: &LogHistogram) -> (f64, f64, f64, f64, u64) {
    (
        h.sum() as f64 / 1e6,
        h.mean() / 1e3,
        h.value_at_quantile(0.95) as f64 / 1e3,
        h.value_at_quantile(0.99) as f64 / 1e3,
        h.count(),
    )
}

/// Every metric of one round, end-to-end metrics first.  `op_names` lists
/// the operations to report per operation, whether or not this workload
/// runs them.
pub fn round_metrics(spec: &Spec, r: &Round, op_names: &[String]) -> MetricSet {
    let samples: Vec<Sample> = r.clients.iter().flatten().copied().collect();
    let class_of = |s: &Sample| r.ops[s.op].1;
    let mut set = MetricSet {
        attempted: samples.len() as u64,
        failed: samples.iter().filter(|s| !s.ok).count() as u64,
        ..MetricSet::default()
    };
    let ok = set.attempted - set.failed;
    let d = &r.delta;
    let commits = d.commits as f64;

    // End to end.
    set.push("setup_s", r.load_s + r.catchup_s, "s", 1);
    set.push(
        "setup_rss_mb",
        r.rss_after_setup as f64 / (1 << 20) as f64,
        "MB",
        1,
    );
    // The class each workload runs its transactions in: hybrid on
    // fi-hybrid, online transactions elsewhere.
    let txn_class = if spec.hybrid_clients > 0 {
        Class::Hybrid
    } else {
        Class::Oltp
    };
    let txn = latencies(&samples, |s| class_of(s) == txn_class);
    let n = txn.len() as u64;
    set.push("txn_tps", n as f64 / r.secs, "1/s", n);
    set.push("txn_p50_ms", quantile_ms(&txn, 0.50), "ms", n);
    set.push("txn_p95_ms", quantile_ms(&txn, 0.95), "ms", n);
    // Every operation type weighs the same, however rare (TPC-H power
    // style), so su-htap's analytical queries count next to its far more
    // frequent transactions.
    let medians: Vec<f64> = (0..r.ops.len())
        .map(|op| latencies(&samples, |s| s.op == op))
        .filter(|lat| !lat.is_empty())
        .map(|lat| quantile_ms(&lat, 0.50))
        .collect();
    let geomean = (medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len() as f64).exp();
    set.push("op_geomean_ms", geomean, "ms", ok);
    set.push(
        "cpu_us_per_op",
        ratio(r.cpu_secs * 1e6, ok as f64),
        "us",
        ok,
    );
    set.push(
        "rss_growth_b_per_commit",
        ratio(r.rss_growth_bytes, commits),
        "B",
        d.commits,
    );

    // Each client class, ungated: a class a workload does not run reads 0.
    for class in [Class::Oltp, Class::Hybrid, Class::Olap] {
        let lat = latencies(&samples, |s| class_of(s) == class);
        let n = lat.len() as u64;
        let name = class.as_str();
        let rate = if class == Class::Olap { "qps" } else { "tps" };
        set.push(format!("{name}_{rate}"), n as f64 / r.secs, "1/s", n);
        set.push(format!("{name}_p50_ms"), quantile_ms(&lat, 0.50), "ms", n);
        set.push(format!("{name}_p95_ms"), quantile_ms(&lat, 0.95), "ms", n);
        set.push(format!("{name}_p99_ms"), quantile_ms(&lat, 0.99), "ms", n);
        let max = lat.last().map_or(0.0, |&v| v as f64 / 1e6);
        set.push(format!("{name}_max_ms"), max, "ms", n);
    }
    let error_ratio = ratio(set.failed as f64, set.attempted as f64);
    set.push("error_ratio", error_ratio, "ratio", set.attempted);
    set.push("cpu_util", r.cpu_secs / r.secs, "ratio", 1);
    set.push("host.steal_pct", r.steal_pct, "%", 1);

    // Client side, per operation.
    for name in op_names {
        let is_op = |s: &Sample| r.ops[s.op].0 == *name;
        let lat = latencies(&samples, is_op);
        let failures = samples.iter().filter(|s| is_op(s) && !s.ok).count() as u64;
        let n = lat.len() as u64;
        let p50 = quantile_ms(&lat, 0.50);
        set.push(format!("workloads.op.{name}.p50_ms"), p50, "ms", n);
        set.push(
            format!("workloads.op.{name}.failures"),
            failures as f64,
            "count",
            n + failures,
        );
    }

    // Engine: the commit path.
    for (prefix, category) in [
        ("engine.commit", SpanCategory::Commit),
        ("engine.install", SpanCategory::Install),
    ] {
        let (busy, mean, _, p99, n) = stage(d.stages.get(category));
        set.push_traced(format!("{prefix}.busy_ms"), busy, "ms", n);
        set.push_traced(format!("{prefix}.mean_us"), mean, "us", n);
        set.push_traced(format!("{prefix}.p99_us"), p99, "us", n);
    }

    // Transactions: locking.
    let (lock_busy, _, _, _, lock_n) = stage(d.stages.get(SpanCategory::Lock));
    set.push_traced("txn.lock.busy_ms", lock_busy, "ms", lock_n);
    let lock_wait_ms = r.lock_wait_nanos as f64 / 1e6;
    set.push("txn.lock_wait_ms", lock_wait_ms, "ms", r.lock_acquisitions);
    set.push(
        "txn.lock_waits_per_commit",
        ratio(r.lock_contended as f64, commits),
        "ratio",
        d.commits,
    );
    set.push(
        "txn.abort_ratio",
        ratio(d.aborts as f64, commits + d.aborts as f64),
        "ratio",
        d.commits + d.aborts,
    );

    // Storage: the write-ahead log.
    let (wal_busy, wal_mean, _, _, wal_n) = stage(d.stages.get(SpanCategory::WalAppend));
    set.push_traced("storage.wal.append.busy_ms", wal_busy, "ms", wal_n);
    set.push_traced("storage.wal.append.mean_us", wal_mean, "us", wal_n);
    set.push(
        "storage.wal.bytes_per_commit",
        ratio(d.wal.bytes_written as f64, commits),
        "B",
        d.commits,
    );
    set.push(
        "storage.wal.fsyncs",
        d.wal.fsyncs as f64,
        "count",
        d.wal.fsyncs,
    );
    let reopened = u64::from(r.reopen_s > 0.0);
    set.push("storage.wal.recovery_s", r.reopen_s, "s", reopened);

    // Storage: replication and freshness.
    let (apply_busy, _, _, _, apply_n) = stage(d.stages.get(SpanCategory::ReplicationApply));
    set.push_traced(
        "storage.replication.apply.busy_ms",
        apply_busy,
        "ms",
        apply_n,
    );
    set.push(
        "storage.replication.applied_per_commit",
        ratio(d.replication_applied as f64, commits),
        "ratio",
        d.commits,
    );
    let mut lag = r.lag_records.clone();
    lag.sort_unstable();
    for (name, q) in [("p50", 0.50), ("p95", 0.95)] {
        set.push(
            format!("storage.replication.lag_at_read_{name}_records"),
            quantile(&lag, q) as f64,
            "count",
            lag.len() as u64,
        );
    }
    let (wait_busy, _, wait_p95, _, wait_n) = stage(d.stages.get(SpanCategory::FreshnessWait));
    set.push_traced("engine.freshness_wait.busy_ms", wait_busy, "ms", wait_n);
    set.push_traced("engine.freshness_wait.p95_us", wait_p95, "us", wait_n);

    // Storage: the row store and the column store.
    set.push(
        "storage.rowstore.rows_scanned_per_op",
        ratio(d.row_rows_scanned as f64, set.attempted as f64),
        "rows",
        set.attempted,
    );
    let olap_queries = samples
        .iter()
        .filter(|s| class_of(s) == Class::Olap)
        .count() as u64;
    set.push(
        "storage.colstore.rows_scanned_per_query",
        ratio(d.col_rows_scanned as f64, olap_queries as f64),
        "rows",
        olap_queries,
    );
    let pruned = d.chunks_pruned_zonemap + d.chunks_pruned_filter;
    let chunks = d.chunks_scanned + pruned;
    set.push(
        "storage.colstore.prune_ratio",
        ratio(pruned as f64, chunks as f64),
        "ratio",
        chunks,
    );
    set.push(
        "storage.colstore.rows_pruned_encoded",
        d.rows_pruned_encoded as f64,
        "count",
        d.rows_pruned_encoded,
    );
    set.push(
        "storage.colstore.chunks_compacted",
        d.chunks_compacted as f64,
        "count",
        d.chunks_compacted,
    );
    set.push(
        "storage.colstore.compression_ratio",
        d.col_compression_ratio(),
        "ratio",
        1,
    );
    let resident_mb = d.col_bytes_resident as f64 / (1 << 20) as f64;
    set.push("storage.colstore.resident_mb", resident_mb, "MB", 1);
    let (compaction_busy, _, _, _, compaction_n) = stage(d.stages.get(SpanCategory::Compaction));
    set.push_traced(
        "storage.colstore.compaction.busy_ms",
        compaction_busy,
        "ms",
        compaction_n,
    );

    // The query executor: hybrid transactions and analytical queries run
    // plans.
    let (operator_busy, _, _, _, operator_n) = stage(d.stages.get(SpanCategory::QueryOperator));
    set.push_traced("query.operator.busy_ms", operator_busy, "ms", operator_n);
    let plan_ops = samples
        .iter()
        .filter(|s| class_of(s) != Class::Oltp)
        .count() as u64;
    set.push(
        "query.batches_per_query",
        ratio(d.query_batches as f64, plan_ops as f64),
        "count",
        plan_ops,
    );

    set.push("setup.load_s", r.load_s, "s", 1);
    set.push("setup.catchup_s", r.catchup_s, "s", 1);
    set
}
