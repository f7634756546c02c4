//! Engine-side metrics.
//!
//! The experiment harness reads these counters to compute the quantities the
//! paper reports beyond plain latency/throughput: the normalized lock overhead
//! of Figure 4, scan volumes, buffer-pool churn and replication lag.
//!
//! Every scalar metric is declared once, as one row of the `metric_table!`
//! invocation below.  A row names its snapshot field, kind, unit, Prometheus
//! family and label; its doc comment is the help text.  The table generates
//! the [`MetricsSnapshot`] and [`WalMetrics`] fields, the [`EngineMetrics`]
//! atomics and their snapshot, [`MetricsSnapshot::delta_since`] and the
//! [`METRICS`] descriptors that `/metrics` and `/snapshot` loop over, so a
//! new counter is one row plus the increment site that feeds it.

use olxp_trace::{SpanCategory, StageBreakdown};
use parking_lot::Mutex;
use std::slice;
use std::sync::atomic::{AtomicU64, Ordering};

/// Freshness observed by one analytical read at the moment it started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FreshnessSample {
    /// Committed mutation records the replica trailed the row store by.
    pub lag_records: u64,
    /// Commit-timestamp delta between the newest committed mutation and the
    /// newest applied one (logical staleness).
    pub lag_commit_ts: u64,
}

/// Cap on retained freshness samples; beyond it only the counter advances so
/// unbounded runs cannot grow memory without limit.
const FRESHNESS_SAMPLE_CAP: usize = 1 << 20;

/// Whether a metric accumulates or reports a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A running total: deltas subtract, Prometheus exports `<family>_total`.
    Counter,
    /// A level or lifetime value: deltas carry the newer value over.
    Gauge,
}

/// How a metric's values are labelled in Prometheus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricLabel {
    /// One unlabelled value.
    None,
    /// One value per [`WorkClass`], labelled `class`; the `/snapshot` key is
    /// prefixed with the class name (`oltp_statements`).
    WorkClass,
    /// One value under a fixed `name="value"` label: rows sharing a family
    /// split one quantity, e.g. pruned chunks by reason.
    Fixed(&'static str, &'static str),
}

impl MetricLabel {
    /// The label of the `i`-th value of a row.
    fn pair(self, i: usize) -> Option<(&'static str, &'static str)> {
        match self {
            MetricLabel::None => None,
            MetricLabel::WorkClass => Some(("class", WorkClass::ALL[i].name())),
            MetricLabel::Fixed(name, value) => Some((name, value)),
        }
    }
}

/// One row of the metric table.
#[derive(Clone, Copy)]
pub struct Metric {
    /// The `/snapshot` key.
    pub key: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Unit of the value.
    pub unit: &'static str,
    /// Prometheus family; rows sharing one are adjacent in [`METRICS`].
    pub family: &'static str,
    /// How the values are labelled.
    pub label: MetricLabel,
    /// True for numbers the service-time cost model produces rather than
    /// measures.
    pub modelled: bool,
    doc: &'static str,
    values: fn(&MetricsSnapshot) -> &[u64],
    values_mut: fn(&mut MetricsSnapshot) -> &mut [u64],
}

impl Metric {
    /// Help text: the row's doc comment, its unit and, for modelled rows,
    /// a note that the number is not a measurement.
    pub fn help(&self) -> String {
        let modelled = if self.modelled {
            " Modelled by the service-time cost model, not measured."
        } else {
            ""
        };
        format!("{} Unit: {}.{modelled}", self.doc.trim(), self.unit)
    }

    /// This row's values in `snapshot`: one, or one per work class.
    pub fn values<'a>(&self, snapshot: &'a MetricsSnapshot) -> &'a [u64] {
        (self.values)(snapshot)
    }

    // Builders for the rows of the table below.

    const fn label(self, name: &'static str, value: &'static str) -> Metric {
        Metric {
            label: MetricLabel::Fixed(name, value),
            ..self
        }
    }

    const fn modelled(self) -> Metric {
        Metric {
            modelled: true,
            ..self
        }
    }

    /// Override the `/snapshot` key the macro derives from the field name.
    const fn keyed(self, key: &'static str) -> Metric {
        Metric { key, ..self }
    }

    /// Bind a row to its field: the default key, help text and accessors.
    const fn bind(
        self,
        key: &'static str,
        doc: &'static str,
        values: fn(&MetricsSnapshot) -> &[u64],
        values_mut: fn(&mut MetricsSnapshot) -> &mut [u64],
    ) -> Metric {
        Metric {
            key: if self.key.is_empty() { key } else { self.key },
            doc,
            values,
            values_mut,
            ..self
        }
    }
}

const fn counter(family: &'static str, unit: &'static str) -> Metric {
    Metric {
        key: "",
        kind: MetricKind::Counter,
        unit,
        family,
        label: MetricLabel::None,
        modelled: false,
        doc: "",
        values: |_| &[],
        values_mut: |_| &mut [],
    }
}

const fn gauge(family: &'static str, unit: &'static str) -> Metric {
    Metric {
        kind: MetricKind::Gauge,
        ..counter(family, unit)
    }
}

/// Expands the table into the snapshot structs, the engine's atomics and
/// [`METRICS`].  `per_class` rows are `[u64; 4]` fields indexed by
/// [`WorkClass`]; every other row is one `u64`.  `per_class` and `engine`
/// rows are incremented by the engine, which holds an atomic for each
/// value; `database` rows and `wal` rows (the fields of [`WalMetrics`],
/// keyed `wal_<field>` by default) are filled in by
/// [`crate::HybridDatabase::metrics_snapshot`].
macro_rules! metric_table {
    (
        per_class { $( $(#[doc = $c_doc:literal])+ $c:ident = $c_spec:expr, )* }
        engine { $( $(#[doc = $e_doc:literal])+ $e:ident = $e_spec:expr, )* }
        database { $( $(#[doc = $d_doc:literal])+ $d:ident = $d_spec:expr, )* }
        wal { $( $(#[doc = $w_doc:literal])+ $w:ident = $w_spec:expr, )* }
    ) => {
        /// A point-in-time copy of [`EngineMetrics`], completed with the
        /// database's WAL, shard and columnar-footprint values.
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $( $(#[doc = $c_doc])+ pub $c: [u64; 4], )*
            $( $(#[doc = $e_doc])+ pub $e: u64, )*
            $( $(#[doc = $d_doc])+ pub $d: u64, )*
            /// Durability counters (all-zero for in-memory engines).  On a
            /// sharded engine these are aggregated across every shard's WAL
            /// stream.
            pub wal: WalMetrics,
            /// Per-lifecycle-stage latency histograms (empty unless the engine
            /// ran with [`crate::EngineConfig::tracing`] enabled).
            pub stages: StageBreakdown,
            /// Per-shard write-path counters, in shard order.  Empty when the
            /// engine metrics were not sized for a shard breakdown.
            pub per_shard: Vec<ShardBreakdown>,
        }

        /// Durability counters of one engine, surfaced inside
        /// [`MetricsSnapshot`].
        ///
        /// Populated by [`crate::HybridDatabase::metrics_snapshot`] from the
        /// live WAL when durability is enabled; all-zero for in-memory
        /// engines.  The counters accumulate over the engine's lifetime; the
        /// batch percentiles describe every fsync observed so far.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct WalMetrics {
            $( $(#[doc = $w_doc])+ pub $w: u64, )*
        }

        /// Atomic counters maintained by the engine: one per value of the
        /// `per_class` and `engine` rows, plus the freshness samples, stage
        /// histograms and per-shard counters.
        #[derive(Debug, Default)]
        pub struct EngineMetrics {
            $( $c: [AtomicU64; 4], )*
            $( $e: AtomicU64, )*
            freshness_samples: Mutex<Vec<FreshnessSample>>,
            /// Lifecycle-stage latency histograms, populated only while
            /// tracing is enabled (one mutex hold per commit/operation, not
            /// per stage).
            stage: Mutex<StageBreakdown>,
            /// Per-shard counters, sized by [`EngineMetrics::with_shards`];
            /// empty vectors (the [`Default`]) disable the per-shard
            /// breakdown.
            shard_commits: Vec<AtomicU64>,
            shard_lock_waits: Vec<AtomicU64>,
            shard_lock_wait_nanos: Vec<AtomicU64>,
        }

        impl EngineMetrics {
            fn load_into(&self, snapshot: &mut MetricsSnapshot) {
                $( snapshot.$c = std::array::from_fn(|i| self.$c[i].load(Ordering::Relaxed)); )*
                $( snapshot.$e = self.$e.load(Ordering::Relaxed); )*
            }
        }

        /// The metric table: every scalar of [`MetricsSnapshot`], in export
        /// order.
        pub static METRICS: &[Metric] = &[
            $( Metric { label: MetricLabel::WorkClass, ..$c_spec }
                .bind(stringify!($c), concat!($($c_doc),+), |s| &s.$c, |s| &mut s.$c), )*
            $( $e_spec.bind(stringify!($e), concat!($($e_doc),+),
                |s| slice::from_ref(&s.$e), |s| slice::from_mut(&mut s.$e)), )*
            $( $d_spec.bind(stringify!($d), concat!($($d_doc),+),
                |s| slice::from_ref(&s.$d), |s| slice::from_mut(&mut s.$d)), )*
            $( $w_spec.bind(concat!("wal_", stringify!($w)), concat!($($w_doc),+),
                |s| slice::from_ref(&s.wal.$w), |s| slice::from_mut(&mut s.wal.$w)), )*
        ];
    };
}

metric_table! {
    per_class {
        /// Simulated service time, per work class.
        busy_nanos = counter("olxp_busy_nanos", "nanoseconds").modelled(),
        /// Time spent queueing for the simulated node workers, per work class.
        queue_wait_nanos = counter("olxp_queue_wait_nanos", "nanoseconds").modelled(),
        /// Statements executed, per work class.
        statements = counter("olxp_statements", "statements"),
    }
    engine {
        /// Transactions committed through the engine.
        commits = counter("olxp_commits", "transactions"),
        /// Transactions aborted through the engine.
        aborts = counter("olxp_aborts", "transactions"),
        /// Physical rows scanned from row stores.
        row_rows_scanned = counter("olxp_row_rows_scanned", "rows"),
        /// Physical rows scanned from column stores.
        col_rows_scanned = counter("olxp_col_rows_scanned", "rows"),
        /// Column-store chunks whose rows were actually scanned.
        chunks_scanned = counter("olxp_chunks_scanned", "chunks"),
        /// Column-store chunks skipped before row access, by reason; zonemap:
        /// the zone maps (min/max and live counts) proved no row could match.
        chunks_pruned_zonemap = counter("olxp_chunks_pruned", "chunks").label("reason", "zonemap"),
        /// Column-store chunks skipped before row access, by reason; filter:
        /// a fingerprint filter ruled out an equality probe that survived the
        /// zone maps.
        chunks_pruned_filter = counter("olxp_chunks_pruned", "chunks").label("reason", "filter"),
        /// Live rows in surviving compressed main-tier chunks that predicate
        /// evaluation on the encoded columns deselected before decoding.
        rows_pruned_encoded = counter("olxp_rows_pruned_encoded", "rows"),
        /// Delta chunks the background compactor sealed into the compressed
        /// main tier.
        chunks_compacted = counter("olxp_chunks_compacted", "chunks"),
        /// Column batches streamed through the vectorized query executor.
        query_batches = counter("olxp_query_batches", "batches"),
        /// Buffer-pool page misses.
        buffer_misses = counter("olxp_buffer_misses", "pages").modelled(),
        /// Replication log records applied to columnar replicas.
        replication_applied = counter("olxp_replication_applied_records", "records"),
        /// Replication apply attempts that failed (the records stay in the log
        /// and are retried; a non-zero value means the replica fell behind).
        replication_errors = counter("olxp_replication_errors", "attempts"),
        /// Commits that required two-phase commit across partitions.
        distributed_commits = counter("olxp_distributed_commits", "transactions"),
        /// Freshness observations recorded by analytical reads.
        freshness_observations = counter("olxp_freshness_observations", "reads"),
        /// Freshness-bounded analytical reads that timed out waiting for the
        /// replica; any growth means replication cannot hold the staleness
        /// bound.
        freshness_timeouts = counter("olxp_freshness_timeouts", "reads"),
        /// Write-lock acquisitions across every shard's lock table.
        lock_waits = counter("olxp_lock_waits", "acquisitions"),
        /// Real time those write-lock acquisitions took, queueing included.
        lock_wait_nanos = counter("olxp_lock_wait_nanos", "nanoseconds"),
    }
    database {
        /// Hash-partitioned storage shards the engine runs with.
        shards = gauge("olxp_shards", "shards"),
        /// Columnar replica footprint, by tier; resident: bytes held now,
        /// encoded main chunks plus the plain delta tails.
        col_bytes_resident = gauge("olxp_columnar_bytes", "bytes").label("tier", "resident"),
        /// Columnar replica footprint, by tier; plain: bytes the same data
        /// would occupy with every tier unencoded.
        col_bytes_plain = gauge("olxp_columnar_bytes", "bytes").label("tier", "plain"),
    }
    wal {
        /// WAL records appended across every shard stream.
        appends = counter("olxp_wal_appends", "records"),
        /// fsync calls issued by the WAL streams (commit syncs and segment
        /// rotations).
        fsyncs = counter("olxp_wal_fsyncs", "calls"),
        /// Bytes written to WAL segment files.
        bytes_written = counter("olxp_wal_written_bytes", "bytes"),
        /// Commits acknowledged through a durability sync.
        synced_commits = counter("olxp_wal_synced_commits", "transactions"),
        /// Checkpoints taken.
        checkpoints = counter("olxp_checkpoints", "checkpoints").keyed("checkpoints"),
        /// Automatic checkpoints that failed (the WAL keeps the records, so a
        /// failure costs disk space, not durability).
        checkpoint_failures =
            counter("olxp_checkpoint_failures", "checkpoints").keyed("checkpoint_failures"),
        /// Group-commit batch size (committers per fsync) over the engine's
        /// lifetime, by quantile; 0.5: the median, largest on any shard.
        group_batch_p50 = gauge("olxp_wal_group_batch", "commits").label("quantile", "0.5"),
        /// Group-commit batch size (committers per fsync) over the engine's
        /// lifetime, by quantile; 0.9: the 90th percentile.
        group_batch_p90 = gauge("olxp_wal_group_batch", "commits").label("quantile", "0.9"),
        /// Group-commit batch size (committers per fsync) over the engine's
        /// lifetime, by quantile; 0.99: the 99th percentile.
        group_batch_p99 = gauge("olxp_wal_group_batch", "commits").label("quantile", "0.99"),
        /// Group-commit batch size (committers per fsync) over the engine's
        /// lifetime, by quantile; 1: the largest batch observed.
        group_batch_max = gauge("olxp_wal_group_batch", "commits").label("quantile", "1"),
        /// Highest LSN assigned, summed across shard streams.
        last_lsn = gauge("olxp_wal_last_lsn", "records"),
        /// Highest LSN known durable, summed across shard streams.
        durable_lsn = gauge("olxp_wal_durable_lsn", "records"),
    }
}

impl WalMetrics {
    /// Mean committers per fsync (0 when no fsync has happened).
    pub fn commits_per_fsync(&self) -> f64 {
        if self.fsyncs == 0 {
            return 0.0;
        }
        self.synced_commits as f64 / self.fsyncs as f64
    }
}

/// Per-shard slice of the write-path counters, surfaced inside
/// [`MetricsSnapshot::per_shard`].
///
/// Commit and lock-wait counters come from [`EngineMetrics`] (a commit
/// touching several shards counts once on each); the WAL counters are filled
/// in by [`crate::HybridDatabase::metrics_snapshot`] from that shard's own
/// stream and stay zero on in-memory engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardBreakdown {
    /// Commits that wrote to this shard.
    pub commits: u64,
    /// Write-lock acquisitions on this shard's lock table.
    pub lock_waits: u64,
    /// Real nanoseconds those acquisitions took (queueing included).
    pub lock_wait_nanos: u64,
    /// WAL records appended to this shard's stream.
    pub wal_appends: u64,
    /// fsyncs issued on this shard's stream.
    pub wal_fsyncs: u64,
}

impl ShardBreakdown {
    /// Mean lock acquisition time on this shard in nanoseconds.
    pub fn mean_lock_wait_nanos(&self) -> f64 {
        if self.lock_waits == 0 {
            return 0.0;
        }
        self.lock_wait_nanos as f64 / self.lock_waits as f64
    }

    fn since(&self, then: &ShardBreakdown) -> ShardBreakdown {
        ShardBreakdown {
            commits: self.commits.saturating_sub(then.commits),
            lock_waits: self.lock_waits.saturating_sub(then.lock_waits),
            lock_wait_nanos: self.lock_wait_nanos.saturating_sub(then.lock_wait_nanos),
            wal_appends: self.wal_appends.saturating_sub(then.wal_appends),
            wal_fsyncs: self.wal_fsyncs.saturating_sub(then.wal_fsyncs),
        }
    }
}

/// Classification of work for accounting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkClass {
    /// Online transaction statements.
    Oltp,
    /// Standalone analytical queries.
    Olap,
    /// Hybrid transactions (online transaction with an embedded real-time query).
    Hybrid,
    /// Bulk data loading (not charged to any experiment).
    Load,
}

impl WorkClass {
    /// Every class, in the index order of the per-class arrays.
    pub const ALL: [WorkClass; 4] = [
        WorkClass::Oltp,
        WorkClass::Olap,
        WorkClass::Hybrid,
        WorkClass::Load,
    ];

    fn index(self) -> usize {
        self as usize
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkClass::Oltp => "oltp",
            WorkClass::Olap => "olap",
            WorkClass::Hybrid => "hybrid",
            WorkClass::Load => "load",
        }
    }
}

/// One exported value of a snapshot: its table row, label and value.
#[derive(Clone, Copy)]
pub struct Sample {
    /// The table row.
    pub metric: &'static Metric,
    /// The value's Prometheus label, if the row has one.
    pub label: Option<(&'static str, &'static str)>,
    /// The value.
    pub value: u64,
}

impl Sample {
    /// The `/snapshot` key: the row's key, prefixed with the class name for
    /// per-class rows.
    pub fn key(&self) -> String {
        match (self.metric.label, self.label) {
            (MetricLabel::WorkClass, Some((_, class))) => format!("{class}_{}", self.metric.key),
            _ => self.metric.key.to_string(),
        }
    }
}

impl MetricsSnapshot {
    /// Total simulated busy time across all classes.
    pub fn total_busy_nanos(&self) -> u64 {
        self.busy_nanos.iter().sum()
    }

    /// Total queue wait across all classes.
    pub fn total_queue_wait_nanos(&self) -> u64 {
        self.queue_wait_nanos.iter().sum()
    }

    /// Columnar compression ratio: plain bytes per resident byte (1.0 when
    /// nothing is stored or nothing is compressed).
    pub fn col_compression_ratio(&self) -> f64 {
        if self.col_bytes_resident == 0 {
            return 1.0;
        }
        self.col_bytes_plain as f64 / self.col_bytes_resident as f64
    }

    /// Every table value of this snapshot, in [`METRICS`] order.
    pub fn samples(&self) -> impl Iterator<Item = Sample> + '_ {
        METRICS.iter().flat_map(move |metric| {
            metric
                .values(self)
                .iter()
                .enumerate()
                .map(move |(i, &value)| Sample {
                    metric,
                    label: metric.label.pair(i),
                    value,
                })
        })
    }

    /// Difference between two snapshots (`self - earlier`): counters
    /// subtract, gauges and lifetime WAL values keep the newer value.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot {
            stages: self.stages.since(&earlier.stages),
            per_shard: self
                .per_shard
                .iter()
                .enumerate()
                .map(|(i, now)| now.since(&earlier.per_shard.get(i).copied().unwrap_or_default()))
                .collect(),
            ..MetricsSnapshot::default()
        };
        for metric in METRICS {
            let pairs = metric.values(self).iter().zip(metric.values(earlier));
            for (value, (now, then)) in (metric.values_mut)(&mut out).iter_mut().zip(pairs) {
                *value = match metric.kind {
                    MetricKind::Counter => now.saturating_sub(*then),
                    MetricKind::Gauge => *now,
                };
            }
        }
        out
    }
}

impl EngineMetrics {
    /// Create zeroed metrics without a per-shard breakdown.
    pub fn new() -> EngineMetrics {
        EngineMetrics::default()
    }

    /// Create zeroed metrics sized for a per-shard breakdown of `shards`
    /// write-path counters.
    pub fn with_shards(shards: usize) -> EngineMetrics {
        EngineMetrics {
            shard_commits: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_lock_waits: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_lock_wait_nanos: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            ..EngineMetrics::default()
        }
    }

    /// Record simulated service time.
    pub fn add_busy(&self, class: WorkClass, nanos: u64) {
        self.busy_nanos[class.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record real queue wait time.
    pub fn add_queue_wait(&self, class: WorkClass, nanos: u64) {
        self.queue_wait_nanos[class.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record one executed statement.
    pub fn add_statement(&self, class: WorkClass) {
        self.statements[class.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a commit.
    pub fn add_commit(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an abort.
    pub fn add_abort(&self) {
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record rows scanned from a row store.
    pub fn add_row_rows_scanned(&self, rows: u64) {
        self.row_rows_scanned.fetch_add(rows, Ordering::Relaxed);
    }

    /// Record rows scanned from a column store.
    pub fn add_col_rows_scanned(&self, rows: u64) {
        self.col_rows_scanned.fetch_add(rows, Ordering::Relaxed);
    }

    /// Record batches streamed through the vectorized executor.
    pub fn add_query_batches(&self, batches: u64) {
        self.query_batches.fetch_add(batches, Ordering::Relaxed);
    }

    /// Record one query's column-store chunk accounting: chunks whose rows
    /// were scanned, chunks skipped by zone maps or fingerprint filters, and
    /// rows deselected by predicate evaluation on encoded main-tier columns.
    pub fn add_chunk_pruning(
        &self,
        scanned: u64,
        pruned_zonemap: u64,
        pruned_filter: u64,
        rows_pruned_encoded: u64,
    ) {
        for (counter, n) in [
            (&self.chunks_scanned, scanned),
            (&self.chunks_pruned_zonemap, pruned_zonemap),
            (&self.chunks_pruned_filter, pruned_filter),
            (&self.rows_pruned_encoded, rows_pruned_encoded),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Record delta chunks sealed into the compressed main tier.
    pub fn add_chunks_compacted(&self, chunks: u64) {
        if chunks > 0 {
            self.chunks_compacted.fetch_add(chunks, Ordering::Relaxed);
        }
    }

    /// Record buffer-pool misses.
    pub fn add_buffer_misses(&self, misses: u64) {
        self.buffer_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Record applied replication records.
    pub fn add_replication_applied(&self, records: u64) {
        self.replication_applied
            .fetch_add(records, Ordering::Relaxed);
    }

    /// Record a failed replication apply attempt.
    pub fn add_replication_error(&self) {
        self.replication_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the freshness one analytical read observed at its start.
    ///
    /// Samples beyond [`FRESHNESS_SAMPLE_CAP`] advance the observation
    /// counter but are not retained until a consumer drains the store with
    /// [`EngineMetrics::take_freshness_samples`].
    pub fn record_freshness(&self, sample: FreshnessSample) {
        self.freshness_observations.fetch_add(1, Ordering::Relaxed);
        let mut samples = self.freshness_samples.lock();
        if samples.len() < FRESHNESS_SAMPLE_CAP {
            samples.push(sample);
        }
    }

    /// Drain and return the retained freshness samples.
    ///
    /// The benchmark driver drains once when a run starts (discarding
    /// leftovers from earlier runs on the same database), once when the
    /// warm-up ends (so the distribution covers the same window as the
    /// latency summaries), and once at the end to collect the run's samples —
    /// which also keeps long-lived databases from ever pinning the sample cap.
    pub fn take_freshness_samples(&self) -> Vec<FreshnessSample> {
        std::mem::take(&mut *self.freshness_samples.lock())
    }

    /// Record a freshness-bounded analytical read that timed out waiting for
    /// the replica to satisfy its staleness bound.
    pub fn add_freshness_timeout(&self) {
        self.freshness_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a two-phase (multi-partition) commit.
    pub fn add_distributed_commit(&self) {
        self.distributed_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one write-lock acquisition on `shard` that took `nanos`.
    pub fn add_lock_wait(&self, shard: usize, nanos: u64) {
        self.lock_waits.fetch_add(1, Ordering::Relaxed);
        self.lock_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
        if let Some(counter) = self.shard_lock_waits.get(shard) {
            counter.fetch_add(1, Ordering::Relaxed);
            self.shard_lock_wait_nanos[shard].fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Count a commit against every shard it wrote to.
    pub fn add_shard_commits(&self, shards: &[usize]) {
        for &shard in shards {
            if let Some(counter) = self.shard_commits.get(shard) {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Record one duration against a lifecycle stage's histogram.
    pub fn record_stage(&self, category: SpanCategory, nanos: u64) {
        self.stage.lock().record(category, nanos);
    }

    /// Record several stage durations under one lock hold (the commit path
    /// batches its whole breakdown into a single call).
    pub fn record_stages(&self, durations: &[(SpanCategory, u64)]) {
        let mut stage = self.stage.lock();
        for &(category, nanos) in durations {
            stage.record(category, nanos);
        }
    }

    /// Copy of the stage-latency breakdown recorded so far.
    pub fn stage_breakdown(&self) -> StageBreakdown {
        self.stage.lock().clone()
    }

    /// Take a snapshot of every counter.  The WAL, shard layout and columnar
    /// footprint live on the database, which fills them in
    /// ([`crate::HybridDatabase::metrics_snapshot`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot {
            stages: self.stage.lock().clone(),
            per_shard: self
                .shard_commits
                .iter()
                .zip(&self.shard_lock_waits)
                .zip(&self.shard_lock_wait_nanos)
                .map(|((commits, waits), wait_nanos)| ShardBreakdown {
                    commits: commits.load(Ordering::Relaxed),
                    lock_waits: waits.load(Ordering::Relaxed),
                    lock_wait_nanos: wait_nanos.load(Ordering::Relaxed),
                    ..ShardBreakdown::default()
                })
                .collect(),
            ..MetricsSnapshot::default()
        };
        self.load_into(&mut snapshot);
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{render_prometheus, render_snapshot_json};
    use crate::{HybridDatabase, TelemetryPoint, TimeSeriesRing};
    use serde::Value;

    /// Prometheus families the `/metrics` exporter emitted before the metric
    /// table existed.
    const LEGACY_FAMILIES: &[&str] = &[
        "olxp_up",
        "olxp_commits_total",
        "olxp_aborts_total",
        "olxp_statements_total",
        "olxp_replication_applied_records_total",
        "olxp_replication_errors_total",
        "olxp_freshness_timeouts_total",
        "olxp_wal_appends_total",
        "olxp_wal_fsyncs_total",
        "olxp_wal_written_bytes_total",
        "olxp_checkpoints_total",
        "olxp_chunks_scanned_total",
        "olxp_chunks_pruned_total",
        "olxp_chunks_compacted_total",
        "olxp_shards",
        "olxp_replication_lag_records",
        "olxp_columnar_bytes",
        "olxp_stage_nanos",
    ];

    /// `/snapshot` keys emitted before the metric table existed.
    const LEGACY_SNAPSHOT_KEYS: &[&str] = &[
        "uptime_ms",
        "commits",
        "aborts",
        "oltp_statements",
        "olap_statements",
        "hybrid_statements",
        "load_statements",
        "replication_applied",
        "replication_errors",
        "replication_lag_records",
        "freshness_observations",
        "freshness_timeouts",
        "distributed_commits",
        "wal_appends",
        "wal_fsyncs",
        "wal_bytes_written",
        "wal_last_lsn",
        "wal_durable_lsn",
        "checkpoints",
        "chunks_scanned",
        "chunks_pruned_zonemap",
        "chunks_pruned_filter",
        "chunks_compacted",
        "shards",
        "col_bytes_resident",
        "col_bytes_plain",
        "slow_txns",
        "slow_queries",
    ];

    /// Per-point `/timeseries` keys emitted before the metric table existed.
    const LEGACY_TIMESERIES_KEYS: &[&str] = &[
        "t_ms",
        "interval_ms",
        "commits",
        "aborts",
        "oltp_statements",
        "olap_statements",
        "hybrid_statements",
        "replication_applied",
        "replication_errors",
        "replication_lag",
        "wal_appends",
        "wal_fsyncs",
        "wal_bytes",
        "chunks_compacted",
        "chunks_scanned",
        "chunks_pruned",
        "freshness_timeouts",
        "commit_tps",
        "abort_rate",
        "commit_p50_us",
        "commit_p95_us",
        "freshness_p50_us",
        "freshness_p95_us",
    ];

    fn parse(json: &str) -> Value {
        serde_json::from_str(json).expect("exporter JSON parses")
    }

    fn reads(value: Option<&Value>, expected: u64) -> bool {
        matches!(value, Some(Value::I64(v)) if *v as u64 == expected)
    }

    #[test]
    fn metric_table_reaches_every_exporter() {
        let db = HybridDatabase::dual_engine();
        // Every table value gets its own number; `later` adds 7 to each.
        let mut earlier = MetricsSnapshot::default();
        let mut next = 0;
        for metric in METRICS {
            for value in (metric.values_mut)(&mut earlier) {
                next += 1_000;
                *value = next;
            }
        }
        let mut later = earlier.clone();
        for metric in METRICS {
            for value in (metric.values_mut)(&mut later) {
                *value += 7;
            }
        }
        later.stages.record(SpanCategory::Commit, 2_000);
        let delta = later.delta_since(&earlier);
        let prometheus = render_prometheus(&db, &later);
        let snapshot = parse(&render_snapshot_json(&db, &later));

        for (sample, diff) in later.samples().zip(delta.samples()) {
            let metric = sample.metric;
            let name = match metric.kind {
                MetricKind::Counter => format!("{}_total", metric.family),
                MetricKind::Gauge => metric.family.to_string(),
            };
            let labels = match sample.label {
                Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
                None => String::new(),
            };
            let line = format!("{name}{labels} {}", sample.value);
            assert!(
                prometheus.lines().any(|l| l == line),
                "/metrics lacks `{line}`"
            );
            assert_eq!(
                prometheus.matches(&format!("# TYPE {name} ")).count(),
                1,
                "{name} is one family"
            );
            let key = sample.key();
            assert!(
                reads(snapshot.get(&key), sample.value),
                "/snapshot lacks {key}={}",
                sample.value
            );
            let expected = match metric.kind {
                MetricKind::Counter => 7,
                MetricKind::Gauge => sample.value,
            };
            assert_eq!(diff.value, expected, "delta_since of {key}");
            assert_eq!(metric.modelled, metric.help().contains("Modelled"), "{key}");
        }
        let modelled: Vec<&str> = METRICS
            .iter()
            .filter(|m| m.modelled)
            .map(|m| m.key)
            .collect();
        assert_eq!(
            modelled,
            ["busy_nanos", "queue_wait_nanos", "buffer_misses"]
        );

        for family in LEGACY_FAMILIES {
            assert!(
                prometheus.contains(&format!("# TYPE {family} ")),
                "/metrics lost {family}"
            );
        }
        for key in LEGACY_SNAPSHOT_KEYS {
            assert!(snapshot.get(key).is_some(), "/snapshot lost {key}");
        }
        let mut ring = TimeSeriesRing::with_capacity(1);
        ring.push(TelemetryPoint::from_delta(250, 250, &delta, 3));
        let timeseries = parse(&ring.to_json());
        let point = &timeseries
            .get("points")
            .and_then(|p| p.as_seq())
            .expect("points")[0];
        for key in LEGACY_TIMESERIES_KEYS {
            assert!(point.get(key).is_some(), "/timeseries lost {key}");
        }
    }

    #[test]
    fn counters_accumulate_per_class() {
        let m = EngineMetrics::new();
        m.add_busy(WorkClass::Oltp, 100);
        m.add_busy(WorkClass::Olap, 200);
        m.add_busy(WorkClass::Hybrid, 50);
        m.add_statement(WorkClass::Oltp);
        m.add_statement(WorkClass::Oltp);
        m.add_commit();
        let s = m.snapshot();
        assert_eq!(s.busy_nanos[0], 100);
        assert_eq!(s.busy_nanos[1], 200);
        assert_eq!(s.busy_nanos[2], 50);
        assert_eq!(s.statements[0], 2);
        assert_eq!(s.total_busy_nanos(), 350);
        assert_eq!(s.commits, 1);
    }

    #[test]
    fn delta_since_subtracts() {
        let m = EngineMetrics::new();
        m.add_busy(WorkClass::Oltp, 100);
        m.add_commit();
        let early = m.snapshot();
        m.add_busy(WorkClass::Oltp, 40);
        m.add_commit();
        m.add_buffer_misses(7);
        let late = m.snapshot();
        let d = late.delta_since(&early);
        assert_eq!(d.busy_nanos[0], 40);
        assert_eq!(d.commits, 1);
        assert_eq!(d.buffer_misses, 7);
    }

    #[test]
    fn freshness_samples_are_recorded_and_drained() {
        let m = EngineMetrics::new();
        m.record_freshness(FreshnessSample {
            lag_records: 3,
            lag_commit_ts: 9,
        });
        let first = m.take_freshness_samples();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].lag_records, 3);
        m.record_freshness(FreshnessSample {
            lag_records: 7,
            lag_commit_ts: 21,
        });
        let second = m.take_freshness_samples();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].lag_records, 7);
        assert!(m.take_freshness_samples().is_empty());
        assert_eq!(
            m.snapshot().freshness_observations,
            2,
            "counter is lifetime"
        );
    }

    #[test]
    fn freshness_timeouts_are_counted_and_delta() {
        let m = EngineMetrics::new();
        m.add_freshness_timeout();
        let early = m.snapshot();
        m.add_freshness_timeout();
        m.add_freshness_timeout();
        let d = m.snapshot().delta_since(&early);
        assert_eq!(early.freshness_timeouts, 1);
        assert_eq!(d.freshness_timeouts, 2);
    }

    #[test]
    fn replication_errors_are_counted() {
        let m = EngineMetrics::new();
        m.add_replication_error();
        m.add_replication_error();
        let early = m.snapshot();
        m.add_replication_error();
        let d = m.snapshot().delta_since(&early);
        assert_eq!(early.replication_errors, 2);
        assert_eq!(d.replication_errors, 1);
    }

    #[test]
    fn per_shard_counters_accumulate_and_delta() {
        let m = EngineMetrics::with_shards(2);
        m.add_shard_commits(&[0, 1]);
        m.add_shard_commits(&[1]);
        m.add_lock_wait(0, 100);
        m.add_lock_wait(1, 50);
        m.add_lock_wait(9, 25); // out of range: global only, never panics
        let early = m.snapshot();
        assert_eq!(early.per_shard.len(), 2);
        assert_eq!(early.per_shard[0].commits, 1);
        assert_eq!(early.per_shard[1].commits, 2);
        assert_eq!(early.per_shard[0].lock_wait_nanos, 100);
        assert_eq!(early.lock_waits, 3);
        assert_eq!(early.lock_wait_nanos, 175);
        assert_eq!(early.per_shard[0].mean_lock_wait_nanos(), 100.0);
        m.add_shard_commits(&[0]);
        m.add_lock_wait(1, 30);
        let d = m.snapshot().delta_since(&early);
        assert_eq!(d.per_shard[0].commits, 1);
        assert_eq!(d.per_shard[1].commits, 0);
        assert_eq!(d.per_shard[1].lock_wait_nanos, 30);
        assert_eq!(d.lock_waits, 1);
    }

    #[test]
    fn unsized_metrics_have_no_shard_breakdown() {
        let m = EngineMetrics::new();
        m.add_shard_commits(&[0]);
        m.add_lock_wait(0, 10);
        let s = m.snapshot();
        assert!(s.per_shard.is_empty());
        assert_eq!(s.lock_waits, 1, "global counters still work");
    }

    #[test]
    fn stage_histograms_snapshot_and_delta() {
        let m = EngineMetrics::new();
        m.record_stage(SpanCategory::Fsync, 1_000);
        m.record_stages(&[(SpanCategory::Lock, 10), (SpanCategory::Lock, 20)]);
        let early = m.snapshot();
        assert_eq!(early.stages.get(SpanCategory::Lock).count(), 2);
        m.record_stage(SpanCategory::Lock, 30);
        let d = m.snapshot().delta_since(&early);
        assert_eq!(d.stages.get(SpanCategory::Lock).count(), 1);
        assert_eq!(d.stages.get(SpanCategory::Fsync).count(), 0);
        assert!(!m.stage_breakdown().is_empty());
    }

    #[test]
    fn work_class_names() {
        assert_eq!(WorkClass::Oltp.name(), "oltp");
        assert_eq!(WorkClass::Olap.name(), "olap");
        assert_eq!(WorkClass::Hybrid.name(), "hybrid");
        assert_eq!(WorkClass::Load.name(), "load");
    }
}
