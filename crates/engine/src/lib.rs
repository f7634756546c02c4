//! # olxp-engine
//!
//! The HTAP database substrate OLxPBench-RS benchmarks against.
//!
//! The paper evaluates two commercial distributed HTAP DBMSs — TiDB (a
//! dual-engine system: TiKV row store + asynchronously replicated TiFlash
//! column store, snapshot isolation, SSD storage) and MemSQL (a single-engine
//! in-memory system restricted to read-committed isolation) — plus OceanBase
//! for the scalability study.  None of those systems is available here, so this
//! crate implements the three architectural archetypes from scratch on top of
//! the `olxp-storage`, `olxp-txn` and `olxp-query` substrates:
//!
//! * [`config::EngineArchitecture::SingleEngine`] — MemSQL-like: memory-speed
//!   storage, read-committed isolation, OLTP and OLAP competing inside the same
//!   engine, and a vertical-partitioning penalty for the relationship queries
//!   inside hybrid transactions;
//! * [`config::EngineArchitecture::DualEngine`] — TiDB-like: SSD-speed row
//!   store, repeatable-read snapshot isolation, standalone analytical queries
//!   served by columnar replicas fed through an asynchronous replication log,
//!   hybrid transactions pinned to the row store;
//! * [`config::EngineArchitecture::SharedNothing`] — OceanBase-like
//!   configuration used only by the scalability experiment.
//!
//! A [`cluster::Cluster`] models the distributed deployment (hash
//! partitioning, per-node worker pools, two-phase commit, scatter-gather) and
//! the [`olxp_storage::CostParams`] service-time model converts the physical
//! work reported by the executor into latency, so that the *shape* of every
//! result in the paper's evaluation can be reproduced on one host.
//!
//! The public entry point is [`database::HybridDatabase`]; benchmark driver
//! threads obtain a [`session::Session`] each and execute online transactions,
//! standalone analytical queries and hybrid transactions through it.

pub mod cluster;
pub mod config;
pub mod database;
pub mod error;
pub mod metrics;
pub mod session;
pub mod slowlog;
pub mod telemetry;
pub mod timeseries;

pub use cluster::{Cluster, NodeId};
pub use config::{DurabilityConfig, EngineArchitecture, EngineConfig, FreshnessPolicy};
pub use database::{shard_of, AnalyticalRoute, HybridDatabase, RecoveryReport};
pub use error::{EngineError, EngineResult};
pub use metrics::{
    EngineMetrics, FreshnessSample, MetricsSnapshot, ShardBreakdown, WalMetrics, WorkClass,
};
pub use olxp_storage::SyncPolicy;
pub use session::{Session, TxnHandle};
pub use slowlog::{SlowQueryLog, SlowQueryRecord, SlowTxnLog, SlowTxnRecord};
pub use telemetry::{HealthCheck, HealthReport, TelemetryState};
pub use timeseries::{TelemetryPoint, TimeSeriesRing};
