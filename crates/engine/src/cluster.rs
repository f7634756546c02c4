//! Simulated cluster: nodes, worker pools and partition placement.
//!
//! The paper deploys its systems on 4-node (main experiments) and 16-node
//! (scalability) clusters.  The relevant behaviours of that deployment are:
//!
//! * each node has a bounded amount of compute, so long analytical scans keep
//!   workers busy and online transactions queue behind them — the primary
//!   interference channel;
//! * rows are partitioned across nodes, so transactions touching several
//!   partitions pay two-phase-commit round trips;
//! * the dual-engine architecture dedicates half of the nodes to columnar
//!   replicas (two TiFlash servers out of four in the paper's deployment).
//!
//! [`Cluster`] models exactly these three things: per-node worker pools
//! (acquire/occupy/release with queue-wait measurement), hash partitioning of
//! keys to nodes, and a storage/analytical node split for the dual engine.

use crate::config::{EngineArchitecture, EngineConfig};
use olxp_storage::{BufferPool, Key};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Identifier of a cluster node.
pub type NodeId = usize;

/// A counting semaphore modelling one node's worker threads.
#[derive(Debug)]
struct WorkerPool {
    capacity: usize,
    available: Mutex<usize>,
    released: Condvar,
}

impl WorkerPool {
    fn new(capacity: usize) -> WorkerPool {
        WorkerPool {
            capacity,
            available: Mutex::new(capacity),
            released: Condvar::new(),
        }
    }

    /// Acquire one worker, returning the real nanoseconds spent waiting.
    fn acquire(&self) -> u64 {
        let started = Instant::now();
        let mut available = self.available.lock();
        while *available == 0 {
            self.released.wait(&mut available);
        }
        *available -= 1;
        started.elapsed().as_nanos() as u64
    }

    fn release(&self) {
        let mut available = self.available.lock();
        *available = (*available + 1).min(self.capacity);
        drop(available);
        self.released.notify_one();
    }
}

/// One simulated server.
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    workers: WorkerPool,
    buffer_pool: BufferPool,
}

impl Node {
    /// Node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's buffer pool.
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.buffer_pool
    }
}

/// The simulated cluster.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
    storage_nodes: Vec<NodeId>,
    analytical_nodes: Vec<NodeId>,
    time_scale: f64,
    storage_round_robin: AtomicU64,
    analytical_round_robin: AtomicU64,
}

/// Outcome of occupying a worker for a piece of simulated work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Occupation {
    /// Real nanoseconds spent waiting for a free worker.
    pub queue_wait_nanos: u64,
    /// Simulated service nanoseconds charged.
    pub service_nanos: u64,
}

impl Cluster {
    /// Build the cluster described by an [`EngineConfig`].
    pub fn from_config(config: &EngineConfig) -> Cluster {
        let nodes: Vec<Node> = (0..config.nodes)
            .map(|id| Node {
                id,
                workers: WorkerPool::new(config.workers_per_node),
                buffer_pool: BufferPool::new(config.buffer_pool_pages),
            })
            .collect();
        let all: Vec<NodeId> = (0..config.nodes).collect();
        let (storage_nodes, analytical_nodes) = match config.architecture {
            EngineArchitecture::DualEngine if config.nodes >= 2 => {
                // Half of the nodes host columnar replicas (TiFlash), the rest
                // host the row store (TiKV), mirroring the paper's deployment.
                let split = config.nodes.div_ceil(2);
                (all[..split].to_vec(), all[split..].to_vec())
            }
            _ => (all.clone(), all),
        };
        Cluster {
            nodes,
            storage_nodes,
            analytical_nodes,
            time_scale: config.time_scale,
            storage_round_robin: AtomicU64::new(0),
            analytical_round_robin: AtomicU64::new(0),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes hosting the row store.
    pub fn storage_nodes(&self) -> &[NodeId] {
        &self.storage_nodes
    }

    /// Nodes hosting columnar replicas.
    pub fn analytical_nodes(&self) -> &[NodeId] {
        &self.analytical_nodes
    }

    /// A node reference.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// The storage node owning `(table, key)`: the same hash partitioning
    /// as [`crate::shard_of`], over the storage nodes.
    pub fn partition_for(&self, table: &str, key: &Key) -> NodeId {
        self.storage_nodes[crate::shard_of(table, key, self.storage_nodes.len())]
    }

    /// The storage node owning a whole-table operation (scans start here and
    /// scatter to the rest); rotates to spread load.  Each rotation keeps its
    /// own counter: a shared one would let interleaved storage and analytical
    /// requests skew both rotations (e.g. every analytical call advancing the
    /// storage rotation past a node it never served).
    pub fn next_storage_node(&self) -> NodeId {
        let i = self.storage_round_robin.fetch_add(1, Ordering::Relaxed) as usize;
        self.storage_nodes[i % self.storage_nodes.len()]
    }

    /// The analytical node that should execute the next columnar query.
    pub fn next_analytical_node(&self) -> NodeId {
        let i = self.analytical_round_robin.fetch_add(1, Ordering::Relaxed) as usize;
        self.analytical_nodes[i % self.analytical_nodes.len()]
    }

    /// Occupy one worker of `node` for `service_nanos` of simulated work.
    ///
    /// The calling thread blocks until a worker is free, then blocks for the
    /// scaled service time (spinning for sub-100µs intervals so short
    /// operations keep their relative cost).  Queue waiting is how OLTP/OLAP
    /// interference materialises as latency.
    pub fn occupy(&self, node: NodeId, service_nanos: u64) -> Occupation {
        let node = &self.nodes[node];
        let queue_wait_nanos = node.workers.acquire();
        let real = (service_nanos as f64 * self.time_scale) as u64;
        precise_delay(Duration::from_nanos(real));
        node.workers.release();
        Occupation {
            queue_wait_nanos,
            service_nanos,
        }
    }

    /// The configured time scale.
    pub fn time_scale(&self) -> f64 {
        self.time_scale
    }
}

/// Block the calling thread for approximately `d`.
///
/// `thread::sleep` has ~50–100µs granularity on Linux, so short waits are
/// busy-waited on multi-core hosts. On a host with fewer cores than
/// benchmark threads a yielding spin is counterproductive: the spinning
/// thread keeps getting a full scheduler timeslice (~10ms) between yields
/// while runnable peers hold the core, turning a 100µs wait into a 10ms+
/// stall that drowns the modelled service times. On such hosts every wait
/// goes through `thread::sleep`, trading sub-100µs precision for fairness.
pub fn precise_delay(d: Duration) {
    if d < Duration::from_micros(3) {
        return;
    }
    if d >= Duration::from_micros(150) || low_parallelism_host() {
        std::thread::sleep(d);
        return;
    }
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::thread::yield_now();
    }
}

/// True when the host exposes less parallelism than a typical benchmark run
/// uses, so spinning would starve peer agent threads. The shape tests and
/// experiments drive up to four agent threads plus the coordinator (five
/// runnable threads at peak); below that many cores at least one runnable
/// thread can end up waiting behind a spinner.
fn low_parallelism_host() -> bool {
    use std::sync::OnceLock;
    static LOW: OnceLock<bool> = OnceLock::new();
    *LOW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get() < 5)
            .unwrap_or(true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn dual_engine_splits_nodes() {
        let cluster = Cluster::from_config(&EngineConfig::dual_engine().with_nodes(4));
        assert_eq!(cluster.node_count(), 4);
        assert_eq!(cluster.storage_nodes().len(), 2);
        assert_eq!(cluster.analytical_nodes().len(), 2);
        assert!(cluster
            .storage_nodes()
            .iter()
            .all(|n| !cluster.analytical_nodes().contains(n)));
    }

    #[test]
    fn single_engine_shares_all_nodes() {
        let cluster = Cluster::from_config(&EngineConfig::single_engine().with_nodes(4));
        assert_eq!(cluster.storage_nodes().len(), 4);
        assert_eq!(cluster.analytical_nodes().len(), 4);
    }

    #[test]
    fn partitioning_is_deterministic_and_in_range() {
        let cluster = Cluster::from_config(&EngineConfig::dual_engine().with_nodes(4));
        let a = cluster.partition_for("ITEM", &Key::int(42));
        let b = cluster.partition_for("ITEM", &Key::int(42));
        assert_eq!(a, b);
        assert!(cluster.storage_nodes().contains(&a));
    }

    #[test]
    fn partitioning_matches_the_sip_hash_placement() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        for nodes in 1..=8 {
            let cluster = Cluster::from_config(&EngineConfig::single_engine().with_nodes(nodes));
            let storage = cluster.storage_nodes();
            assert_eq!(storage.len(), nodes);
            for i in 0..10_000 {
                let key = Key::int(i);
                let mut hasher = DefaultHasher::new();
                "ACCOUNT".hash(&mut hasher);
                key.hash(&mut hasher);
                let expected = storage[(hasher.finish() as usize) % storage.len()];
                assert_eq!(cluster.partition_for("ACCOUNT", &key), expected);
            }
        }
    }

    #[test]
    fn round_robin_covers_all_analytical_nodes() {
        let cluster = Cluster::from_config(&EngineConfig::dual_engine().with_nodes(4));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            seen.insert(cluster.next_analytical_node());
        }
        assert_eq!(seen.len(), cluster.analytical_nodes().len());
    }

    #[test]
    fn interleaved_rotations_still_cover_every_node() {
        // With one shared counter, alternating storage/analytical calls made
        // each rotation see only every other index, so a two-node rotation
        // degenerated to a single node.  Per-rotation counters keep full
        // coverage under any interleaving.
        let cluster = Cluster::from_config(&EngineConfig::dual_engine().with_nodes(4));
        let mut storage_seen = std::collections::HashSet::new();
        let mut analytical_seen = std::collections::HashSet::new();
        for _ in 0..4 {
            storage_seen.insert(cluster.next_storage_node());
            analytical_seen.insert(cluster.next_analytical_node());
        }
        assert_eq!(storage_seen.len(), cluster.storage_nodes().len());
        assert_eq!(analytical_seen.len(), cluster.analytical_nodes().len());
    }

    #[test]
    fn occupy_charges_service_time_and_measures_queueing() {
        let config = EngineConfig::single_engine()
            .with_nodes(1)
            .with_workers_per_node(1);
        let cluster = Arc::new(Cluster::from_config(&config));
        // Saturate the single worker with a long occupation from another thread.
        let c2 = Arc::clone(&cluster);
        let blocker = thread::spawn(move || c2.occupy(0, 3_000_000));
        thread::sleep(Duration::from_millis(1));
        let started = Instant::now();
        let occ = cluster.occupy(0, 100_000);
        let elapsed = started.elapsed();
        blocker.join().unwrap();
        assert_eq!(occ.service_nanos, 100_000);
        // The second occupation had to queue behind the 3ms blocker (allowing
        // generous slack for scheduling noise).
        assert!(elapsed >= Duration::from_micros(100));
    }

    #[test]
    fn precise_delay_short_and_zero() {
        precise_delay(Duration::ZERO);
        let started = Instant::now();
        precise_delay(Duration::from_micros(50));
        assert!(started.elapsed() >= Duration::from_micros(45));
    }

    #[test]
    fn time_scale_zero_disables_delays() {
        let config = EngineConfig::single_engine().with_time_scale(0.0);
        let cluster = Cluster::from_config(&config);
        let started = Instant::now();
        cluster.occupy(0, 50_000_000);
        assert!(started.elapsed() < Duration::from_millis(20));
    }
}
