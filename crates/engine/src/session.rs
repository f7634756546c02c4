//! Sessions: the API benchmark threads use to talk to the engine.
//!
//! A [`Session`] corresponds to one JDBC connection of the original OLxPBench
//! client.  It offers three groups of operations:
//!
//! * **transactional statements** (`read`, `select_eq`, `scan_prefix`,
//!   `insert`, `update`, `delete`) executed inside a [`TxnHandle`];
//! * **real-time queries inside a transaction** ([`Session::query_in_txn`]) —
//!   the defining ingredient of the paper's hybrid transactions, always served
//!   by the row store because "the SQL engine can only choose a row-based
//!   store or column-based store to handle the hybrid transaction" (§V-B2);
//! * **standalone analytical queries** ([`Session::analytical_query`]) routed
//!   to the columnar replicas or the row store depending on the architecture.
//!
//! Every operation performs the real data manipulation on the in-memory
//! stores, then charges the modelled service time to a cluster node, which is
//! where queueing (and therefore interference) happens.

use crate::config::FreshnessPolicy;
use crate::database::{AnalyticalRoute, HybridDatabase};
use crate::error::{EngineError, EngineResult};
use crate::metrics::{FreshnessSample, WorkClass};
use olxp_query::{
    execute_with, ColumnSource, ExecOptions, ExecStats, Plan, QueryOutput, ShardedRowSource,
};
use olxp_storage::{
    Key, MutationOp, Row, StorageError, StorageMedium, Timestamp, Value, Wal, WalOp,
};
use olxp_trace::{SpanCategory, SpanGuard};
use olxp_txn::{IsolationLevel, Transaction, TxnError};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An open transaction plus its engine-side bookkeeping.
#[derive(Debug)]
pub struct TxnHandle {
    txn: Transaction,
    class: WorkClass,
    partitions: HashSet<usize>,
    /// Real nanoseconds this transaction spent acquiring write locks, summed
    /// over its statements (feeds the commit's stage breakdown while tracing).
    lock_wait_nanos: u64,
}

impl TxnHandle {
    /// The work class this transaction is accounted under.
    pub fn class(&self) -> WorkClass {
        self.class
    }

    /// Number of distinct partitions written so far.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The underlying transaction (read-only access for tests/metrics).
    pub fn txn(&self) -> &Transaction {
        &self.txn
    }
}

/// A connection to a [`HybridDatabase`].
#[derive(Debug, Clone)]
pub struct Session {
    db: Arc<HybridDatabase>,
}

impl Session {
    /// Create a session (use [`HybridDatabase::session`]).
    pub(crate) fn new(db: Arc<HybridDatabase>) -> Session {
        Session { db }
    }

    /// The database this session talks to.
    pub fn database(&self) -> &Arc<HybridDatabase> {
        &self.db
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle
    // ------------------------------------------------------------------

    /// Begin a transaction of the given work class at the engine's default
    /// isolation level.
    pub fn begin(&self, class: WorkClass) -> TxnHandle {
        self.begin_with_isolation(class, self.db.config().default_isolation())
    }

    /// Begin a transaction with an explicit isolation level.
    pub fn begin_with_isolation(&self, class: WorkClass, isolation: IsolationLevel) -> TxnHandle {
        TxnHandle {
            txn: self.db.txn_manager().begin(isolation),
            class,
            partitions: HashSet::new(),
            lock_wait_nanos: 0,
        }
    }

    /// Commit a transaction.
    ///
    /// The write set is taken out of the transaction and grouped by owning
    /// shard once (ascending, statement order kept within a shard); then:
    ///
    /// 1. **validate** — snapshot isolation's first committer wins;
    /// 2. **timestamp** — a durable engine takes each touched shard's commit
    ///    gate for read before allocating the commit timestamp and holds it
    ///    through the markers, so a checkpoint's `(commit_ts, LSN)` cut never
    ///    splits a transaction's timestamp from its WAL records;
    /// 3. **log** — each shard logs `Begin` plus its mutations; a cross-shard
    ///    commit adds a `Prepare` per shard and forces all of them durable;
    /// 4. **install + replicate** — each write becomes a row-store version and
    ///    a record in its shard's replication log;
    /// 5. **mark** — each shard logs a `Commit` marker (the 2PC decision when
    ///    cross-shard), then the gates are released;
    /// 6. **sync** — every marker is made durable per the sync policy.
    ///
    /// Stages 3, 5 and 6 run only on a durable engine.  Recovery replays a
    /// prepared transaction iff any shard holds its marker.
    ///
    /// Every failure takes one exit.  Before install the transaction aborts,
    /// and recovery presumes its unmarked records aborted.  After install the
    /// effects cannot be undone: a WAL failure finishes the transaction in
    /// memory and returns the storage error — its durability is unknown, the
    /// disk should be treated as failed, and it is not retryable.
    pub fn commit(&self, mut handle: TxnHandle) -> EngineResult<()> {
        let mut trace = CommitTrace::start(handle.txn.id());
        let mgr = self.db.txn_manager();
        let groups = self.group_by_shard(std::mem::take(handle.txn.write_set_mut()).into_ops());
        if groups.is_empty() {
            trace.span.cancel();
            mgr.finish_commit(&mut handle.txn)?;
            self.db.note_commit();
            return Ok(());
        }
        let shards: Vec<usize> = groups.iter().map(|&(shard, _)| shard).collect();
        let writes: usize = groups.iter().map(|(_, ops)| ops.len()).sum();
        let mut installed = false;
        if let Err(e) = self.commit_stages(&handle.txn, groups, &mut trace, &mut installed) {
            trace.span.cancel();
            if installed {
                mgr.finish_commit(&mut handle.txn)?;
                self.db.note_commit();
            } else {
                mgr.abort(&mut handle.txn);
                self.db.note_abort();
            }
            return Err(e);
        }
        mgr.finish_commit(&mut handle.txn)?;
        self.account_commit(&handle, &shards, writes as u64);
        trace.finish(&self.db, &shards, handle.lock_wait_nanos);
        // Runs outside the commit gate: the checkpoint takes it exclusively.
        self.db.maybe_checkpoint();
        Ok(())
    }

    /// Split a write set by owning shard, ascending (the checkpointer's gate
    /// order too, so gates cannot deadlock), keeping statement order.
    fn group_by_shard(&self, writes: Vec<WalOp>) -> Vec<(usize, Vec<WalOp>)> {
        let mut groups: Vec<(usize, Vec<WalOp>)> = Vec::new();
        for op in writes {
            let shard = self.db.shard_for(&op.table, &op.key);
            match groups.binary_search_by_key(&shard, |&(s, _)| s) {
                Ok(i) => groups[i].1.push(op),
                Err(i) => groups.insert(i, (shard, vec![op])),
            }
        }
        groups
    }

    /// Stages 1–6 of [`Session::commit`]; sets `installed` once the write set
    /// is in the row store.
    fn commit_stages(
        &self,
        txn: &Transaction,
        groups: Vec<(usize, Vec<WalOp>)>,
        trace: &mut CommitTrace,
        installed: &mut bool,
    ) -> EngineResult<()> {
        use SpanCategory::*;
        if txn.isolation().validates_write_conflicts() {
            for (shard, ops) in &groups {
                for op in ops {
                    let rows = self.db.row_partition(*shard, &op.table)?;
                    if rows.latest_commit_ts(&op.key) > Some(txn.begin_read_ts()) {
                        let (table, key) = (op.table.clone(), op.key.to_string());
                        return Err(TxnError::WriteConflict { table, key }.into());
                    }
                }
            }
        }
        // Empty on an in-memory engine, which skips every WAL stage.
        let wals: Vec<(usize, &Arc<Wal>)> = groups
            .iter()
            .filter_map(|&(shard, _)| Some((shard, self.db.wal_for_shard(shard)?)))
            .collect();
        let gates: Vec<_> = wals
            .iter()
            .map(|&(s, _)| self.db.commit_gate_read_for(s))
            .collect();
        let commit_ts = self.db.txn_manager().prepare_commit(txn)?;
        let wal_txn = wals.first().map_or(0, |_| self.db.allocate_txn_id());
        let cross_shard = groups.len() > 1;
        let mut prepared = Vec::new();
        for ((shard, ops), &(_, wal)) in groups.iter().zip(&wals) {
            trace.time(WalAppend, *shard, || {
                wal.log_mutations(wal_txn, ops, commit_ts)?;
                if cross_shard {
                    prepared.push((*shard, wal, wal.log_prepare(wal_txn)?));
                }
                Ok::<_, StorageError>(())
            })?;
        }
        for (shard, wal, lsn) in prepared {
            trace.time(TwoPcPrepare, shard, || wal.sync_to(lsn))?;
        }
        // One install span for the whole write set, tagged with its first shard.
        trace.time(Install, groups[0].0, || self.install(groups, commit_ts))?;
        *installed = true;
        let marker = if cross_shard { TwoPcCommit } else { WalAppend };
        let mut marked = Vec::with_capacity(wals.len());
        for &(shard, wal) in &wals {
            let lsn = trace.time(marker, shard, || wal.log_commit(wal_txn, commit_ts))?;
            marked.push((shard, wal, lsn));
        }
        drop(gates);
        // The row locks are still held, so per-key WAL order matches
        // commit-timestamp order; group commit batches concurrent syncs.
        for (shard, wal, lsn) in marked {
            trace.time(Fsync, shard, || wal.sync_to(lsn))?;
        }
        Ok(())
    }

    /// Install each write as a row-store version and append it to its shard's
    /// replication log: the row store gets the only copy of each row.
    fn install(&self, groups: Vec<(usize, Vec<WalOp>)>, commit_ts: Timestamp) -> EngineResult<()> {
        for (shard, ops) in groups {
            let log = self.db.replication_for(shard);
            for op in ops {
                let rows = self.db.row_partition(shard, &op.table)?;
                match (op.op, op.row.clone()) {
                    (MutationOp::Insert, Some(row)) => rows.insert(row, commit_ts).map(drop),
                    (MutationOp::Update, Some(row)) => rows.update(&op.key, row, commit_ts),
                    (MutationOp::Delete, _) => rows.delete(&op.key, commit_ts),
                    (_, None) => Err(StorageError::Internal("write without a row image".into())),
                }?;
                log.append(&op.table, op.op, op.key, op.row, commit_ts);
            }
        }
        Ok(())
    }

    /// Account a successful commit: WAL records, per-shard counts, modelled
    /// write service time and 2PC network round-trips (modelled only across
    /// cluster partitions; shards share the process).
    fn account_commit(&self, handle: &TxnHandle, shards: &[usize], writes: u64) {
        let cost = &self.db.config().cost;
        let medium = self.db.config().medium();
        let partitions = handle.partitions.len() as u64;
        let mut nanos = cost.write(medium).saturating_mul(writes);
        if partitions > 1 {
            nanos += cost.network(2 * (partitions - 1));
        }
        if partitions > 1 || shards.len() > 1 {
            self.db.metrics().add_distributed_commit();
        }
        if self.db.is_durable() {
            // Begin and marker per shard (plus Prepare when cross-shard).
            let per_shard = if shards.len() > 1 { 3 } else { 2 };
            let records = writes + per_shard * shards.len() as u64;
            self.db.note_wal_records(records);
            if medium == StorageMedium::Ssd {
                // Real WAL streams admit one log force at a time, so the
                // amortised force is paid once per touched shard's device,
                // not per row; only the install cost stays on the node.
                let extra = cost.ssd_write_extra_ns;
                nanos = nanos.saturating_sub(extra.saturating_mul(writes));
                for &shard in shards {
                    self.db.occupy_wal_device(shard, handle.class, extra);
                }
            }
        }
        let node = handle.partitions.iter().next().copied();
        let node = node.unwrap_or_else(|| self.db.cluster().next_storage_node());
        self.db.charge(node, handle.class, nanos);
        self.db.metrics().add_shard_commits(shards);
        self.db.note_commit();
    }

    /// Roll back a transaction.
    pub fn abort(&self, mut handle: TxnHandle) {
        self.db.txn_manager().abort(&mut handle.txn);
        self.db.note_abort();
    }

    /// Run `body` inside a transaction with automatic retry of retryable
    /// failures (wait-die aborts, lock timeouts and write conflicts), the way
    /// the OLxPBench client re-submits aborted transactions.
    pub fn run_transaction<T>(
        &self,
        class: WorkClass,
        max_attempts: usize,
        mut body: impl FnMut(&Session, &mut TxnHandle) -> EngineResult<T>,
    ) -> EngineResult<T> {
        let mut last_err = None;
        for _ in 0..max_attempts.max(1) {
            let mut handle = self.begin(class);
            match body(self, &mut handle) {
                Ok(value) => match self.commit(handle) {
                    Ok(()) => return Ok(value),
                    Err(e) if e.is_retryable() => {
                        last_err = Some(e);
                        continue;
                    }
                    Err(e) => return Err(e),
                },
                Err(e) if e.is_retryable() => {
                    self.abort(handle);
                    last_err = Some(e);
                    continue;
                }
                Err(e) => {
                    self.abort(handle);
                    return Err(e);
                }
            }
        }
        Err(last_err.unwrap_or(EngineError::Txn(TxnError::InvalidState {
            operation: "retry",
            state: "exhausted",
        })))
    }

    // ------------------------------------------------------------------
    // Transactional statements
    // ------------------------------------------------------------------

    /// Point read by primary key.
    pub fn read(
        &self,
        handle: &mut TxnHandle,
        table: &str,
        key: &Key,
    ) -> EngineResult<Option<Row>> {
        self.note_statement(handle);
        // Read-your-own-writes.
        if let Some(effect) = handle.txn.write_set().effective_row(table, key) {
            let row = effect.cloned();
            self.charge_point_read(handle, table, key, 1);
            return Ok(row);
        }
        let row_table = self.db.row_table_for(table, key)?;
        let read_ts = self.db.txn_manager().statement_read_ts(&handle.txn);
        let row = row_table.get(key, read_ts).map(|r| Row::clone(&r));
        self.charge_point_read(handle, table, key, 1);
        self.db.metrics().add_row_rows_scanned(1);
        Ok(row)
    }

    /// Equality lookup on arbitrary columns.
    ///
    /// If the columns form a prefix of the primary key or of a secondary
    /// index, the lookup is served by an index seek; otherwise it degenerates
    /// into a full scan — on the SSD-backed dual engine an *index full scan of
    /// random reads*, which is the paper's composite-primary-key bottleneck
    /// (§VI-C1).
    pub fn select_eq(
        &self,
        handle: &mut TxnHandle,
        table: &str,
        columns: &[&str],
        values: &[Value],
    ) -> EngineResult<Vec<Row>> {
        self.note_statement(handle);
        let partitions = self.db.row_partitions(table)?;
        let schema = Arc::clone(partitions[0].schema());
        let positions = schema.column_indices(columns)?;
        let read_ts = self.db.txn_manager().statement_read_ts(&handle.txn);
        let cost = &self.db.config().cost;
        let medium = self.db.config().medium();
        let lookup_key = Key::new(values.to_vec());

        // Primary-key prefix?
        let pk = schema.primary_key();
        if positions.len() <= pk.len() && pk[..positions.len()] == positions[..] {
            let mut rows = Vec::new();
            let examined = if positions.len() == pk.len() {
                // A complete primary key routes to exactly one shard.
                self.db.row_table_for(table, &lookup_key)?.prefix_scan(
                    &lookup_key,
                    read_ts,
                    |_, row| {
                        rows.push(Row::clone(row));
                    },
                )
            } else {
                // A strict prefix hashes differently from the full keys it
                // covers, so every shard's partition must be consulted.
                partitions
                    .iter()
                    .map(|part| {
                        part.prefix_scan(&lookup_key, read_ts, |_, row| {
                            rows.push(Row::clone(row));
                        })
                    })
                    .sum()
            };
            let nanos = cost.statement_overhead_ns
                + cost.point_read(medium)
                + cost.row_scan(medium, examined.saturating_sub(1) as u64);
            let node = self.db.cluster().partition_for(table, &lookup_key);
            self.db.metrics().add_row_rows_scanned(examined as u64);
            self.db.charge(node, handle.class, nanos);
            return Ok(rows);
        }

        // Secondary-index prefix?
        let index_pos = schema.indexes().iter().position(|idx| {
            positions.len() <= idx.columns.len() && idx.columns[..positions.len()] == positions[..]
        });
        if let Some(pos) = index_pos {
            let mut rows: Vec<Row> = Vec::new();
            let mut examined = 0;
            for part in &partitions {
                let (pairs, part_examined) = part.index_lookup(pos, &lookup_key, read_ts)?;
                rows.extend(pairs.into_iter().map(|(_, r)| Row::clone(&r)));
                examined += part_examined;
            }
            let nanos = cost.statement_overhead_ns
                + cost.point_read(medium)
                + cost.point_read(medium).saturating_mul(rows.len() as u64)
                + cost.row_scan(medium, examined as u64);
            let node = self.db.cluster().partition_for(table, &lookup_key);
            self.db.metrics().add_row_rows_scanned(examined as u64);
            self.db.charge(node, handle.class, nanos);
            return Ok(rows);
        }

        // No usable index: full scan of every shard's partition.
        let mut rows = Vec::new();
        let examined: usize = partitions
            .iter()
            .map(|part| {
                part.scan(read_ts, |_, row| {
                    let matches = positions
                        .iter()
                        .zip(values)
                        .all(|(&p, v)| row.get(p) == Some(v));
                    if matches {
                        rows.push(Row::clone(row));
                    }
                })
            })
            .sum();
        let per_row = match medium {
            // The paper: "MemSQL uses time-consuming full table scans in
            // memory, while TiDB uses index full scans that perform a random
            // read on the solid-state disk" (§VI-D).
            StorageMedium::Memory => cost.mem_scan_row_ns,
            StorageMedium::Ssd => cost.ssd_point_read_ns / 4,
        };
        let mut nanos = cost.statement_overhead_ns + per_row.saturating_mul(examined as u64);
        if medium == StorageMedium::Ssd {
            let node_id = self.db.cluster().next_storage_node();
            let pages = cost.pages_for_rows(examined as u64);
            let outcome = self
                .db
                .cluster()
                .node(node_id)
                .buffer_pool()
                .access(table, pages);
            self.db.metrics().add_buffer_misses(outcome.misses);
            nanos += cost.page_misses(outcome.misses);
            self.db.metrics().add_row_rows_scanned(examined as u64);
            self.db.charge(node_id, handle.class, nanos);
        } else {
            let node_id = self.db.cluster().next_storage_node();
            self.db.metrics().add_row_rows_scanned(examined as u64);
            self.db.charge(node_id, handle.class, nanos);
        }
        Ok(rows)
    }

    /// Range scan over a primary-key prefix (e.g. all order lines of an
    /// order).
    pub fn scan_prefix(
        &self,
        handle: &mut TxnHandle,
        table: &str,
        prefix: &Key,
    ) -> EngineResult<Vec<Row>> {
        self.note_statement(handle);
        let read_ts = self.db.txn_manager().statement_read_ts(&handle.txn);
        let mut rows = Vec::new();
        // A prefix hashes differently from the full keys under it, so the
        // scan consults every shard's partition.
        let examined: usize = self
            .db
            .row_partitions(table)?
            .iter()
            .map(|part| {
                part.prefix_scan(prefix, read_ts, |_, row| {
                    rows.push(Row::clone(row));
                })
            })
            .sum();
        let cost = &self.db.config().cost;
        let medium = self.db.config().medium();
        let nanos = cost.statement_overhead_ns
            + cost.point_read(medium)
            + cost.row_scan(medium, examined as u64);
        let node = self.db.cluster().partition_for(table, prefix);
        self.db.metrics().add_row_rows_scanned(examined as u64);
        self.db.charge(node, handle.class, nanos);
        Ok(rows)
    }

    /// Buffer an insert.
    pub fn insert(&self, handle: &mut TxnHandle, table: &str, row: Row) -> EngineResult<()> {
        self.note_statement(handle);
        let schema = Arc::clone(self.db.row_table(table)?.schema());
        schema.validate_row(&row)?;
        let key = schema.primary_key_of(&row);
        self.lock(handle, table, &key)?;
        let already_exists = match handle.txn.write_set().effective_row(table, &key) {
            Some(Some(_)) => true,
            Some(None) => false,
            None => {
                let read_ts = self.db.txn_manager().statement_read_ts(&handle.txn);
                self.db
                    .row_table_for(table, &key)?
                    .get(&key, read_ts)
                    .is_some()
            }
        };
        if already_exists {
            return Err(EngineError::Storage(StorageError::DuplicateKey {
                table: table.to_string(),
                key: key.to_string(),
            }));
        }
        self.buffer_write(handle, MutationOp::Insert, table, key, Some(row));
        Ok(())
    }

    /// Buffer an update of an existing row.
    pub fn update(
        &self,
        handle: &mut TxnHandle,
        table: &str,
        key: &Key,
        row: Row,
    ) -> EngineResult<()> {
        self.note_statement(handle);
        let row_table = self.db.row_table_for(table, key)?;
        row_table.schema().validate_row(&row)?;
        self.lock(handle, table, key)?;
        let exists = match handle.txn.write_set().effective_row(table, key) {
            Some(Some(_)) => true,
            Some(None) => false,
            None => {
                let read_ts = self.db.txn_manager().statement_read_ts(&handle.txn);
                row_table.get(key, read_ts).is_some()
            }
        };
        if !exists {
            return Err(EngineError::Storage(StorageError::KeyNotFound {
                table: table.to_string(),
                key: key.to_string(),
            }));
        }
        self.buffer_write(handle, MutationOp::Update, table, key.clone(), Some(row));
        Ok(())
    }

    /// Buffer a delete of an existing row.
    pub fn delete(&self, handle: &mut TxnHandle, table: &str, key: &Key) -> EngineResult<()> {
        self.note_statement(handle);
        let row_table = self.db.row_table_for(table, key)?;
        self.lock(handle, table, key)?;
        let exists = match handle.txn.write_set().effective_row(table, key) {
            Some(Some(_)) => true,
            Some(None) => false,
            None => {
                let read_ts = self.db.txn_manager().statement_read_ts(&handle.txn);
                row_table.get(key, read_ts).is_some()
            }
        };
        if !exists {
            return Err(EngineError::Storage(StorageError::KeyNotFound {
                table: table.to_string(),
                key: key.to_string(),
            }));
        }
        self.buffer_write(handle, MutationOp::Delete, table, key.clone(), None);
        Ok(())
    }

    /// Append one write to the transaction's write set and charge it.
    fn buffer_write(
        &self,
        handle: &mut TxnHandle,
        op: MutationOp,
        table: &str,
        key: Key,
        row: Option<Row>,
    ) {
        handle
            .partitions
            .insert(self.db.cluster().partition_for(table, &key));
        self.charge_write_statement(handle, table);
        let table = table.to_string();
        handle.txn.write_set_mut().push(WalOp {
            table,
            op,
            key,
            row,
        });
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Execute a real-time query *inside* a transaction (the hybrid
    /// transaction pattern).  Always runs on the row store at the
    /// transaction's snapshot; on the single engine the vertical-partitioning
    /// penalty applies.
    pub fn query_in_txn(&self, handle: &mut TxnHandle, plan: &Plan) -> EngineResult<QueryOutput> {
        self.note_statement(handle);
        let read_ts = self.db.txn_manager().statement_read_ts(&handle.txn);
        let source = ShardedRowSource::new(self.db.sharded_row_tables(), read_ts);
        let output = execute_with(plan, &source, self.exec_options())?;
        self.note_query_batches(&output.stats);
        let cost = &self.db.config().cost;
        let medium = self.db.config().medium();
        let mut nanos = self.row_plan_cost(&output.stats, medium);
        if self.db.is_single_engine() && handle.class == WorkClass::Hybrid {
            // Vertical partitioning turns the relationship query inside the
            // hybrid transaction into many joins (§VI-A1).
            nanos = (nanos as f64 * cost.vertical_partition_join_factor) as u64;
        }
        let node = self.db.cluster().next_storage_node();
        if medium == StorageMedium::Ssd {
            let pages = cost.pages_for_rows(output.stats.physical_rows());
            let table_name = plan
                .referenced_tables()
                .into_iter()
                .next()
                .unwrap_or_default();
            let outcome = self
                .db
                .cluster()
                .node(node)
                .buffer_pool()
                .access(&table_name, pages);
            self.db.metrics().add_buffer_misses(outcome.misses);
            nanos += cost.page_misses(outcome.misses);
        }
        self.db
            .metrics()
            .add_row_rows_scanned(output.stats.physical_rows());
        self.db.charge(node, handle.class, nanos);
        Ok(output)
    }

    /// Execute a standalone analytical query (no enclosing transaction).
    ///
    /// On the dual engine the query is usually served by the columnar replicas
    /// on the analytical nodes; a configurable fraction is served by the row
    /// store, and both the single-engine and shared-nothing archetypes always
    /// compete with OLTP for the same nodes.
    ///
    /// Column-store reads honour the configured [`FreshnessPolicy`]: the read
    /// first waits (or synchronously catches the replica up) until the bound
    /// holds, then records the freshness it actually observed in the output's
    /// [`ExecStats`] and the engine metrics.  A replica that cannot satisfy
    /// the bound within the configured timeout — or a replication step that
    /// fails outright — surfaces as an error instead of silently degrading to
    /// stale answers.
    pub fn analytical_query(&self, plan: &Plan) -> EngineResult<QueryOutput> {
        self.db.metrics().add_statement(WorkClass::Olap);
        let cost = &self.db.config().cost;
        let medium = self.db.config().medium();
        // Wall clock for the slow-query log, freshness wait included; only
        // sampled while the log is enabled so the common path pays a branch.
        let query_started = if self.db.slow_query_log().is_enabled() {
            Some(Instant::now())
        } else {
            None
        };
        match self.db.route_analytical() {
            AnalyticalRoute::ColumnStore => {
                let wait = olxp_trace::span(SpanCategory::FreshnessWait, 0, 0);
                let freshness = self.ensure_freshness()?;
                if wait.is_armed() {
                    let nanos = wait.finish();
                    self.db
                        .metrics()
                        .record_stage(SpanCategory::FreshnessWait, nanos);
                }
                let tables = self.db.col_tables();
                let source = ColumnSource::new(&tables);
                let mut output = execute_with(plan, &source, self.exec_options())?;
                output.stats.freshness_lag_records = freshness.lag_records;
                output.stats.freshness_lag_ts = freshness.lag_commit_ts;
                self.db.metrics().record_freshness(freshness);
                self.note_query_batches(&output.stats);
                let mut nanos = cost.statement_overhead_ns
                    + cost.columnar_scan(output.stats.physical_rows())
                    + cost.join(output.stats.join_probes + output.stats.join_build_rows)
                    + cost.aggregate(output.stats.agg_input_rows)
                    + cost.sort(output.stats.sort_rows);
                let node = if self.db.config().has_dedicated_analytical_nodes() {
                    nanos += cost.network(
                        (self.db.cluster().analytical_nodes().len() as u64).saturating_sub(1),
                    );
                    self.db.cluster().next_analytical_node()
                } else {
                    nanos += cost.network(
                        (self.db.cluster().storage_nodes().len() as u64).saturating_sub(1),
                    );
                    self.db.cluster().next_storage_node()
                };
                self.db
                    .metrics()
                    .add_col_rows_scanned(output.stats.physical_rows());
                self.db.charge(node, WorkClass::Olap, nanos);
                self.note_slow_query(
                    query_started,
                    "column_store",
                    output.stats.freshness_lag_records,
                    &output.stats,
                );
                Ok(output)
            }
            AnalyticalRoute::RowStore => {
                let read_ts = self.db.txn_manager().oracle().read_ts();
                let source = ShardedRowSource::new(self.db.sharded_row_tables(), read_ts);
                let output = execute_with(plan, &source, self.exec_options())?;
                // The row store is the authoritative copy: zero staleness.
                self.db
                    .metrics()
                    .record_freshness(FreshnessSample::default());
                self.note_query_batches(&output.stats);
                let mut nanos = self.row_plan_cost(&output.stats, medium);
                nanos += cost
                    .network((self.db.cluster().storage_nodes().len() as u64).saturating_sub(1));
                let node = self.db.cluster().next_storage_node();
                if medium == StorageMedium::Ssd {
                    let pages = cost.pages_for_rows(output.stats.physical_rows());
                    let table_name = plan
                        .referenced_tables()
                        .into_iter()
                        .next()
                        .unwrap_or_default();
                    let outcome = self
                        .db
                        .cluster()
                        .node(node)
                        .buffer_pool()
                        .access(&table_name, pages);
                    self.db.metrics().add_buffer_misses(outcome.misses);
                    nanos += cost.page_misses(outcome.misses);
                }
                self.db
                    .metrics()
                    .add_row_rows_scanned(output.stats.physical_rows());
                self.db.charge(node, WorkClass::Olap, nanos);
                // The row store is the authoritative copy, so lag is zero.
                self.note_slow_query(query_started, "row_store", 0, &output.stats);
                Ok(output)
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// One consistent snapshot of the replication lag across every shard's
    /// pipeline: record lag sums, timestamp lag is the worst shard's.
    ///
    /// Per shard, the appended watermarks are read *before* the applied
    /// watermarks, and applied watermarks only grow, so the computed lag
    /// never exceeds the true lag at the moment the appended side was
    /// sampled.  A sample that satisfies a bound therefore proves the bound
    /// held.
    fn freshness_now(&self) -> FreshnessSample {
        let mut lag_records = 0;
        let mut lag_commit_ts = 0;
        for log in self.db.replication_logs() {
            let appended = log.last_appended_lsn();
            let appended_ts = log.last_appended_commit_ts();
            let applied = log.last_applied_lsn();
            let applied_ts = log.last_applied_commit_ts();
            lag_records += appended.saturating_sub(applied);
            lag_commit_ts = lag_commit_ts.max(appended_ts.saturating_sub(applied_ts));
        }
        FreshnessSample {
            lag_records,
            lag_commit_ts,
        }
    }

    /// Wait (or synchronously catch up) until the configured freshness bound
    /// holds, then return the freshness observed at that moment.
    ///
    /// With the background applier running the read parks on the log's
    /// applied watermark; without it, the read drives replication itself via
    /// [`HybridDatabase::replicate_step`].  Either way a replication failure
    /// or an unsatisfiable bound surfaces as an error — a broken replica no
    /// longer degrades silently to stale answers.
    fn ensure_freshness(&self) -> EngineResult<FreshnessSample> {
        let policy = self.db.config().freshness;
        let logs = self.db.replication_logs();
        let lag_of = |log: &Arc<olxp_storage::ReplicationLog>| {
            log.last_appended_lsn()
                .saturating_sub(log.last_applied_lsn())
        };

        if let FreshnessPolicy::Eventual = policy {
            // No bound to wait for; still drive replication forward when
            // nobody else does, and surface failures.
            if !self.db.has_background_applier() {
                self.db.replicate_step()?;
            }
            return Ok(self.freshness_now());
        }

        // Strict pins every shard's watermark at entry: everything committed
        // before the read started must be visible, later commits need not be.
        let strict_targets: Vec<u64> = logs.iter().map(|l| l.last_appended_lsn()).collect();
        let satisfied = |sample: &FreshnessSample| -> bool {
            match policy {
                FreshnessPolicy::Eventual => true,
                // Judged on the sample the read reports, so the lag it
                // observes can never exceed the bound it waited for.
                FreshnessPolicy::BoundedRecords(n) => sample.lag_records <= n,
                FreshnessPolicy::BoundedNanos(bound) => logs.iter().all(|log| {
                    // The queue alone cannot prove the bound: the applier
                    // drains records in batches before applying them, and the
                    // age of those in-flight records is unknown.  The queue
                    // front's age counts only when every unapplied record is
                    // still queued (pending covers the whole lag); otherwise
                    // only a zero record lag proves the bound.  The queue is
                    // snapshotted *before* the lag watermarks: appends in
                    // between then inflate the lag, never the pending count,
                    // so an in-flight old record can only make the check
                    // fail, not pass.
                    let (pending, age) = log.queue_snapshot();
                    let lag = lag_of(log);
                    match age {
                        Some(age) => pending as u64 >= lag && age.as_nanos() as u64 <= bound,
                        None => lag == 0,
                    }
                }),
                FreshnessPolicy::Strict => logs
                    .iter()
                    .zip(&strict_targets)
                    .all(|(log, &target)| log.last_applied_lsn() >= target),
            }
        };

        let timeout = Duration::from_millis(self.db.config().freshness_timeout_ms);
        let started = Instant::now();
        let deadline = started + timeout;
        loop {
            let sample = self.freshness_now();
            if satisfied(&sample) {
                return Ok(sample);
            }
            let now = Instant::now();
            if now >= deadline {
                let sample = self.freshness_now();
                self.db.metrics().add_freshness_timeout();
                return Err(EngineError::FreshnessTimeout {
                    policy: policy.describe(),
                    lag_records: sample.lag_records,
                    waited_ms: now.duration_since(started).as_millis() as u64,
                });
            }
            // Re-checked every iteration: the applier can be shut down while
            // a reader waits, in which case the reader must start driving
            // replication itself instead of parking on a watermark no thread
            // will ever advance.
            if self.db.has_background_applier() {
                // Park until an applied watermark reaches the LSN that
                // satisfies the bound (re-sampled each iteration: writers may
                // keep appending).  Record- and LSN-based bounds only change
                // when a watermark moves, so they can sleep until the
                // deadline; time-based bounds also change with wall time and
                // re-check every millisecond.
                let budget = deadline - now;
                match policy {
                    FreshnessPolicy::BoundedNanos(_) => {
                        let log = logs
                            .iter()
                            .max_by_key(|l| lag_of(l))
                            .expect("at least one shard");
                        log.wait_for_applied(
                            log.last_applied_lsn() + 1,
                            Duration::from_millis(1).min(budget),
                        );
                    }
                    FreshnessPolicy::BoundedRecords(n) => {
                        // The other shards' lag eats into the laggiest
                        // shard's allowance: the total stays within the
                        // bound only once this shard's lag shrinks to
                        // whatever the rest leaves over.
                        // One lag snapshot, so `others` cannot underflow
                        // when writers append between two reads.
                        let lags: Vec<u64> = logs.iter().map(&lag_of).collect();
                        let (worst, &worst_lag) = lags
                            .iter()
                            .enumerate()
                            .max_by_key(|&(_, lag)| *lag)
                            .expect("at least one shard");
                        let others = lags.iter().sum::<u64>() - worst_lag;
                        let allowance = n.saturating_sub(others);
                        let log = &logs[worst];
                        log.wait_for_applied(
                            log.last_appended_lsn().saturating_sub(allowance),
                            budget,
                        );
                    }
                    _ => {
                        if let Some((i, log)) = logs
                            .iter()
                            .enumerate()
                            .find(|(i, l)| l.last_applied_lsn() < strict_targets[*i])
                        {
                            log.wait_for_applied(strict_targets[i], budget);
                        }
                    }
                }
            } else {
                self.db.replicate_step()?;
            }
        }
    }

    /// Executor options derived from the engine configuration: vectorized
    /// scans with the configured batch size and chunk-pruning mode.
    fn exec_options(&self) -> ExecOptions {
        ExecOptions::batched(self.db.config().batch_size).with_pruning(self.db.config().pruning)
    }

    /// Account the batches a query streamed through the vectorized executor
    /// and the chunk pruning its columnar scans performed (row-store scans
    /// report no chunk activity, so this is a no-op for them).
    fn note_query_batches(&self, stats: &ExecStats) {
        if stats.batches_scanned > 0 {
            self.db.metrics().add_query_batches(stats.batches_scanned);
        }
        self.db.metrics().add_chunk_pruning(
            stats.chunks_scanned,
            stats.chunks_pruned_zonemap,
            stats.chunks_pruned_filter,
            stats.rows_pruned_encoded,
        );
        // Operator timings only exist while tracing is enabled; one stage
        // histogram entry per operator node the plan executed.
        if !stats.operator_nanos.is_empty() {
            let durations: Vec<(olxp_trace::SpanCategory, u64)> = stats
                .operator_nanos
                .iter()
                .map(|&nanos| (olxp_trace::SpanCategory::QueryOperator, nanos))
                .collect();
            self.db.metrics().record_stages(&durations);
        }
    }

    /// Retain the query in the slow-query log when it crossed the configured
    /// threshold.  `started` is `Some` only while the log is enabled, so the
    /// common (disabled) path costs a single branch.
    fn note_slow_query(
        &self,
        started: Option<Instant>,
        route: &'static str,
        lag_records: u64,
        stats: &ExecStats,
    ) {
        let Some(started) = started else { return };
        self.db
            .slow_query_log()
            .observe(crate::slowlog::SlowQueryRecord {
                route,
                total_nanos: started.elapsed().as_nanos() as u64,
                lag_records,
                operators: stats.operator_nanos.clone(),
            });
    }

    fn note_statement(&self, handle: &mut TxnHandle) {
        handle.txn.note_statement();
        self.db.metrics().add_statement(handle.class);
    }

    fn lock(&self, handle: &mut TxnHandle, table: &str, key: &Key) -> EngineResult<()> {
        // Each shard has its own lock table; the key locks on the shard that
        // owns it, so unrelated shards never contend on a shared lock map.
        let shard = self.db.shard_for(table, key);
        let started = Instant::now();
        self.db
            .txn_manager()
            .lock_for_write_on(shard, &mut handle.txn, table, key)?;
        // The per-shard lock-wait counters stay on regardless of tracing (the
        // shards experiment reads them); the span, backdated over the wait
        // that just ended, and the histogram are gated.
        let waited = started.elapsed().as_nanos() as u64;
        self.db.metrics().add_lock_wait(shard, waited);
        handle.lock_wait_nanos += waited;
        let span = olxp_trace::span(SpanCategory::Lock, shard as u32, handle.txn.id());
        if span.is_armed() {
            let nanos = span.backdate(waited).finish();
            self.db.metrics().record_stage(SpanCategory::Lock, nanos);
        }
        Ok(())
    }

    fn charge_point_read(&self, handle: &TxnHandle, table: &str, key: &Key, rows: u64) {
        let cost = &self.db.config().cost;
        let medium = self.db.config().medium();
        let mut nanos =
            cost.statement_overhead_ns + cost.point_read(medium).saturating_mul(rows.max(1));
        let node = self.db.cluster().partition_for(table, key);
        if medium == StorageMedium::Ssd {
            let outcome = self.db.cluster().node(node).buffer_pool().access(table, 1);
            self.db.metrics().add_buffer_misses(outcome.misses);
            nanos += cost.page_misses(outcome.misses);
        }
        self.db.charge(node, handle.class, nanos);
    }

    fn charge_write_statement(&self, handle: &TxnHandle, table: &str) {
        // The write itself is charged at commit; a statement still costs the
        // per-statement overhead plus the index maintenance read.
        let cost = &self.db.config().cost;
        let medium = self.db.config().medium();
        let nanos = cost.statement_overhead_ns + cost.point_read(medium);
        let node = self
            .db
            .cluster()
            .partition_for(table, &Key::int(handle.txn.id() as i64));
        self.db.charge(node, handle.class, nanos);
    }

    fn row_plan_cost(&self, stats: &ExecStats, medium: StorageMedium) -> u64 {
        let cost = &self.db.config().cost;
        cost.statement_overhead_ns
            + cost.row_scan(medium, stats.physical_rows())
            + cost.join(stats.join_probes + stats.join_build_rows)
            + cost.aggregate(stats.agg_input_rows)
            + cost.sort(stats.sort_rows)
    }
}

/// Stage timing of one commit: the whole-commit span plus each stage's
/// duration summed across shards (one histogram entry per stage per commit).
struct CommitTrace {
    span: SpanGuard,
    txn: u64,
    stages: [u64; SpanCategory::COUNT],
}

impl CommitTrace {
    fn start(txn: u64) -> CommitTrace {
        let span = olxp_trace::span(SpanCategory::Commit, 0, txn);
        let stages = [0; SpanCategory::COUNT];
        CommitTrace { span, txn, stages }
    }

    /// Run one stage's `work` against `shard` under its own span.
    fn time<T>(&mut self, stage: SpanCategory, shard: usize, work: impl FnOnce() -> T) -> T {
        let span = olxp_trace::span(stage, shard as u32, self.txn);
        let out = work();
        self.stages[stage.index()] += span.finish();
        out
    }

    /// Epilogue of a traced, successful commit: the whole-commit span, one
    /// stage-histogram update under a single lock hold and — when the commit
    /// crossed the configured threshold — a slow-transaction record carrying
    /// the full breakdown.
    fn finish(mut self, db: &HybridDatabase, shards: &[usize], lock_wait_nanos: u64) {
        if !self.span.is_armed() {
            return;
        }
        self.span.retag(shards[0] as u32, self.txn);
        let total = self.span.finish();
        self.stages[SpanCategory::Commit.index()] = total;
        let mut stages: Vec<(SpanCategory, u64)> = olxp_trace::ALL_CATEGORIES
            .iter()
            .map(|&c| (c, self.stages[c.index()]))
            .filter(|&(c, nanos)| nanos > 0 || c == SpanCategory::Commit)
            .collect();
        db.metrics().record_stages(&stages);
        let slow_log = db.slow_txn_log();
        if slow_log.is_enabled() && total >= slow_log.threshold_nanos() {
            // Lock waits happened during the statements and were recorded
            // per acquisition in `lock()`; the slow record lists them first.
            if lock_wait_nanos > 0 {
                stages.insert(0, (SpanCategory::Lock, lock_wait_nanos));
            }
            slow_log.observe(crate::slowlog::SlowTxnRecord {
                txn_id: self.txn,
                total_nanos: total,
                shards: shards.iter().map(|&s| s as u32).collect(),
                stages,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use olxp_query::{col, lit, AggFunc, AggSpec, QueryBuilder};
    use olxp_storage::{ColumnDef, DataType, TableSchema};
    use olxp_trace::SpanCategory;

    fn test_db(mut config: EngineConfig) -> Arc<HybridDatabase> {
        config.time_scale = 0.0; // disable real delays in unit tests
        let db = HybridDatabase::new(config).unwrap();
        db.create_table(
            TableSchema::new(
                "ITEM",
                vec![
                    ColumnDef::new("i_id", DataType::Int, false),
                    ColumnDef::new("i_name", DataType::Str, false),
                    ColumnDef::new("i_price", DataType::Decimal, false),
                ],
                vec!["i_id"],
            )
            .unwrap()
            .with_index("idx_item_name", vec!["i_name"], false)
            .unwrap(),
        )
        .unwrap();
        for i in 0..200i64 {
            db.load_row(
                "ITEM",
                Row::new(vec![
                    Value::Int(i),
                    Value::Str(format!("item-{}", i % 10)),
                    Value::Decimal(100 + i),
                ]),
            )
            .unwrap();
        }
        db.finish_load().unwrap();
        db
    }

    #[test]
    fn insert_read_commit_roundtrip() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        session
            .insert(
                &mut txn,
                "ITEM",
                Row::new(vec![
                    Value::Int(1000),
                    Value::Str("new-item".into()),
                    Value::Decimal(999),
                ]),
            )
            .unwrap();
        // Read-your-own-writes before commit.
        let row = session.read(&mut txn, "ITEM", &Key::int(1000)).unwrap();
        assert!(row.is_some());
        session.commit(txn).unwrap();

        let mut txn2 = session.begin(WorkClass::Oltp);
        let row = session.read(&mut txn2, "ITEM", &Key::int(1000)).unwrap();
        assert_eq!(row.unwrap()[2], Value::Decimal(999));
        session.commit(txn2).unwrap();
        assert!(db.metrics_snapshot().commits >= 2);
    }

    #[test]
    fn duplicate_insert_is_rejected_at_statement_time() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        let err = session.insert(
            &mut txn,
            "ITEM",
            Row::new(vec![
                Value::Int(5),
                Value::Str("x".into()),
                Value::Decimal(1),
            ]),
        );
        assert!(matches!(
            err,
            Err(EngineError::Storage(StorageError::DuplicateKey { .. }))
        ));
        session.abort(txn);
    }

    #[test]
    fn update_then_analytical_query_sees_replicated_data() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        session
            .update(
                &mut txn,
                "ITEM",
                &Key::int(3),
                Row::new(vec![
                    Value::Int(3),
                    Value::Str("item-3".into()),
                    Value::Decimal(1),
                ]),
            )
            .unwrap();
        session.commit(txn).unwrap();
        // Drain replication so the column store has the update before the
        // routed queries (which alternate between both engines) observe it.
        db.finish_load().unwrap();

        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Min, 2)])
            .build();
        for _ in 0..10 {
            let out = session.analytical_query(&plan).unwrap();
            let min_price = out.rows[0][0].as_f64();
            assert_eq!(min_price, Some(0.01), "replicated update is visible");
        }
    }

    #[test]
    fn select_eq_uses_index_or_scan() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        // Primary-key lookup.
        let rows = session
            .select_eq(&mut txn, "ITEM", &["i_id"], &[Value::Int(7)])
            .unwrap();
        assert_eq!(rows.len(), 1);
        // Secondary-index lookup.
        let rows = session
            .select_eq(
                &mut txn,
                "ITEM",
                &["i_name"],
                &[Value::Str("item-3".into())],
            )
            .unwrap();
        assert_eq!(rows.len(), 20);
        // Non-indexed lookup degenerates to a scan but still answers.
        let rows = session
            .select_eq(&mut txn, "ITEM", &["i_price"], &[Value::Decimal(150)])
            .unwrap();
        assert_eq!(rows.len(), 1);
        session.commit(txn).unwrap();
        assert!(db.metrics_snapshot().row_rows_scanned >= 200);
    }

    #[test]
    fn hybrid_query_in_txn_runs_on_row_store() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Hybrid);
        let plan = QueryBuilder::scan("ITEM")
            .filter(col(1).eq(lit("item-3")))
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Min, 2)])
            .build();
        let out = session.query_in_txn(&mut txn, &plan).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(out.stats.rows_scanned >= 200);
        session.commit(txn).unwrap();
        let snapshot = db.metrics_snapshot();
        assert!(snapshot.busy_nanos[2] > 0, "hybrid work is accounted");
    }

    #[test]
    fn single_engine_charges_vertical_partition_penalty_for_hybrid() {
        let single = test_db(EngineConfig::single_engine());
        let dual = test_db(EngineConfig::dual_engine());
        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Min, 2)])
            .build();

        let run = |db: &Arc<HybridDatabase>| -> u64 {
            let session = db.session();
            let mut txn = session.begin(WorkClass::Hybrid);
            session.query_in_txn(&mut txn, &plan).unwrap();
            session.commit(txn).unwrap();
            db.metrics_snapshot().busy_nanos[2]
        };
        let single_busy = run(&single);
        let dual_busy = run(&dual);
        // The single engine's hybrid statement is penalised enough to overcome
        // its memory-speed scan advantage.
        assert!(
            single_busy > dual_busy,
            "single {single_busy} should exceed dual {dual_busy}"
        );
    }

    #[test]
    fn queries_stream_batches_per_configured_batch_size() {
        let db = test_db(EngineConfig::dual_engine().with_batch_size(64));
        let session = db.session();
        let plan = QueryBuilder::scan("ITEM").build();
        let mut txn = session.begin(WorkClass::Hybrid);
        let out = session.query_in_txn(&mut txn, &plan).unwrap();
        session.commit(txn).unwrap();
        assert_eq!(
            out.stats.batches_scanned, 4,
            "200 rows at batch_size 64 stream as 4 batches"
        );
        assert_eq!(
            out.stats.rows_materialized, out.stats.output_rows,
            "rows materialize only at the plan root"
        );
        assert!(db.metrics_snapshot().query_batches >= 4);
    }

    #[test]
    fn write_conflict_under_snapshot_isolation() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        // txn A snapshots, then txn B updates and commits, then A tries.
        let mut a = session.begin(WorkClass::Oltp);
        let _ = session.read(&mut a, "ITEM", &Key::int(9)).unwrap();
        let mut b = session.begin(WorkClass::Oltp);
        session
            .update(
                &mut b,
                "ITEM",
                &Key::int(9),
                Row::new(vec![
                    Value::Int(9),
                    Value::Str("b".into()),
                    Value::Decimal(1),
                ]),
            )
            .unwrap();
        session.commit(b).unwrap();
        let result = session.update(
            &mut a,
            "ITEM",
            &Key::int(9),
            Row::new(vec![
                Value::Int(9),
                Value::Str("a".into()),
                Value::Decimal(2),
            ]),
        );
        let commit_result = if result.is_ok() {
            session.commit(a)
        } else {
            session.abort(a);
            result.map(|_| ())
        };
        assert!(
            commit_result.is_err(),
            "first-committer-wins must reject the stale writer"
        );
        assert!(commit_result.unwrap_err().is_retryable());
    }

    #[test]
    fn run_transaction_retries_retryable_errors() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut attempts = 0;
        let result: EngineResult<u64> = session.run_transaction(WorkClass::Oltp, 5, |s, txn| {
            attempts += 1;
            if attempts < 3 {
                return Err(EngineError::Txn(TxnError::Aborted {
                    table: "ITEM".into(),
                    key: "k".into(),
                }));
            }
            let row = s.read(txn, "ITEM", &Key::int(1))?.expect("row exists");
            Ok(row[0].as_int().unwrap() as u64)
        });
        assert_eq!(result.unwrap(), 1);
        assert_eq!(attempts, 3);
    }

    /// A config that always routes analytical queries to the column store so
    /// freshness enforcement is exercised deterministically.
    fn colstore_only(config: EngineConfig) -> EngineConfig {
        let mut config = config;
        config.analytical_rowstore_percent = 0;
        config
    }

    #[test]
    fn strict_freshness_sees_every_prior_commit_without_an_applier() {
        let config = colstore_only(EngineConfig::dual_engine())
            .with_background_applier(false)
            .with_freshness(FreshnessPolicy::Strict);
        let db = test_db(config);
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        session
            .update(
                &mut txn,
                "ITEM",
                &Key::int(3),
                Row::new(vec![
                    Value::Int(3),
                    Value::Str("item-3".into()),
                    Value::Decimal(1),
                ]),
            )
            .unwrap();
        session.commit(txn).unwrap();

        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Min, 2)])
            .build();
        let out = session.analytical_query(&plan).unwrap();
        assert_eq!(out.rows[0][0].as_f64(), Some(0.01), "strict read is fresh");
        assert_eq!(out.stats.freshness_lag_records, 0);
        assert_eq!(out.stats.freshness_lag_ts, 0);
        assert!(db.metrics_snapshot().freshness_observations >= 1);
    }

    #[test]
    fn bounded_records_freshness_is_enforced_and_observed() {
        let config = colstore_only(EngineConfig::dual_engine())
            .with_background_applier(false)
            .with_freshness(FreshnessPolicy::BoundedRecords(5));
        let db = test_db(config);
        let session = db.session();
        // Stack up more lag than the bound allows.
        for i in 0..50i64 {
            let mut txn = session.begin(WorkClass::Oltp);
            session
                .insert(
                    &mut txn,
                    "ITEM",
                    Row::new(vec![
                        Value::Int(10_000 + i),
                        Value::Str("fresh".into()),
                        Value::Decimal(1),
                    ]),
                )
                .unwrap();
            session.commit(txn).unwrap();
        }
        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Count, 0)])
            .build();
        let out = session.analytical_query(&plan).unwrap();
        assert!(
            out.stats.freshness_lag_records <= 5,
            "observed lag {} exceeds the bound",
            out.stats.freshness_lag_records
        );
    }

    #[test]
    fn freshness_timeout_surfaces_instead_of_serving_stale() {
        // No applier and a bound the (empty-stepped) pipeline cannot satisfy:
        // simulate a stalled pipeline by appending a record for a table with
        // no replica-side progress possible — here we shut the applier down
        // and jam the log with a poison record that every step fails on.
        let config = colstore_only(EngineConfig::dual_engine())
            .with_background_applier(false)
            .with_freshness(FreshnessPolicy::Strict)
            .with_freshness_timeout_ms(50);
        let db = test_db(config);
        let session = db.session();
        // Poison: an insert record without a row image fails to apply and is
        // retained at the head of the queue.
        db.replication_log().append(
            "ITEM",
            olxp_storage::MutationOp::Insert,
            Key::int(42_000),
            None,
            db.txn_manager().oracle().read_ts(),
        );
        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Count, 0)])
            .build();
        let err = session.analytical_query(&plan);
        assert!(
            err.is_err(),
            "a broken replica must not serve stale answers"
        );
        assert!(db.metrics_snapshot().replication_errors >= 1);
    }

    #[test]
    fn freshness_timeout_is_counted_in_metrics() {
        // Background applier running but wedged on a poison record (an
        // insert without a row image never applies): a Strict reader parks
        // on the applied watermark until the deadline, and the timeout must
        // land in the freshness_timeouts SLO counter.
        let config = colstore_only(EngineConfig::dual_engine())
            .with_freshness(FreshnessPolicy::Strict)
            .with_freshness_timeout_ms(50);
        let db = test_db(config);
        let session = db.session();
        db.replication_log().append(
            "ITEM",
            olxp_storage::MutationOp::Insert,
            Key::int(43_000),
            None,
            db.txn_manager().oracle().read_ts(),
        );
        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Count, 0)])
            .build();
        let err = session.analytical_query(&plan);
        assert!(
            matches!(err, Err(EngineError::FreshnessTimeout { .. })),
            "expected a freshness timeout, got {err:?}"
        );
        assert_eq!(db.metrics_snapshot().freshness_timeouts, 1);
    }

    #[test]
    fn slow_query_log_records_offenders_with_operator_breakdown() {
        // A large time_scale turns the modelled statement overhead (12µs
        // simulated) into a real multi-millisecond delay inside `charge`, so
        // every analytical query deterministically crosses the 1ms threshold
        // regardless of build profile.
        let mut config = EngineConfig::dual_engine()
            .with_tracing(true)
            .with_slow_query_threshold_ms(1);
        config.time_scale = 300.0;
        let db = HybridDatabase::new(config).unwrap();
        db.create_table(
            TableSchema::new(
                "ITEM",
                vec![
                    ColumnDef::new("i_id", DataType::Int, false),
                    ColumnDef::new("i_price", DataType::Decimal, false),
                ],
                vec!["i_id"],
            )
            .unwrap(),
        )
        .unwrap();
        for i in 0..50i64 {
            db.load_row("ITEM", Row::new(vec![Value::Int(i), Value::Decimal(i)]))
                .unwrap();
        }
        db.finish_load().unwrap();
        let session = db.session();
        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Count, 0)])
            .build();
        session.analytical_query(&plan).unwrap();
        let records = db.slow_query_log().records();
        assert_eq!(records.len(), 1, "the query must cross the 1ms threshold");
        let record = &records[0];
        assert!(record.total_nanos >= 1_000_000);
        assert!(record.route == "column_store" || record.route == "row_store");
        assert!(
            !record.operators.is_empty(),
            "tracing was on, so operator timings are captured"
        );
        assert!(record.format().starts_with("slow query: "));
        assert!(record.format().contains("op0="));

        // Disabled by default: no threshold, no records.
        let quiet = test_db(EngineConfig::dual_engine());
        let quiet_session = quiet.session();
        quiet_session.analytical_query(&plan).unwrap();
        assert!(quiet.slow_query_log().is_empty());
    }

    #[test]
    fn bounded_nanos_accepts_a_drained_pipeline() {
        let config = colstore_only(EngineConfig::dual_engine())
            .with_freshness(FreshnessPolicy::BoundedNanos(50_000_000));
        let db = test_db(config);
        let session = db.session();
        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Count, 0)])
            .build();
        let out = session.analytical_query(&plan).unwrap();
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn missing_update_target_is_reported() {
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        let err = session.update(
            &mut txn,
            "ITEM",
            &Key::int(10_000),
            Row::new(vec![
                Value::Int(10_000),
                Value::Str("ghost".into()),
                Value::Decimal(0),
            ]),
        );
        assert!(matches!(
            err,
            Err(EngineError::Storage(StorageError::KeyNotFound { .. }))
        ));
        session.abort(txn);
    }

    // --- tracing integration ---------------------------------------------

    /// Serialises tests that flip the process-wide trace gate so parallel
    /// test threads cannot observe each other's gate state.
    fn trace_gate_lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn trace_temp_dir(tag: &str) -> String {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos();
        std::env::temp_dir()
            .join(format!("olxp-trace-{tag}-{}-{nanos}", std::process::id()))
            .display()
            .to_string()
    }

    /// One loaded key per shard of a two-shard `test_db`, so a transaction
    /// touching both is guaranteed to take the cross-shard 2PC path.
    fn keys_on_both_shards() -> [i64; 2] {
        let mut picks = [None, None];
        for i in 0..200i64 {
            let shard = crate::database::shard_of("ITEM", &Key::int(i), 2);
            if picks[shard].is_none() {
                picks[shard] = Some(i);
            }
        }
        [picks[0].unwrap(), picks[1].unwrap()]
    }

    #[test]
    fn commit_emits_lifecycle_spans_when_tracing() {
        let _serial = trace_gate_lock();
        let dir = trace_temp_dir("lifecycle");
        let config = EngineConfig::dual_engine()
            .with_shards(2)
            .with_durability(crate::config::DurabilityConfig::at(&dir))
            .with_tracing(true);
        let db = test_db(config);
        let session = db.session();
        let _ = olxp_trace::take_events(); // drop load-time spans

        let [key_a, key_b] = keys_on_both_shards();
        let mut txn = session.begin(WorkClass::Oltp);
        for key in [key_a, key_b] {
            session
                .update(
                    &mut txn,
                    "ITEM",
                    &Key::int(key),
                    Row::new(vec![
                        Value::Int(key),
                        Value::Str("traced".into()),
                        Value::Decimal(1),
                    ]),
                )
                .unwrap();
        }
        session.commit(txn).unwrap();
        db.finish_load().unwrap(); // drain replication under the trace gate

        let plan = QueryBuilder::scan("ITEM")
            .aggregate(vec![], vec![AggSpec::new(AggFunc::Min, 2)])
            .build();
        session.analytical_query(&plan).unwrap();

        let events = olxp_trace::take_events();
        let seen: std::collections::HashSet<SpanCategory> =
            events.iter().map(|tagged| tagged.event.category).collect();
        for category in [
            SpanCategory::Lock,
            SpanCategory::WalAppend,
            SpanCategory::Fsync,
            SpanCategory::Install,
            SpanCategory::TwoPcPrepare,
            SpanCategory::TwoPcCommit,
            SpanCategory::Commit,
            SpanCategory::QueryOperator,
        ] {
            assert!(seen.contains(&category), "missing {category:?} span");
        }

        let snap = db.metrics_snapshot();
        assert!(!snap.stages.is_empty(), "stage histograms were recorded");
        assert!(snap.stages.get(SpanCategory::Commit).count() >= 1);
        assert_eq!(snap.per_shard.len(), 2);
        assert!(snap.per_shard.iter().all(|shard| shard.commits >= 1));
        assert!(snap.per_shard.iter().all(|shard| shard.wal_appends >= 1));

        olxp_trace::set_enabled(false);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Open a traced two-phase-capable test engine: durable with
    /// `SyncPolicy::Always` (every WAL stage does real work) when `dir` is
    /// given, in-memory otherwise, with a 1 ms slow-transaction threshold.
    fn traced_db(shards: usize, dir: Option<&str>) -> Arc<HybridDatabase> {
        let durability = match dir {
            Some(dir) => {
                crate::config::DurabilityConfig::at(dir).with_sync(olxp_storage::SyncPolicy::Always)
            }
            None => crate::config::DurabilityConfig::disabled(),
        };
        test_db(
            EngineConfig::dual_engine()
                .with_shards(shards)
                .with_durability(durability)
                .with_tracing(true)
                .with_slow_txn_threshold_ms(1),
        )
    }

    /// Begin a transaction that rewrites every row in `keys`.
    fn update_items(session: &Session, keys: &[i64]) -> TxnHandle {
        let mut txn = session.begin(WorkClass::Oltp);
        for &key in keys {
            let row = Row::new(vec![
                Value::Int(key),
                Value::Str("staged".into()),
                Value::Decimal(3),
            ]);
            session
                .update(&mut txn, "ITEM", &Key::int(key), row)
                .unwrap();
        }
        txn
    }

    /// Commit an update of `keys` on this thread while another holds shard
    /// 0's commit gate exclusively for a few milliseconds, so a durable
    /// commit crosses the 1 ms slow-transaction threshold deterministically.
    /// Returns the transaction's id.
    fn commit_while_gate_held(db: &Arc<HybridDatabase>, keys: &[i64]) -> u64 {
        let session = db.session();
        let txn = update_items(&session, keys);
        let txn_id = txn.txn().id();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let gate = db.commit_gate_write_for(0);
                barrier.wait();
                std::thread::sleep(Duration::from_millis(5));
                drop(gate);
            });
            barrier.wait();
            session.commit(txn).unwrap();
            holder.join().unwrap();
        });
        txn_id
    }

    /// Drain the span rings and keep the spans this thread recorded (other
    /// tests' engines trace concurrently and reuse the same txn ids).
    fn this_thread_spans() -> Vec<olxp_trace::SpanEvent> {
        olxp_trace::record_span(SpanCategory::Lock, u32::MAX, u64::MAX, 0);
        let events = olxp_trace::take_events();
        let tid = events
            .iter()
            .find(|t| t.event.shard == u32::MAX && t.event.txn_id == u64::MAX)
            .expect("sentinel span recorded")
            .tid;
        events
            .iter()
            .filter(|t| t.tid == tid && t.event.txn_id != u64::MAX)
            .map(|t| t.event)
            .collect()
    }

    /// The commit-path stages whose histogram entries a commit owns.
    const COMMIT_STAGES: [SpanCategory; 6] = [
        SpanCategory::WalAppend,
        SpanCategory::Fsync,
        SpanCategory::Install,
        SpanCategory::TwoPcPrepare,
        SpanCategory::TwoPcCommit,
        SpanCategory::Commit,
    ];

    fn commit_stage_counts(db: &HybridDatabase) -> Vec<u64> {
        let stages = db.metrics_snapshot().stages;
        COMMIT_STAGES
            .iter()
            .map(|&c| stages.get(c).count())
            .collect()
    }

    #[test]
    fn commit_stages_are_attributed_once_per_commit() {
        use SpanCategory::*;
        let _serial = trace_gate_lock();
        let dir = trace_temp_dir("stages");
        let [key_a, key_b] = keys_on_both_shards();
        let single: &[SpanCategory] = &[WalAppend, Fsync, Install, Commit];
        let cross: &[SpanCategory] =
            &[WalAppend, Fsync, Install, TwoPcPrepare, TwoPcCommit, Commit];
        let cases = [
            ("single-shard durable", 1, true, vec![7], single),
            ("cross-shard durable", 2, true, vec![key_a, key_b], cross),
            ("in-memory", 1, false, vec![7], &[Install, Commit]),
        ];
        for (name, shards, durable, keys, expected) in cases {
            let data_dir = format!("{dir}-{shards}");
            let db = traced_db(shards, durable.then_some(data_dir.as_str()));
            let before = commit_stage_counts(&db);
            let session = db.session();
            let _ = olxp_trace::take_events();
            let txn = update_items(&session, &keys);
            let txn_id = txn.txn().id();
            session.commit(txn).unwrap();
            let spans: Vec<SpanCategory> = this_thread_spans()
                .iter()
                .filter(|event| event.txn_id == txn_id)
                .map(|event| event.category)
                .collect();
            if durable {
                commit_while_gate_held(&db, &keys);
            } else {
                session.commit(update_items(&session, &keys)).unwrap();
            }
            let after = commit_stage_counts(&db);
            for (i, stage) in COMMIT_STAGES.iter().enumerate() {
                let want = if expected.contains(stage) { 2 } else { 0 };
                assert_eq!(after[i] - before[i], want, "{name}: {stage:?} entries");
            }

            // One span per stage per touched shard; a cross-shard commit's
            // markers are 2PC-commit spans, not WAL appends.
            let count = |c: SpanCategory| spans.iter().filter(|&&s| s == c).count();
            let (appends, markers) = match (durable, keys.len()) {
                (false, _) => (0, 0),
                (true, 1) => (2, 0),
                (true, touched) => (touched, touched),
            };
            assert_eq!(count(WalAppend), appends, "{name}: wal_append spans");
            assert_eq!(count(TwoPcCommit), markers, "{name}: 2pc_commit spans");
            assert_eq!(count(Install), 1, "{name}: install spans");
            assert_eq!(count(Commit), 1, "{name}: commit spans");

            if durable {
                let record = db
                    .slow_txn_log()
                    .records()
                    .pop()
                    .expect("slow commit logged");
                let listed: Vec<SpanCategory> = record
                    .stages
                    .iter()
                    .map(|&(c, _)| c)
                    .filter(|&c| c != Lock)
                    .collect();
                assert_eq!(listed, expected, "{name}: slow-txn stages");
            }
            drop(db);
            let _ = std::fs::remove_dir_all(&data_dir);
        }
        olxp_trace::set_enabled(false);
    }

    #[test]
    fn slow_txn_record_carries_the_commit_spans_txn_id() {
        let _serial = trace_gate_lock();
        let dir = trace_temp_dir("slow-id");
        let db = traced_db(1, Some(&dir));
        let _ = olxp_trace::take_events();
        let txn_id = commit_while_gate_held(&db, &[7]);
        let record = db
            .slow_txn_log()
            .records()
            .pop()
            .expect("slow commit logged");
        assert_eq!(record.txn_id, txn_id);
        let commit_spans: Vec<u64> = this_thread_spans()
            .iter()
            .filter(|event| event.category == SpanCategory::Commit)
            .map(|event| event.txn_id)
            .collect();
        assert_eq!(commit_spans, vec![record.txn_id]);
        olxp_trace::set_enabled(false);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracing_disabled_records_no_stage_histograms() {
        // With OLXP_TRACE=on every engine in the process (including ones
        // other tests open concurrently) raises the process-wide gate, so
        // the untraced scenario cannot be constructed — skip.
        if EngineConfig::dual_engine().tracing {
            return;
        }
        let _serial = trace_gate_lock();
        olxp_trace::set_enabled(false);
        let db = test_db(EngineConfig::dual_engine());
        let session = db.session();
        let mut txn = session.begin(WorkClass::Oltp);
        session
            .update(
                &mut txn,
                "ITEM",
                &Key::int(7),
                Row::new(vec![
                    Value::Int(7),
                    Value::Str("plain".into()),
                    Value::Decimal(2),
                ]),
            )
            .unwrap();
        session.commit(txn).unwrap();

        let snap = db.metrics_snapshot();
        assert!(snap.stages.is_empty(), "no stages recorded while disabled");
        // Lock-wait accounting stays on even with tracing off: the per-shard
        // scaling report depends on it.
        assert!(snap.lock_waits >= 1);
        assert_eq!(snap.per_shard.len(), db.shard_count());
        assert!(snap.per_shard.iter().map(|s| s.commits).sum::<u64>() >= 1);
    }

    #[test]
    fn slow_txn_log_wiring_respects_threshold_config() {
        let _serial = trace_gate_lock();
        let with_threshold = test_db(
            EngineConfig::dual_engine()
                .with_tracing(true)
                .with_slow_txn_threshold_ms(5),
        );
        assert!(with_threshold.slow_txn_log().is_enabled());
        assert_eq!(with_threshold.slow_txn_log().threshold_nanos(), 5_000_000);
        assert!(with_threshold.slow_txn_log().is_empty());

        let without = test_db(EngineConfig::dual_engine());
        assert!(!without.slow_txn_log().is_enabled());
        // Restore the gate the tracing database raised at open.
        olxp_trace::set_enabled(false);
    }
}
