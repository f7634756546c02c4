//! Property-based equivalence of pruned and unpruned scans.
//!
//! Chunk pruning (zone maps + fingerprint filters) is a pure optimization: it
//! may only skip chunks that provably contain no matching live rows, so a
//! filtered scan must return exactly the same rows under every
//! [`PruningMode`] — including after updates (which widen zone maps
//! conservatively) and deletes (which leave stale contributions in both
//! structures), and for every sargable predicate shape the extractor
//! understands (equality, ranges, AND-conjunctions) as well as
//! non-sargable filters that prune nothing.
//!
//! The row store's counterpart — narrowing a scan to the primary-key range
//! pinned by equality conjuncts — is held to the same standard: identical
//! rows to the full scan under [`PruningMode::Off`], never more keys
//! examined.

use olxpbench::engine::shard_of;
use olxpbench::prelude::*;
use olxpbench::query::{
    execute_with, ChunkPruner, ColumnSource, DataSource, ExecOptions, Expr, Plan, ShardedRowSource,
};
use olxpbench::storage::{ColumnTable, PruningMode, RowTable};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Tiny chunks so a handful of rows spans many chunks and every scan
/// exercises the prune/survive decision repeatedly.
const CHUNK_SIZE: usize = 8;

fn schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int, false),
                ColumnDef::new("a", DataType::Int, false),
                ColumnDef::new("b", DataType::Int, false),
            ],
            vec!["id"],
        )
        .unwrap(),
    )
}

/// A generated filter: the sargable shapes the extractor understands, plus a
/// non-sargable OR (which must disable pruning rather than lose rows).
#[derive(Debug, Clone)]
enum Predicate {
    EqA(i64),
    LtA(i64),
    RangeA(i64, i64),
    RangeAndEq(i64, i64),
    EqBoth(i64, i64),
    OrEq(i64, i64),
}

impl Predicate {
    fn expr(&self) -> Expr {
        match *self {
            Predicate::EqA(x) => col(1).eq(lit(Value::Int(x))),
            Predicate::LtA(x) => col(1).lt(lit(Value::Int(x))),
            Predicate::RangeA(lo, hi) => col(1)
                .ge(lit(Value::Int(lo)))
                .and(col(1).le(lit(Value::Int(hi)))),
            Predicate::RangeAndEq(lo, b) => col(1)
                .ge(lit(Value::Int(lo)))
                .and(col(2).eq(lit(Value::Int(b)))),
            Predicate::EqBoth(a, b) => col(1)
                .eq(lit(Value::Int(a)))
                .and(col(2).eq(lit(Value::Int(b)))),
            Predicate::OrEq(x, y) => col(1)
                .eq(lit(Value::Int(x)))
                .or(col(1).eq(lit(Value::Int(y)))),
        }
    }
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    let v = -12i64..12;
    prop_oneof![
        v.clone().prop_map(Predicate::EqA),
        v.clone().prop_map(Predicate::LtA),
        (v.clone(), v.clone()).prop_map(|(x, y)| Predicate::RangeA(x.min(y), x.max(y))),
        (v.clone(), v.clone()).prop_map(|(lo, b)| Predicate::RangeAndEq(lo, b)),
        (v.clone(), v.clone()).prop_map(|(a, b)| Predicate::EqBoth(a, b)),
        (v.clone(), v).prop_map(|(x, y)| Predicate::OrEq(x, y)),
    ]
}

/// Build a column table from inserts, then apply updates and deletes (all
/// indices taken modulo the row count), leaving widened zone maps, stale
/// filter entries and dead slots behind.
fn build(
    rows: &[(i64, i64)],
    updates: &[(usize, i64, i64)],
    deletes: &[usize],
) -> Arc<ColumnTable> {
    let table = Arc::new(ColumnTable::with_chunk_size(schema(), CHUNK_SIZE));
    let mut lsn = 0u64;
    for (i, &(a, b)) in rows.iter().enumerate() {
        lsn += 1;
        table
            .apply_insert(
                &Key::int(i as i64),
                &Row::new(vec![Value::Int(i as i64), Value::Int(a), Value::Int(b)]),
                1,
                lsn,
            )
            .unwrap();
    }
    for &(i, a, b) in updates {
        let id = (i % rows.len()) as i64;
        lsn += 1;
        table
            .apply_update(
                &Key::int(id),
                &Row::new(vec![Value::Int(id), Value::Int(a), Value::Int(b)]),
                2,
                lsn,
            )
            .unwrap();
    }
    for &i in deletes {
        let id = (i % rows.len()) as i64;
        lsn += 1;
        table.apply_delete(&Key::int(id), 3, lsn).unwrap();
    }
    table
}

fn scan(table: &Arc<ColumnTable>, plan: &Plan, mode: PruningMode) -> Vec<Row> {
    let mut tables = HashMap::new();
    tables.insert("T".to_string(), Arc::clone(table));
    let source = ColumnSource::new(&tables);
    // A batch size smaller than the chunk size also exercises batch windows
    // that straddle pruned-run boundaries.
    let mut out = execute_with(plan, &source, ExecOptions::batched(5).with_pruning(mode))
        .expect("scan succeeds")
        .rows;
    // Order-insensitive comparison: sort by the primary key (column 0).
    out.sort_by(|x, y| x[0].cmp(&y[0]));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A filtered scan returns the same rows under every pruning mode, for
    /// any mutation history and any supported predicate shape.
    #[test]
    fn pruned_scan_equals_unpruned_scan(
        rows in proptest::collection::vec((-10i64..10, -10i64..10), 1..120),
        updates in proptest::collection::vec((0usize..1024, -10i64..10, -10i64..10), 0..30),
        deletes in proptest::collection::vec(0usize..1024, 0..30),
        predicate in predicate_strategy(),
    ) {
        let table = build(&rows, &updates, &deletes);
        let plan = QueryBuilder::scan_where("T", predicate.expr()).build();
        let baseline = scan(&table, &plan, PruningMode::Off);
        for mode in [PruningMode::ZoneMapOnly, PruningMode::FilterOnly, PruningMode::Both] {
            let pruned = scan(&table, &plan, mode);
            prop_assert_eq!(
                &pruned, &baseline,
                "mode {:?} diverged for predicate {:?}", mode, predicate
            );
        }
    }

    /// Unfiltered scans agree too: the only pruning opportunity is a fully
    /// deleted chunk, which must not hide surviving rows elsewhere.
    #[test]
    fn unfiltered_scan_unaffected_by_pruning(
        rows in proptest::collection::vec((-10i64..10, -10i64..10), 1..80),
        deletes in proptest::collection::vec(0usize..1024, 0..80),
    ) {
        let table = build(&rows, &[], &deletes);
        let plan = QueryBuilder::scan("T").build();
        let baseline = scan(&table, &plan, PruningMode::Off);
        let pruned = scan(&table, &plan, PruningMode::Both);
        prop_assert_eq!(pruned, baseline);
    }
}

/// Table `R(a, b, v)` with the composite primary key `(a, b)`.
fn composite_schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "R",
            vec![
                ColumnDef::new("a", DataType::Int, false),
                ColumnDef::new("b", DataType::Int, false),
                ColumnDef::new("v", DataType::Int, false),
            ],
            vec!["a", "b"],
        )
        .unwrap(),
    )
}

/// A generated row-store filter: primary-key-prefix equalities in either
/// conjunct order, a literal of another numeric type on the leading key
/// column, an equality on the non-leading key column only, and extra
/// non-key conjuncts.
#[derive(Debug, Clone)]
enum KeyFilter {
    EqA(i64),
    EqAB(i64, i64),
    EqBA(i64, i64),
    DecimalA(i64),
    FloatA(i64),
    EqB(i64),
    EqAAndV(i64, i64),
    EqABAndV(i64, i64, i64),
}

impl KeyFilter {
    fn expr(&self) -> Expr {
        let a = |x: i64| col(0).eq(lit(Value::Int(x)));
        let b = |x: i64| col(1).eq(lit(Value::Int(x)));
        match *self {
            KeyFilter::EqA(x) => a(x),
            KeyFilter::EqAB(x, y) => a(x).and(b(y)),
            KeyFilter::EqBA(x, y) => b(y).and(a(x)),
            KeyFilter::DecimalA(x) => col(0).eq(lit(Value::Decimal(x * 100))),
            KeyFilter::FloatA(x) => lit(Value::Float(x as f64)).eq(col(0)),
            KeyFilter::EqB(y) => b(y),
            KeyFilter::EqAAndV(x, v) => a(x).and(col(2).ge(lit(Value::Int(v)))),
            KeyFilter::EqABAndV(x, y, v) => a(x).and(col(2).lt(lit(Value::Int(v)))).and(b(y)),
        }
    }
}

fn key_filter_strategy() -> impl Strategy<Value = KeyFilter> {
    let k = -1i64..7;
    let v = -10i64..10;
    prop_oneof![
        k.clone().prop_map(KeyFilter::EqA),
        (k.clone(), k.clone()).prop_map(|(x, y)| KeyFilter::EqAB(x, y)),
        (k.clone(), k.clone()).prop_map(|(x, y)| KeyFilter::EqBA(x, y)),
        k.clone().prop_map(KeyFilter::DecimalA),
        k.clone().prop_map(KeyFilter::FloatA),
        k.clone().prop_map(KeyFilter::EqB),
        (k.clone(), v.clone()).prop_map(|(x, v)| KeyFilter::EqAAndV(x, v)),
        (k.clone(), k, v).prop_map(|(x, y, v)| KeyFilter::EqABAndV(x, y, v)),
    ]
}

/// Hash-partition `R` over `partitions` row tables: inserts at ts 10,
/// updates at ts 20, deletes at ts 30, re-inserts of the deleted keys at
/// ts 40 (indices taken modulo the inserted keys).
fn build_partitions(
    rows: &[(i64, i64, i64)],
    updates: &[(usize, i64)],
    deletes: &[usize],
    partitions: usize,
) -> Vec<Arc<HashMap<String, Arc<RowTable>>>> {
    let parts: Vec<Arc<RowTable>> = (0..partitions)
        .map(|_| Arc::new(RowTable::new(composite_schema())))
        .collect();
    let part = |key: &Key| &parts[shard_of("R", key, partitions)];
    let mut keys: Vec<(i64, i64)> = Vec::new();
    for &(a, b, v) in rows {
        if !keys.contains(&(a, b)) {
            keys.push((a, b));
            let row = Row::new(vec![Value::Int(a), Value::Int(b), Value::Int(v)]);
            part(&Key::ints(&[a, b])).insert(row, 10).unwrap();
        }
    }
    for &(i, v) in updates {
        let (a, b) = keys[i % keys.len()];
        let key = Key::ints(&[a, b]);
        let row = Row::new(vec![Value::Int(a), Value::Int(b), Value::Int(v)]);
        part(&key).update(&key, row, 20).unwrap();
    }
    let mut deleted = Vec::new();
    for &i in deletes {
        let (a, b) = keys[i % keys.len()];
        let key = Key::ints(&[a, b]);
        if !deleted.contains(&key) {
            part(&key).delete(&key, 30).unwrap();
            deleted.push(key);
        }
    }
    for key in deleted.iter().step_by(2) {
        let mut values = key.parts().to_vec();
        values.push(Value::Int(99));
        part(key).insert(Row::new(values), 40).unwrap();
    }
    parts
        .into_iter()
        .map(|t| Arc::new(HashMap::from([("R".to_string(), t)])))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Narrowing a row-store scan to the primary-key range returns exactly
    /// the rows of the full scan, at every snapshot of a mutation history
    /// and at 1 and 4 partitions, and never examines more keys.
    #[test]
    fn row_key_range_scan_equals_full_scan(
        rows in proptest::collection::vec((0i64..6, 0i64..6, -10i64..10), 1..40),
        updates in proptest::collection::vec((0usize..64, -10i64..10), 0..12),
        deletes in proptest::collection::vec(0usize..64, 0..12),
        filter in key_filter_strategy(),
    ) {
        let plan = QueryBuilder::scan_where("R", filter.expr()).build();
        for partitions in [1, 4] {
            let shards = build_partitions(&rows, &updates, &deletes, partitions);
            for read_ts in [5, 15, 25, 35, 45] {
                let source = ShardedRowSource::new(shards.clone(), read_ts);
                let run = |mode: PruningMode| {
                    let opts = ExecOptions::batched(3).with_pruning(mode);
                    let out = execute_with(&plan, &source, opts).expect("scan succeeds");
                    let pruner = ChunkPruner::from_filter(&filter.expr(), mode);
                    let slots = source
                        .scan_batches_pruned("R", 3, pruner.as_ref(), &mut |_| {})
                        .expect("scan succeeds")
                        .slots_examined;
                    (out.rows, slots)
                };
                let (full_rows, full_slots) = run(PruningMode::Off);
                let (range_rows, range_slots) = run(PruningMode::Both);
                prop_assert_eq!(
                    &range_rows, &full_rows,
                    "{:?} diverged at ts {} over {} partitions", filter, read_ts, partitions
                );
                prop_assert!(
                    range_slots <= full_slots,
                    "{:?} examined {} > {} keys", filter, range_slots, full_slots
                );
            }
        }
    }
}
