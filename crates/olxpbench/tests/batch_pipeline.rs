//! Integration tests for the vectorized batch pipeline: equivalence of the
//! three read paths (row source row-at-a-time, row source batched, column
//! source batched) across every plan shape, and the late-materialization
//! guarantee on a large columnar scan.

use olxpbench::prelude::*;
use olxpbench::query::{execute_with, ColumnSource, ExecOptions, ShardedRowSource};
use olxpbench::storage::{ColumnTable, RowTable};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn orders_schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int, false),
                ColumnDef::new("grp", DataType::Int, false),
                ColumnDef::new("val", DataType::Int, false),
            ],
            vec!["id"],
        )
        .unwrap(),
    )
}

fn dim_schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "D",
            vec![
                ColumnDef::new("grp", DataType::Int, false),
                ColumnDef::new("label", DataType::Str, false),
            ],
            vec!["grp"],
        )
        .unwrap(),
    )
}

/// The batched column-store aggregate never materializes a per-row tuple:
/// on a 100k-row table the executor's `rows_materialized` counter stays at
/// the single output row, while the row-at-a-time consumption of the *same*
/// physical scan pays one materialized `Row` per tuple.  This is the counter
/// assertion backing the `colstore_batch`/`vectorized` criterion benches.
#[test]
fn batched_column_aggregate_materializes_no_per_row_tuples_on_100k_rows() {
    const ROWS: i64 = 100_000;
    let table = Arc::new(ColumnTable::new(orders_schema()));
    for i in 0..ROWS {
        table
            .apply_insert(
                &Key::int(i),
                &Row::new(vec![
                    Value::Int(i),
                    Value::Int(i % 7),
                    Value::Int(i % 1_000),
                ]),
                1,
                i as u64 + 1,
            )
            .unwrap();
    }
    let mut tables = HashMap::new();
    tables.insert("T".to_string(), Arc::clone(&table));
    let source = ColumnSource::new(&tables);
    let plan = QueryBuilder::scan("T")
        .aggregate(
            vec![],
            vec![
                AggSpec::new(AggFunc::Sum, 2),
                AggSpec::new(AggFunc::Min, 2),
                AggSpec::new(AggFunc::Max, 2),
                AggSpec::new(AggFunc::Count, 0),
            ],
        )
        .build();

    let before = table.stats();
    let batched = execute_with(&plan, &source, ExecOptions::batched(1024)).unwrap();
    let mid = table.stats();
    let row_mode = execute_with(&plan, &source, ExecOptions::row_at_a_time()).unwrap();
    let after = table.stats();

    assert_eq!(batched.rows, row_mode.rows, "identical results");
    assert_eq!(batched.rows.len(), 1);

    // Both paths walked the same physical slots...
    assert_eq!(mid.slots_examined - before.slots_examined, ROWS as u64);
    assert_eq!(after.slots_examined - mid.slots_examined, ROWS as u64);
    assert_eq!(batched.stats.rows_scanned, ROWS as u64);
    assert_eq!(row_mode.stats.rows_scanned, ROWS as u64);

    // ...but only the row-at-a-time path materialized per-row tuples.
    assert_eq!(
        batched.stats.rows_materialized, 1,
        "batched path materializes only the plan root's output row"
    );
    assert!(
        row_mode.stats.rows_materialized >= ROWS as u64,
        "row-at-a-time pays a materialized row per scanned tuple"
    );
    assert_eq!(
        batched.stats.batches_scanned,
        (ROWS as u64).div_ceil(1024),
        "scan streamed in ~1024-slot chunks with a partial final batch"
    );
}

/// Build the fixture tables in both layouts.  Rows are inserted in ascending
/// primary-key order so the row store (B-tree order) and the column store
/// (slot order) iterate identically; deletes leave tombstones in the row
/// store and deselected slots in the column store.
#[allow(clippy::type_complexity)]
fn build_tables(
    rows: &[(i64, i64, i64)],
    delete_picks: &[usize],
) -> (
    HashMap<String, Arc<RowTable>>,
    HashMap<String, Arc<ColumnTable>>,
) {
    let mut by_id: Vec<(i64, i64, i64)> = Vec::new();
    for &(id, grp, val) in rows {
        if !by_id.iter().any(|&(i, _, _)| i == id) {
            by_id.push((id, grp, val));
        }
    }
    by_id.sort_unstable();

    let row_t = Arc::new(RowTable::new(orders_schema()));
    let col_t = Arc::new(ColumnTable::new(orders_schema()));
    let mut lsn = 0u64;
    for &(id, grp, val) in &by_id {
        let row = Row::new(vec![Value::Int(id), Value::Int(grp), Value::Int(val)]);
        row_t.insert(row.clone(), 1).unwrap();
        lsn += 1;
        col_t.apply_insert(&Key::int(id), &row, 1, lsn).unwrap();
    }
    for &pick in delete_picks {
        let (id, _, _) = by_id[pick % by_id.len()];
        let key = Key::int(id);
        if row_t.get(&key, 5).is_some() {
            row_t.delete(&key, 5).unwrap();
            lsn += 1;
            col_t.apply_delete(&key, 5, lsn).unwrap();
        }
    }

    let row_d = Arc::new(RowTable::new(dim_schema()));
    let col_d = Arc::new(ColumnTable::new(dim_schema()));
    for grp in 0..5i64 {
        let row = Row::new(vec![Value::Int(grp), Value::Str(format!("group-{grp}"))]);
        row_d.insert(row.clone(), 1).unwrap();
        lsn += 1;
        col_d.apply_insert(&Key::int(grp), &row, 1, lsn).unwrap();
    }

    let mut row_tables = HashMap::new();
    row_tables.insert("T".to_string(), row_t);
    row_tables.insert("D".to_string(), row_d);
    let mut col_tables = HashMap::new();
    col_tables.insert("T".to_string(), col_t);
    col_tables.insert("D".to_string(), col_d);
    (row_tables, col_tables)
}

fn plan_for_shape(shape: u8, knob: i64) -> Plan {
    match shape {
        // Pushed-down filter + residual filter operator.
        0 => QueryBuilder::scan_where("T", col(2).ge(lit(knob)))
            .filter(col(1).ne(lit(3)))
            .build(),
        // Projection with computed expressions.
        1 => QueryBuilder::scan("T")
            .project(vec![col(0), col(2).add(col(1)), col(2).mul(lit(2))])
            .build(),
        // Grouped aggregation over every aggregate function.
        2 => QueryBuilder::scan("T")
            .aggregate(
                vec![1],
                vec![
                    AggSpec::new(AggFunc::Count, 0),
                    AggSpec::new(AggFunc::Sum, 2),
                    AggSpec::new(AggFunc::Avg, 2),
                    AggSpec::new(AggFunc::Min, 2),
                    AggSpec::new(AggFunc::Max, 2),
                ],
            )
            .build(),
        // Hash joins; group values 5..8 have no dimension row, so the inner
        // and left-outer variants genuinely differ.
        3 => QueryBuilder::scan("T")
            .join(QueryBuilder::scan("D"), vec![1], vec![0], JoinKind::Inner)
            .build(),
        4 => QueryBuilder::scan("T")
            .join(
                QueryBuilder::scan("D"),
                vec![1],
                vec![0],
                JoinKind::LeftOuter,
            )
            .build(),
        // Sort (late materialization point) + limit above it.
        _ => QueryBuilder::scan("T")
            .sort(vec![SortKey::desc(2), SortKey::asc(0)])
            .limit(5)
            .build(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every plan shape returns identical rows through the row source
    /// row-at-a-time, the row source batched and `ColumnSource` batched —
    /// including tables with deleted slots and batch sizes that force a
    /// partial final batch.
    #[test]
    fn plan_shapes_agree_across_sources_and_scan_modes(
        rows in proptest::collection::vec((0i64..120, 0i64..8, -500i64..500), 1..60),
        delete_picks in proptest::collection::vec(0usize..120, 0..12),
        batch_size in 1usize..10,
        shape in 0u8..6,
        knob in -200i64..200,
    ) {
        let (row_tables, col_tables) = build_tables(&rows, &delete_picks);
        let plan = plan_for_shape(shape, knob);
        let row_src = ShardedRowSource::new(vec![Arc::new(row_tables)], 10);
        let col_src = ColumnSource::new(&col_tables);

        let baseline = execute_with(
            &plan,
            &row_src,
            ExecOptions::row_at_a_time().with_batch_size(batch_size),
        )
        .unwrap();
        let row_batched =
            execute_with(&plan, &row_src, ExecOptions::batched(batch_size)).unwrap();
        let col_batched =
            execute_with(&plan, &col_src, ExecOptions::batched(batch_size)).unwrap();

        prop_assert_eq!(
            &row_batched.rows, &baseline.rows,
            "row source batched diverged (shape {}, batch_size {})", shape, batch_size
        );
        prop_assert_eq!(
            &col_batched.rows, &baseline.rows,
            "ColumnSource batched diverged (shape {}, batch_size {})", shape, batch_size
        );
        prop_assert_eq!(row_batched.stats.output_rows, baseline.stats.output_rows);
        prop_assert_eq!(col_batched.stats.output_rows, baseline.stats.output_rows);
        // The two row-source modes examine exactly the same physical keys.
        prop_assert_eq!(row_batched.stats.rows_scanned, baseline.stats.rows_scanned);
    }
}
