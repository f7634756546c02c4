//! Criterion micro-benchmarks for the query substrate: expression evaluation,
//! scans, joins, aggregation and sorting through the plan executor.

use criterion::{criterion_group, criterion_main, Criterion};
use olxpbench::prelude::*;
use olxpbench::query::{
    execute, execute_with, expr::like_match, ColumnSource, ExecOptions, ShardedRowSource,
};
use olxpbench::storage::{ColumnTable, RowTable};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn orders_fixture(rows: i64) -> HashMap<String, Arc<RowTable>> {
    let orders = Arc::new(RowTable::new(Arc::new(
        TableSchema::new(
            "ORDERS",
            vec![
                ColumnDef::new("o_id", DataType::Int, false),
                ColumnDef::new("o_cid", DataType::Int, false),
                ColumnDef::new("o_amount", DataType::Decimal, false),
            ],
            vec!["o_id"],
        )
        .unwrap(),
    )));
    let customers = Arc::new(RowTable::new(Arc::new(
        TableSchema::new(
            "CUSTOMER",
            vec![
                ColumnDef::new("c_id", DataType::Int, false),
                ColumnDef::new("c_name", DataType::Str, false),
            ],
            vec!["c_id"],
        )
        .unwrap(),
    )));
    for i in 0..rows {
        orders
            .insert(
                Row::new(vec![
                    Value::Int(i),
                    Value::Int(i % 500),
                    Value::Decimal(100 + i % 997),
                ]),
                1,
            )
            .unwrap();
    }
    for c in 0..500 {
        customers
            .insert(
                Row::new(vec![Value::Int(c), Value::Str(format!("customer-{c}"))]),
                1,
            )
            .unwrap();
    }
    let mut tables = HashMap::new();
    tables.insert("ORDERS".to_string(), orders);
    tables.insert("CUSTOMER".to_string(), customers);
    tables
}

fn bench_expressions(c: &mut Criterion) {
    let mut group = c.benchmark_group("expr");
    group.measurement_time(Duration::from_millis(400));
    group.sample_size(20);
    let row = vec![
        Value::Int(10),
        Value::Str("subscriber-000000000012345".into()),
        Value::Decimal(995),
    ];
    let predicate = col(0).gt(lit(5)).and(col(2).le(lit(Value::Decimal(1_000))));
    group.bench_function("predicate_eval", |b| {
        b.iter(|| predicate.matches(&row).unwrap())
    });
    group.bench_function("like_match", |b| {
        b.iter(|| like_match("subscriber-000000000012345", "%00123%"))
    });
    group.finish();
}

fn bench_plans(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_exec");
    group.measurement_time(Duration::from_millis(800));
    group.sample_size(15);
    let source = ShardedRowSource::new(vec![Arc::new(orders_fixture(10_000))], 10);

    let filter_plan =
        QueryBuilder::scan_where("ORDERS", col(2).gt(lit(Value::Decimal(900)))).build();
    group.bench_function("filtered_scan_10k", |b| {
        b.iter(|| execute(&filter_plan, &source).unwrap().rows.len())
    });

    let join_agg_plan = QueryBuilder::scan("ORDERS")
        .join(
            QueryBuilder::scan("CUSTOMER"),
            vec![1],
            vec![0],
            JoinKind::Inner,
        )
        .aggregate(
            vec![1],
            vec![
                AggSpec::new(AggFunc::Sum, 2),
                AggSpec::new(AggFunc::Count, 0),
            ],
        )
        .sort(vec![SortKey::desc(1)])
        .limit(10)
        .build();
    group.bench_function("join_group_sort_10k", |b| {
        b.iter(|| execute(&join_agg_plan, &source).unwrap().rows.len())
    });

    let agg_plan = QueryBuilder::scan("ORDERS")
        .aggregate(
            vec![],
            vec![
                AggSpec::new(AggFunc::Min, 2),
                AggSpec::new(AggFunc::Max, 2),
                AggSpec::new(AggFunc::Avg, 2),
            ],
        )
        .build();
    group.bench_function("global_aggregate_10k", |b| {
        b.iter(|| execute(&agg_plan, &source).unwrap().rows.len())
    });
    group.finish();
}

/// fibenchmark's SAVINGS and CHECKING (`custid` primary key, `bal`) with
/// `accounts` rows each, in one row-store partition read at ts 10.
fn accounts_source(accounts: i64) -> ShardedRowSource {
    let mut tables = HashMap::new();
    for name in ["SAVINGS", "CHECKING"] {
        let table = Arc::new(RowTable::new(Arc::new(
            TableSchema::new(
                name,
                vec![
                    ColumnDef::new("custid", DataType::Int, false),
                    ColumnDef::new("bal", DataType::Decimal, false),
                ],
                vec!["custid"],
            )
            .unwrap(),
        )));
        for id in 0..accounts {
            table
                .insert(
                    Row::new(vec![Value::Int(id), Value::Decimal(10_000 + id % 977)]),
                    1,
                )
                .unwrap();
        }
        tables.insert(name.to_string(), table);
    }
    ShardedRowSource::new(vec![Arc::new(tables)], 10)
}

/// The real-time queries of fibenchmark's hybrid transactions over the MVCC
/// row store: X2's primary-key-equality join, and X1's whole-table aggregate
/// run by two threads at once on one table.
fn bench_row_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_store");
    group.measurement_time(Duration::from_millis(800));
    group.sample_size(15);
    let source = accounts_source(2_000);

    let custid = 1_234i64;
    let pk_eq_plan = QueryBuilder::scan_where("SAVINGS", col(0).eq(lit(custid)))
        .join(
            QueryBuilder::scan_where("CHECKING", col(0).eq(lit(custid))),
            vec![0],
            vec![0],
            JoinKind::Inner,
        )
        .aggregate(
            vec![],
            vec![AggSpec::new(AggFunc::Max, 1), AggSpec::new(AggFunc::Max, 3)],
        )
        .build();
    group.bench_function("row_pk_eq_filter_2k", |b| {
        b.iter(|| execute(&pk_eq_plan, &source).unwrap().rows.len())
    });

    let agg_plan = QueryBuilder::scan("CHECKING")
        .aggregate(
            vec![],
            vec![AggSpec::new(AggFunc::Avg, 1), AggSpec::new(AggFunc::Min, 1)],
        )
        .build();
    // Each iteration is 16 aggregates per thread, so the thread start-up
    // is small next to the scans it measures.
    group.bench_function("row_scan_aggregate_2k_two_threads", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        for _ in 0..16 {
                            execute(&agg_plan, &source).unwrap();
                        }
                    });
                }
            })
        })
    });
    group.finish();
}

fn col_orders_fixture(rows: i64) -> HashMap<String, Arc<ColumnTable>> {
    let orders = Arc::new(ColumnTable::new(Arc::new(
        TableSchema::new(
            "ORDERS",
            vec![
                ColumnDef::new("o_id", DataType::Int, false),
                ColumnDef::new("o_cid", DataType::Int, false),
                ColumnDef::new("o_amount", DataType::Decimal, false),
            ],
            vec!["o_id"],
        )
        .unwrap(),
    )));
    for i in 0..rows {
        orders
            .apply_insert(
                &Key::int(i),
                &Row::new(vec![
                    Value::Int(i),
                    Value::Int(i % 500),
                    Value::Decimal(100 + i % 997),
                ]),
                1,
                i as u64 + 1,
            )
            .unwrap();
    }
    let mut tables = HashMap::new();
    tables.insert("ORDERS".to_string(), orders);
    tables
}

/// The executor's vectorized pipeline against the same plans consumed
/// row-at-a-time, over the columnar replica — the comparison the batch
/// refactor exists for.
fn bench_vectorized(c: &mut Criterion) {
    let mut group = c.benchmark_group("vectorized");
    group.measurement_time(Duration::from_millis(1000));
    group.sample_size(10);
    let tables = col_orders_fixture(100_000);
    let source = ColumnSource::new(&tables);

    let agg_plan = QueryBuilder::scan("ORDERS")
        .aggregate(
            vec![],
            vec![
                AggSpec::new(AggFunc::Sum, 2),
                AggSpec::new(AggFunc::Min, 2),
                AggSpec::new(AggFunc::Max, 2),
            ],
        )
        .build();
    group.bench_function("col_aggregate_100k_batched", |b| {
        b.iter(|| {
            execute_with(&agg_plan, &source, ExecOptions::batched(1024))
                .unwrap()
                .rows
                .len()
        })
    });
    group.bench_function("col_aggregate_100k_row_at_a_time", |b| {
        b.iter(|| {
            execute_with(&agg_plan, &source, ExecOptions::row_at_a_time())
                .unwrap()
                .rows
                .len()
        })
    });

    let filter_plan = QueryBuilder::scan_where("ORDERS", col(2).gt(lit(Value::Decimal(1_000))))
        .aggregate(vec![1], vec![AggSpec::new(AggFunc::Count, 0)])
        .build();
    group.bench_function("col_filter_group_100k_batched", |b| {
        b.iter(|| {
            execute_with(&filter_plan, &source, ExecOptions::batched(1024))
                .unwrap()
                .rows
                .len()
        })
    });
    group.bench_function("col_filter_group_100k_row_at_a_time", |b| {
        b.iter(|| {
            execute_with(&filter_plan, &source, ExecOptions::row_at_a_time())
                .unwrap()
                .rows
                .len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_expressions,
    bench_plans,
    bench_row_store,
    bench_vectorized
);
criterion_main!(benches);
