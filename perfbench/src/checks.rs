//! Output checks run after each measured run.

use olxpbench::engine::HybridDatabase;
use olxpbench::storage::Value;
use std::collections::BTreeMap;

/// Every table's rows (sorted), keyed by table name.
pub type Contents = BTreeMap<String, Vec<Vec<Value>>>;

/// The row store's visible contents at the current read timestamp.
pub fn row_store_contents(db: &HybridDatabase) -> Result<Contents, String> {
    let ts = db.txn_manager().oracle().read_ts();
    let mut out = Contents::new();
    for schema in db.catalog().tables() {
        let mut rows = Vec::new();
        db.scan_table(schema.name(), ts, |_, row| rows.push(row.values().to_vec()))
            .map_err(|e| format!("row-store scan of {} failed: {e}", schema.name()))?;
        rows.sort();
        out.insert(schema.name().to_string(), rows);
    }
    Ok(out)
}

/// Semantic consistency: once replication is drained, every columnar replica
/// holds exactly the rows its row-store table shows at the same read
/// timestamp.  Returns the number of rows compared.
pub fn replicas_match_row_store(db: &HybridDatabase) -> Result<usize, String> {
    db.finish_load()
        .map_err(|e| format!("draining replication failed: {e}"))?;
    let rows = row_store_contents(db)?;
    let mut compared = 0;
    for (table, expected) in &rows {
        let replica = db
            .col_table(table)
            .map_err(|e| format!("no columnar replica of {table}: {e}"))?;
        let mut actual = Vec::new();
        replica.scan_rows(|row| actual.push(row.values().to_vec()));
        actual.sort();
        if &actual != expected {
            return Err(format!(
                "columnar replica of {table} holds {} rows, row store {} (or their values differ)",
                actual.len(),
                expected.len()
            ));
        }
        compared += expected.len();
    }
    Ok(compared)
}

/// Compare recovered contents with those captured before close.  Returns the
/// number of rows compared.
pub fn same_contents(before: &Contents, after: &Contents) -> Result<usize, String> {
    let rows = |c: &Contents, t: &str| c.get(t).map_or(0, Vec::len);
    if let Some(table) = before
        .keys()
        .chain(after.keys())
        .find(|t| before.get(*t) != after.get(*t))
    {
        return Err(format!(
            "recovered {table} holds {} rows, {} before close (or their values differ)",
            rows(after, table),
            rows(before, table)
        ));
    }
    Ok(before.values().map(Vec::len).sum())
}
