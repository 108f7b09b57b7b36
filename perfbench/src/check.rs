//! Output checkers. Each returns `Err` with a one-line reason when the
//! program's output is wrong; the workloads count every such error as a
//! failed operation.

use sqlkit::Row;

/// The SQL under test must equal the reference byte for byte.
pub fn same_sql(what: &str, got: &str, reference: &str) -> Result<(), String> {
    if got == reference {
        Ok(())
    } else {
        Err(format!("{what:?}: got {got:?}, reference {reference:?}"))
    }
}

/// An HTTP query response must be a 200 whose body's `sql` field (absent
/// when the body had none) equals `reference`.
pub fn served_sql(status: u16, sql: Option<&str>, reference: &str) -> Result<(), String> {
    match (status, sql) {
        (200, Some(sql)) => same_sql("served", sql, reference),
        (200, None) => Err("200 body without an sql field".to_owned()),
        (status, _) => Err(format!("status {status}")),
    }
}

/// A table's rows must equal the expected rows (order-insensitive).
pub fn same_rows(table: &str, got: &[Row], expected: &[Row]) -> Result<(), String> {
    let render = |rows: &[Row]| {
        let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        v.sort();
        v
    };
    let (g, e) = (render(got), render(expected));
    if g == e {
        return Ok(());
    }
    let missing = e.iter().find(|r| g.binary_search(r).is_err());
    let extra = g.iter().find(|r| e.binary_search(r).is_err());
    Err(format!(
        "{table}: {} rows, expected {}; first missing {missing:?}, first unexpected {extra:?}",
        g.len(),
        e.len()
    ))
}

/// The follower must have applied exactly the primary's commits.
pub fn caught_up(applied_seq: u64, commit_seq: u64) -> Result<(), String> {
    if applied_seq == commit_seq {
        Ok(())
    } else {
        Err(format!(
            "follower applied_seq {applied_seq} != primary commit_seq {commit_seq}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::Value;

    #[test]
    fn tampered_sql_fires() {
        assert!(same_sql("q", "SELECT 1", "SELECT 1").is_ok());
        assert!(same_sql("q", "SELECT 1 ", "SELECT 1").is_err());
        assert!(same_sql("q", "select 1", "SELECT 1").is_err());
    }

    #[test]
    fn tampered_http_answer_fires() {
        let want = "SELECT \"a\" FROM t";
        assert!(served_sql(200, Some(want), want).is_ok());
        assert!(served_sql(200, Some("SELECT \"b\" FROM t"), want).is_err());
        assert!(served_sql(429, Some(want), want).is_err());
        assert!(served_sql(0, None, want).is_err());
        assert!(served_sql(200, None, want).is_err());
    }

    #[test]
    fn tampered_row_fires() {
        let rows = vec![
            vec![Value::Int(1), Value::Text("a".into())],
            vec![Value::Int(2), Value::Null],
        ];
        let mut shuffled = rows.clone();
        shuffled.reverse();
        assert!(same_rows("t", &shuffled, &rows).is_ok());
        let mut tampered = rows.clone();
        tampered[1][1] = Value::Text("b".into());
        assert!(same_rows("t", &tampered, &rows).is_err());
        assert!(same_rows("t", &rows[..1], &rows).is_err());
        assert!(caught_up(5, 5).is_ok());
        assert!(caught_up(4, 5).is_err());
    }
}
