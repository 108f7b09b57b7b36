//! The parser's nesting budget keeps untrusted SQL from overflowing the
//! stack: at [`sqlkit::MAX_NESTING_DEPTH`] every stage runs to a result
//! on a 2 MiB thread (the default for spawned threads, which runtime
//! workers and server connections use), and one level deeper the parser
//! returns a typed syntax error that analysis and execution report
//! unchanged.

use sqlkit::{Database, SqlError, MAX_NESTING_DEPTH};

/// SQL whose constructs nest `depth` budget levels deep, one shape per
/// construct the budget covers.
fn shapes(depth: usize) -> Vec<(&'static str, String)> {
    let rep = |s: &str| s.repeat(depth);
    vec![
        ("parentheses", format!("SELECT {}x{} FROM t", rep("("), rep(")"))),
        ("scalar subqueries", format!("SELECT {}1{}", rep("(SELECT "), rep(")"))),
        (
            "IN subqueries",
            format!("SELECT x FROM t WHERE {}x{}", rep("x IN (SELECT x FROM t WHERE "), rep(")")),
        ),
        (
            "EXISTS subqueries",
            format!("SELECT 1 FROM t WHERE {}1{}", rep("EXISTS (SELECT 1 FROM t WHERE "), rep(")")),
        ),
        ("FROM subqueries", format!("SELECT * FROM {}t{}", rep("(SELECT * FROM "), rep(") AS s"))),
        ("IN lists", format!("SELECT x FROM t WHERE {}1{}", rep("x IN ("), rep(")"))),
        ("NOT", format!("SELECT x FROM t WHERE {}x = 1", rep("NOT "))),
        ("unary minus", format!("SELECT {}x FROM t", rep("- "))),
        ("function arguments", format!("SELECT {}x{} FROM t", rep("abs("), rep(")"))),
        ("CASE", format!("SELECT {}1{} FROM t", rep("CASE WHEN x = 1 THEN "), rep(" END"))),
        ("CAST", format!("SELECT {}x{} FROM t", rep("CAST("), rep(" AS INTEGER)"))),
    ]
}

fn db() -> Database {
    let mut db = Database::new("nesting");
    db.execute_script("CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1), (2), (NULL);")
        .unwrap();
    db
}

/// Run `f` on a thread with a 2 MiB stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("probe thread panicked");
}

#[test]
fn statements_at_the_budget_run_through_every_stage() {
    on_small_stack(|| {
        let db = db();
        for (name, sql) in shapes(MAX_NESTING_DEPTH) {
            let stmt = sqlkit::parse_select(&sql)
                .unwrap_or_else(|e| panic!("{name} at the budget must parse: {e}"));
            let printed = sqlkit::print_select(&stmt);
            assert!(sqlkit::parse_select(&printed).is_ok(), "{name}: printed SQL reparses");
            let analysis = sqlkit::analyze_sql(&db.schema, &sql);
            assert!(analysis.certain_error.is_none(), "{name}: {:?}", analysis.certain_error);
            // Execution may refuse on its own terms (subqueries nest at
            // most 16 deep when run); it must return, not abort.
            let _ = db.query(&sql);
            let _ = sqlkit::explain(&db, &sql);
        }
    });
}

/// One level past the budget, and far past it: the parser stops at the
/// budget instead of recursing on, however deep the input goes.
#[test]
fn past_the_budget_is_a_typed_syntax_error() {
    on_small_stack(|| {
        let db = db();
        for depth in [MAX_NESTING_DEPTH + 1, 10_000] {
            for (name, sql) in shapes(depth) {
                let err = sqlkit::parse_select(&sql).expect_err(name);
                assert!(matches!(err, SqlError::Syntax { .. }), "{name}: {err:?}");
                assert!(err.to_string().contains("nesting deeper than"), "{name}: {err}");
                let analysis = sqlkit::analyze_sql(&db.schema, &sql);
                assert_eq!(analysis.certain_error.as_ref(), Some(&err), "{name}");
                let codes: Vec<&str> =
                    analysis.diagnostics.iter().map(|d| d.code.as_str()).collect();
                assert_eq!(codes, ["E0001"], "{name}");
                assert_eq!(db.query(&sql).err(), Some(err), "{name}");
            }
        }
    });
}
