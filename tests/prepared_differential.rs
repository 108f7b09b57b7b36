//! Differential tests for the prepared-execution entry points.
//!
//! The contract of `prepare` is *zero observable difference*: for every
//! statement the corpus can produce, executing through a [`Prepared`]
//! plan, through the one-shot `execute_select` and through
//! `Database::query` must return byte-identical rows or the same error,
//! and that outcome must be the frozen interpreter oracle's
//! (`tests/golden`).
//!
//! [`Prepared`]: sqlkit::Prepared

mod golden;

use sqlkit::{execute_select, parse_select, Database, ResultSet, SqlResult};

/// Execute `sql` one-shot, prepared and through `Database::query`,
/// asserting identical outcomes, and return the shared outcome.
fn raw_matches_prepared(db: &Database, sql: &str) -> SqlResult<ResultSet> {
    let raw = parse_select(sql).and_then(|stmt| execute_select(db, &stmt));
    let prepared = sqlkit::prepare(db, sql).and_then(|plan| plan.execute(db));
    let queried = db.query(sql);
    match (&raw, &prepared, &queried) {
        (Ok(rs_raw), Ok(rs_pre), Ok(rs_q)) => {
            assert_eq!(rs_raw, rs_pre, "rows differ for {sql}");
            assert_eq!(rs_raw, rs_q, "Database::query rows differ for {sql}");
        }
        (Err(e_raw), Err(e_pre), Err(e_q)) => {
            assert_eq!(e_raw.to_string(), e_pre.to_string(), "errors differ for {sql}");
            assert_eq!(e_raw.to_string(), e_q.to_string(), "Database::query error differs for {sql}");
        }
        (raw, prepared, queried) => panic!(
            "outcome class differs for {sql}: raw={raw:?} prepared={prepared:?} query={queried:?}"
        ),
    }
    raw
}

/// Every gold SQL in the generated corpus (train and dev, every database)
/// runs identically raw and prepared, with the oracle's outcome.
#[test]
fn corpus_gold_sql_matches_raw_execution() {
    let dbs = golden::Dbs::build();
    let cases = golden::load_checked(&dbs);
    let ran = golden::run_sections(&cases, &dbs, &["gold"], raw_matches_prepared);
    assert!(ran >= 50, "corpus covered: {ran}");
}

/// Broader SQL surface: sampled query specs across themes and every
/// difficulty tier, plus the hand-written shapes section, same
/// differential.
#[test]
fn sampled_specs_match_raw_execution() {
    let dbs = golden::Dbs::build();
    let cases = golden::load_checked(&dbs);
    golden::run_sections(&cases, &dbs, &["sampled", "shapes"], raw_matches_prepared);
}
