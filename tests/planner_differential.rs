//! Differential suite for the cost-based physical planner and pipelined
//! executor.
//!
//! The plan cache routes every statement through the physical plan
//! (index scans, index joins, streaming residual filters); its contract
//! is *byte-identical rows* — or the identical error — to the frozen
//! interpreter oracle (`tests/golden`) for every statement the corpus
//! can produce. Execution statistics may legitimately differ between
//! executors, result bytes may not. The suite also pins that
//! demand-paged serving with persisted index sections is
//! indistinguishable from in-memory serving, and that changing a
//! database's index set invalidates its cached plans.

mod golden;

use sqlkit::{plan_fingerprint, PlanCache};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osql-planner-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every gold SQL in the generated corpus (train and dev, every database,
/// default indexes declared) returns the oracle's rows through the plan
/// cache — and the planner actually drives indexes on the way.
#[test]
fn corpus_gold_sql_matches_legacy_execution() {
    let dbs = golden::Dbs::build();
    let cases = golden::load_checked(&dbs);
    let cache = PlanCache::new(512);
    let ran = golden::run_sections(&cases, &dbs, &["gold"], |db, sql| {
        cache.execute(db, sql).map(|(rs, _)| rs)
    });
    assert!(ran >= 50, "corpus covered: {ran}");
    assert!(cache.stats().ix_scans > 0, "no corpus statement used an index");
}

/// Broader SQL surface: sampled query specs across themes and every
/// difficulty tier, plus the hand-written shapes section, same oracle.
#[test]
fn sampled_specs_match_legacy_execution() {
    let dbs = golden::Dbs::build();
    let cases = golden::load_checked(&dbs);
    let cache = PlanCache::new(512);
    golden::run_sections(&cases, &dbs, &["sampled", "shapes"], |db, sql| {
        cache.execute(db, sql).map(|(rs, _)| rs)
    });
}

/// A database round-tripped through a store file (index sections
/// included) must answer every gold statement byte-identically to the
/// in-memory original, and with the same planning fingerprint.
#[test]
fn paged_databases_with_indexes_serve_identical_rows() {
    let bench = datagen::generate(&datagen::Profile::tiny());
    let dir = tmpdir("paged");
    let mem_cache = PlanCache::new(512);
    let paged_cache = PlanCache::new(512);
    for db in &bench.dbs {
        let path = dir.join(format!("{}.store", db.id));
        osql_store::write_database(&path, &db.database, &[], 0).unwrap();
        let loaded = osql_store::read_database(&path).unwrap().database;
        assert_eq!(
            plan_fingerprint(&loaded),
            plan_fingerprint(&db.database),
            "{}: index declarations must survive the store round trip",
            db.id
        );
        for ex in bench.train.iter().chain(bench.dev.iter()).filter(|e| e.db_id == db.id) {
            let mem = mem_cache.execute(&db.database, &ex.gold_sql);
            let paged = paged_cache.execute(&loaded, &ex.gold_sql);
            match (mem, paged) {
                (Ok((rs_mem, _)), Ok((rs_paged, _))) => {
                    assert_eq!(rs_mem, rs_paged, "rows differ for {}", ex.gold_sql)
                }
                (Err(e_mem), Err(e_paged)) => {
                    assert_eq!(e_mem.to_string(), e_paged.to_string())
                }
                (mem, paged) => panic!(
                    "outcome class differs for {}: mem={mem:?} paged={paged:?}",
                    ex.gold_sql
                ),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Creating an index changes the database's planning fingerprint, so the
/// plan cache re-prepares instead of serving a stale plan — and the
/// re-prepared statement starts using the new index.
#[test]
fn index_set_changes_invalidate_cached_plans() {
    let mut db = sqlkit::Database::new("inval");
    let mut script =
        String::from("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, label TEXT);\n");
    for i in 0..300 {
        script.push_str(&format!("INSERT INTO t VALUES ({i}, {}, 'x{i}');\n", i % 30));
    }
    db.execute_script(&script).unwrap();

    let cache = PlanCache::new(64);
    let sql = "SELECT label FROM t WHERE grp = 7 ORDER BY id";
    let before = cache.prepared(&db, sql).unwrap();
    let (rows_before, _) = cache.execute(&db, sql).unwrap();

    db.create_index("t", "grp").unwrap();
    let after = cache.prepared(&db, sql).unwrap();
    assert!(
        !Arc::ptr_eq(&before, &after),
        "cached plan survived an index-set change"
    );
    assert_ne!(before.fingerprint(), after.fingerprint());

    let ix_before = cache.stats().ix_scans;
    let (rows_after, _) = cache.execute(&db, sql).unwrap();
    assert_eq!(rows_before, rows_after, "index must not change results");
    assert!(
        cache.stats().ix_scans > ix_before,
        "re-prepared plan should drive the new index"
    );
}
