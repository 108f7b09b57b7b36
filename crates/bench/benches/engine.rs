//! SQL engine microbenchmarks: parsing, scans, hash joins, grouped
//! aggregation — the substrate every pipeline stage executes against.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::{build::build_db, domain::themes, RowScale};
use sqlkit::parse_select;

fn db() -> datagen::BuiltDb {
    build_db(&themes()[0], "bench", "healthcare", RowScale::bird(), 0.55, 42)
}

fn bench_parse(c: &mut Criterion) {
    let sql = "SELECT COUNT(DISTINCT T1.PatientID) FROM Patient AS T1 \
               INNER JOIN Laboratory AS T2 ON T1.PatientID = T2.PatientID \
               WHERE T2.IGA > 80 AND T2.IGA < 500 AND \
               STRFTIME('%Y', T1.`First Date`) >= '1990' \
               ORDER BY T1.Age DESC LIMIT 5";
    c.bench_function("parse_select", |b| {
        b.iter(|| std::hint::black_box(parse_select(sql).unwrap()))
    });
}

const CASES: [(&str, &str); 5] = [
    ("scan_filter", "SELECT Name FROM Patient WHERE Age > 40"),
    (
        "hash_join",
        "SELECT T1.Name, T2.IGA FROM Patient AS T1 \
         INNER JOIN Laboratory AS T2 ON T1.PatientID = T2.PatientID",
    ),
    (
        "three_way_join_agg",
        "SELECT COUNT(DISTINCT T1.PatientID) FROM Patient AS T1 \
         INNER JOIN Laboratory AS T2 ON T1.PatientID = T2.PatientID \
         INNER JOIN Treatment AS T3 ON T1.PatientID = T3.PatientID \
         WHERE T2.IGA > 100 AND T3.Cost > 50",
    ),
    (
        "group_order_limit",
        "SELECT City, COUNT(*) AS n FROM Patient GROUP BY City \
         ORDER BY n DESC LIMIT 3",
    ),
    ("subquery", "SELECT Name FROM Patient WHERE Age = (SELECT MAX(Age) FROM Patient)"),
];

fn bench_exec(c: &mut Criterion) {
    let built = db();
    let cases = CASES;
    let mut group = c.benchmark_group("engine_exec");
    for (name, sql) in cases {
        let stmt = parse_select(sql).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(built.database.query_stmt(&stmt).unwrap()))
        });
    }
    group.finish();
}

/// One-shot vs cached plans: `cold` pays one prepare (parse + binding +
/// constant folding + lowering) per call, as the engine's `query(sql)`
/// does, and `warm` serves the plan from a [`PlanCache`] so each call is
/// pure execution.
fn bench_prepared(c: &mut Criterion) {
    let built = db();
    let mut group = c.benchmark_group("engine_prepared");
    group.sample_size(100);
    for (name, sql) in CASES {
        group.bench_function(format!("cold/{name}"), |b| {
            b.iter(|| {
                let plan = sqlkit::prepare(&built.database, sql).unwrap();
                std::hint::black_box(plan.execute(&built.database).unwrap())
            })
        });
        let cache = sqlkit::PlanCache::new(64);
        group.bench_function(format!("warm/{name}"), |b| {
            b.iter(|| std::hint::black_box(cache.execute(&built.database, sql).unwrap()))
        });
    }
    group.finish();

    // Plan-acquisition cost in isolation, and a plan-dominated query shape.
    // The refine → execute → correct loop, the vote tie-break, and eval's
    // gold executions all repeat the same statement, so on selective
    // queries the parse + bind cost matters as much as execution.
    let complex = "SELECT COUNT(DISTINCT T1.PatientID) FROM Patient AS T1 \
                   INNER JOIN Laboratory AS T2 ON T1.PatientID = T2.PatientID \
                   WHERE T2.IGA > 80 AND T2.IGA < 500 AND \
                   STRFTIME('%Y', T1.`First Date`) >= '1990' \
                   ORDER BY T1.Age DESC LIMIT 5";
    let small = build_db(&themes()[0], "bench_small", "healthcare", RowScale::tiny(), 0.55, 42);
    let mut group = c.benchmark_group("engine_plan");
    group.sample_size(500);
    group.bench_function("prepare", |b| {
        b.iter(|| std::hint::black_box(sqlkit::prepare(&built.database, complex).unwrap()))
    });
    let cache = sqlkit::PlanCache::new(64);
    cache.execute(&built.database, complex).unwrap();
    group.bench_function("cache_hit", |b| {
        b.iter(|| std::hint::black_box(cache.prepared(&built.database, complex).unwrap()))
    });
    group.bench_function("selective/raw", |b| {
        b.iter(|| std::hint::black_box(small.database.query(complex).unwrap()))
    });
    let cache = sqlkit::PlanCache::new(64);
    group.bench_function("selective/warm", |b| {
        b.iter(|| std::hint::black_box(cache.execute(&small.database, complex).unwrap()))
    });
    group.finish();
}

/// Cost-based planner payoffs: selective statements served by the
/// pipelined executor over secondary indexes, measured on a warm plan
/// cache so the numbers isolate execution. `point_lookup` is an IxScan
/// on the Patient PK, `ix_join` an IxScan driving an IxJoin probe into
/// Laboratory's FK index, and `full_scan_fallback` a shape with no
/// usable index (the planner must not make unindexed scans slower).
/// `derived.ix_join_speedup` in BENCH_engine.json compares `ix_join`
/// against the one-shot `engine_exec/hash_join` baseline.
fn bench_planner(c: &mut Criterion) {
    let built = db();
    let planner_cases = [
        ("point_lookup", "SELECT Name FROM Patient WHERE PatientID = 42"),
        (
            "ix_join",
            "SELECT T1.Name, T2.IGA FROM Patient AS T1 \
             INNER JOIN Laboratory AS T2 ON T1.PatientID = T2.PatientID \
             WHERE T1.PatientID = 42",
        ),
        ("full_scan_fallback", "SELECT Name FROM Patient WHERE Age > 40"),
    ];
    let mut group = c.benchmark_group("engine_planner");
    group.sample_size(200);
    for (name, sql) in planner_cases {
        let cache = sqlkit::PlanCache::new(64);
        cache.execute(&built.database, sql).unwrap();
        if name != "full_scan_fallback" {
            assert!(cache.stats().ix_scans >= 1, "{name} must run on indexes");
        }
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(cache.execute(&built.database, sql).unwrap()))
        });
    }
    group.finish();
}

/// Static analysis cost: what a pre-execution gate pays per candidate.
/// `clean/*` analyzes the executable benchmark statements (the common
/// case — the gate adds this on top of execution), `reject/*` analyzes
/// statements that parse but fail in execution (diagnosed with an error,
/// then executed all the same), and `parse_only` isolates the parse share
/// of `analyze_sql`.
fn bench_analyze(c: &mut Criterion) {
    let built = db();
    let mut group = c.benchmark_group("engine_analyze");
    for (name, sql) in CASES {
        group.bench_function(format!("clean/{name}"), |b| {
            b.iter(|| std::hint::black_box(sqlkit::analyze_sql(&built.database.schema, sql)))
        });
    }
    let rejects = [
        ("no_such_table", "SELECT Name FROM Pateint WHERE Age > 40"),
        ("agg_in_where", "SELECT COUNT(*) FROM Patient WHERE COUNT(*) > 1"),
        (
            "compound_arity",
            "SELECT COUNT(*) FROM Patient UNION SELECT City, COUNT(*) FROM Patient GROUP BY City",
        ),
    ];
    for (name, sql) in rejects {
        assert!(
            sqlkit::analyze_sql(&built.database.schema, sql).has_errors(),
            "{name} must get an error-severity diagnostic"
        );
        group.bench_function(format!("reject/{name}"), |b| {
            b.iter(|| std::hint::black_box(sqlkit::analyze_sql(&built.database.schema, sql)))
        });
    }
    group.bench_function("parse_only", |b| {
        b.iter(|| std::hint::black_box(parse_select(CASES[2].1).unwrap()))
    });
    group.finish();
}

/// Instrumentation overhead on the hottest path: warm plan-cache
/// execution with no active trace (`off/*` — the engine's volatile
/// events short-circuit on one thread-local read) versus with a trace
/// recording every execute (`on/*`). The acceptance bar is < 5%
/// overhead on `off` vs `on` for the warm prepared path; results are
/// recorded in BENCH_engine.json.
fn bench_trace(c: &mut Criterion) {
    let built = db();
    let mut group = c.benchmark_group("engine_trace");
    group.sample_size(2000);
    for (name, sql) in [CASES[0], CASES[1]] {
        let cache = sqlkit::PlanCache::new(64);
        cache.execute(&built.database, sql).unwrap();
        group.bench_function(format!("off/{name}"), |b| {
            b.iter(|| std::hint::black_box(cache.execute(&built.database, sql).unwrap()))
        });
        osql_trace::active::push();
        let mut calls: u32 = 0;
        group.bench_function(format!("on/{name}"), |b| {
            b.iter(|| {
                // Bound trace growth: rotate to a fresh trace every 4096
                // recorded executes (a trace-stack pop + push, ~two TLS ops).
                calls += 1;
                if calls.is_multiple_of(4096) {
                    let _ = osql_trace::active::pop();
                    osql_trace::active::push();
                }
                std::hint::black_box(cache.execute(&built.database, sql).unwrap())
            })
        });
        let _ = osql_trace::active::pop();
    }
    group.finish();
}

/// Durable-store paths: loading a database cold off its page file
/// (`cold_load`), re-serving it from a warm demand-paged catalog
/// (`warm_catalog_hit` — an `Arc` clone behind a mutex), and the
/// in-memory alternative of replaying the SQL dump (`script_replay`),
/// plus WAL transaction throughput over in-memory media (`wal/commit` —
/// one INSERT-sized record + a commit record per iteration).
fn bench_store(c: &mut Criterion) {
    let built = db();
    let dir = std::env::temp_dir().join(format!("osql-bench-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.store");
    datagen::export_db_store(&built, &path).unwrap();
    let script = built.database.dump_script();

    let mut group = c.benchmark_group("engine_store");
    group.sample_size(60);
    group.bench_function("cold_load", |b| {
        b.iter(|| std::hint::black_box(datagen::import_store(&path).unwrap()))
    });
    group.bench_function("script_replay", |b| {
        b.iter(|| {
            let mut fresh = sqlkit::Database::new("bench");
            fresh.execute_script(&script).unwrap();
            std::hint::black_box(fresh.total_rows())
        })
    });
    let catalog = datagen::open_store_catalog(&dir, u64::MAX, "bench-world").unwrap();
    catalog.get("bench").unwrap();
    group.bench_function("warm_catalog_hit", |b| {
        b.iter(|| std::hint::black_box(catalog.get("bench").unwrap()))
    });

    // WAL throughput over in-memory media (FaultFile with no plan), so
    // the numbers measure the log format, not this machine's disk. The
    // log is reset every 4096 transactions to bound buffer growth.
    let wal_base = dir.join("wal.store");
    osql_store::write_database(&wal_base, &built.database, &[], 0).unwrap();
    let (mut store, _) =
        osql_store::Store::open_with(&wal_base, osql_store::FaultFile::new()).unwrap();
    let mut txn: u64 = 0;
    group.bench_function("wal/commit", |b| {
        b.iter(|| {
            txn += 1;
            if txn.is_multiple_of(4096) {
                store.checkpoint().unwrap();
            }
            store
                .execute(&format!("UPDATE Patient SET Age = {} WHERE PatientID = 1", txn % 90))
                .unwrap();
            std::hint::black_box(store.commit().unwrap())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_parse,
    bench_exec,
    bench_prepared,
    bench_planner,
    bench_analyze,
    bench_trace,
    bench_store
);
criterion_main!(benches);
