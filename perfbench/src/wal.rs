//! `wal_ship`: one writer runs transactions through `osql_store::Store` on
//! a file-backed store holding a world database, and ships them to a
//! follower with `osql_repl`.
//!
//! Flush policy: every `Store::commit` appends the commit record and calls
//! `File::sync_data` on the write-ahead log before it returns (the store's
//! own policy; the benchmark adds no batching). A transaction's latency
//! runs from its first statement to the return of its commit; the
//! checkpoint every [`CHECKPOINT_EVERY`] commits is charged to the commit
//! that triggers it. Shipping and the follower's poll every
//! [`SHIP_EVERY`] commits run on the writer's thread inside the timed
//! run, so they cost throughput but no transaction's latency. A run is a
//! fixed number of transactions, so the tables end every run at the same
//! size.

use crate::check;
use crate::report::{Check, Outcome};
use crate::stats;
use crate::world::{self, Opts, Rng, SetupTimes, WorkDir};
use osql_repl::{seed_if_missing, ship_store, Follower, FsShipDir};
use osql_store::{store_stats, Store};
use sqlkit::{Row, Value};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Commits between shipping rounds (`ship_store`, then `Follower::poll`).
pub const SHIP_EVERY: u64 = 128;
/// Commits between checkpoints; a multiple of [`SHIP_EVERY`], so every
/// commit is shipped before a checkpoint folds it into the base file.
pub const CHECKPOINT_EVERY: u64 = 2048;
/// Share of transactions with [`MULTI_ROWS`] inserts instead of one.
pub const MULTI_SHARE: f64 = 0.2;
/// Share of transactions that also update a counter row. The store copies
/// the whole database for each UPDATE, so these transactions set the p99.
pub const UPDATE_SHARE: f64 = 0.02;
/// Inserts in a multi-statement transaction.
pub const MULTI_ROWS: usize = 3;
/// Rows of the counter table the multi-statement transactions update.
pub const COUNTERS: usize = 16;
/// Latency limit behind `slo_pct` on this workload.
pub const SLO_MS: f64 = 50.0;
/// Transactions per second of `--seconds` (about the parent commit's rate).
pub const TXNS_PER_SECOND: f64 = 3000.0;

const EVENTS: &str = "bench_events";
const COUNTER_TABLE: &str = "bench_counters";

struct Writer {
    store: Store,
    follower: Follower,
    media: FsShipDir,
}

/// Generate the world, create the primary store from its largest
/// database plus the two benchmark tables, publish the base, and bring up
/// a caught-up follower.
fn setup(opts: &Opts, dir: &Path) -> Result<(Writer, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let (bench, s) = world::timed(|| datagen::generate(&world::profile(opts, 0)));
    t.generate_s = s;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let base = bench
        .dbs
        .iter()
        .max_by_key(|d| (d.database.total_rows(), d.id.clone()))
        .ok_or("empty world")?;
    let primary = dir.join("primary.store");
    let mut store = Store::create(&primary, base.database.clone(), Vec::new())
        .map_err(|e| format!("create: {e}"))?;
    let mut ddl = format!(
        "CREATE TABLE {EVENTS} (id INTEGER PRIMARY KEY, k INTEGER, amount REAL, note TEXT);\
         CREATE TABLE {COUNTER_TABLE} (k INTEGER PRIMARY KEY, n INTEGER);"
    );
    for k in 0..COUNTERS {
        ddl.push_str(&format!("INSERT INTO {COUNTER_TABLE} VALUES ({k}, 0);"));
    }
    store.execute(&ddl).map_err(|e| format!("ddl: {e}"))?;
    store.commit().map_err(|e| format!("ddl commit: {e}"))?;
    let media = FsShipDir::open(&dir.join("ship")).map_err(|e| format!("ship dir: {e}"))?;
    ship_store(&primary, &media).map_err(|e| format!("first ship: {e}"))?;
    let replica = dir.join("replica.store");
    seed_if_missing(&replica, &media).map_err(|e| format!("seed follower: {e}"))?;
    let (mut follower, _) = Follower::open(&replica).map_err(|e| format!("open follower: {e}"))?;
    follower
        .poll(&media)
        .map_err(|e| format!("first poll: {e}"))?;
    Ok((
        Writer {
            store,
            follower,
            media,
        },
        t,
    ))
}

/// One generated transaction: its statements and the event rows it adds.
struct Txn {
    stmts: Vec<String>,
    rows: Vec<Row>,
    counter: Option<usize>,
}

/// Transactions from the seed: unique event ids (a bijection of the
/// transaction number), random counter keys, amounts and notes.
struct TxnGen {
    rng: Rng,
    salt: u32,
    next: u32,
}

impl TxnGen {
    fn new(opts: &Opts) -> Self {
        let mut rng = Rng::new(opts.seed, 7);
        let salt = rng.next_u64() as u32;
        TxnGen { rng, salt, next: 0 }
    }

    fn event(&mut self) -> (String, Row) {
        let id = i64::from(self.next.wrapping_mul(0x9E37_79B1) ^ self.salt);
        self.next += 1;
        let k = self.rng.below(COUNTERS) as i64;
        let amount = self.rng.below(10_000_000) as f64 / 100.0;
        let note = format!("n{:05x}", self.rng.next_u64() & 0xF_FFFF);
        let sql = format!("INSERT INTO {EVENTS} VALUES ({id}, {k}, {amount:?}, '{note}')");
        (
            sql,
            vec![
                Value::Int(id),
                Value::Int(k),
                Value::Real(amount),
                Value::Text(note),
            ],
        )
    }

    fn txn(&mut self) -> Txn {
        let multi = self.rng.unit() < MULTI_SHARE;
        let update = self.rng.unit() < UPDATE_SHARE;
        let mut t = Txn {
            stmts: Vec::new(),
            rows: Vec::new(),
            counter: None,
        };
        for _ in 0..if multi { MULTI_ROWS } else { 1 } {
            let (sql, row) = self.event();
            t.stmts.push(sql);
            t.rows.push(row);
        }
        if update {
            let k = self.rng.below(COUNTERS);
            t.stmts.push(format!(
                "UPDATE {COUNTER_TABLE} SET n = n + 1 WHERE k = {k}"
            ));
            t.counter = Some(k);
        }
        t
    }
}

/// Per-call timings of a traced transaction.
#[derive(Default)]
struct CallTimes {
    execute_us: Vec<f64>,
    commit_us: Vec<f64>,
    sync_us: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    ship_ms: Vec<f64>,
    poll_s: f64,
    applied: u64,
    max_lag: u64,
    wal_bytes: u64,
    user_bytes: u64,
}

fn rows_of(store: &Store, table: &str) -> Result<Vec<Row>, String> {
    store
        .database()
        .rows(table)
        .map(<[Row]>::to_vec)
        .map_err(|e| format!("{table}: {e}"))
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let work = WorkDir::new("wal_ship").map_err(|e| format!("work dir: {e}"))?;
    let (mut w, times) =
        world::repeated_setup(opts, |k| setup(opts, &work.path().join(format!("s{k}"))))?;
    world::report_setup(&mut out, &times);

    let mut gen = TxnGen::new(opts);
    let mut expected_events: Vec<Row> = Vec::new();
    let mut expected_counters = [0i64; COUNTERS];
    let mut committed_rows: Vec<Vec<Row>> = Vec::new();
    let (mut plain_ms, mut traced_ms, mut ordered_ms, mut ends) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut calls = CallTimes::default();
    let mut commit_errors = Check::new("every commit, ship and poll succeeds");
    let stats = store_stats();
    let n_txns = opts.ops(TXNS_PER_SECOND) as u64;
    let started = Instant::now();
    for n in 1..=n_txns {
        let txn = gen.txn();
        // in a traced run every other transaction is timed call by call,
        // the rest only end to end, for the tracing overhead
        let trace = opts.traced && n % 2 == 0;
        let t0 = Instant::now();
        let wal0 = w.store.wal_end();
        let mut result = Ok(());
        for sql in &txn.stmts {
            let c0 = Instant::now();
            result = w.store.execute(sql).map_err(|e| format!("execute: {e}"));
            if trace {
                calls.execute_us.push(c0.elapsed().as_secs_f64() * 1e6);
            }
            if result.is_err() {
                break;
            }
        }
        if result.is_ok() {
            let (c0, s0) = (Instant::now(), stats.wal_sync.total_us());
            result = w
                .store
                .commit()
                .map(drop)
                .map_err(|e| format!("commit: {e}"));
            if trace {
                calls.commit_us.push(c0.elapsed().as_secs_f64() * 1e6);
                calls.sync_us.push((stats.wal_sync.total_us() - s0) as f64);
            }
        }
        if trace {
            calls.wal_bytes += w.store.wal_end().saturating_sub(wal0);
            calls.user_bytes += txn.stmts.iter().map(|s| s.len() as u64).sum::<u64>();
        }
        let commits = w.store.commit_seq();
        if result.is_ok() && commits % SHIP_EVERY == 0 {
            let s0 = Instant::now();
            match ship_store(w.store.path(), &w.media) {
                Ok(shipped) => {
                    calls.ship_ms.push(s0.elapsed().as_secs_f64() * 1e3);
                    calls.max_lag = calls.max_lag.max(
                        shipped
                            .last_commit_seq
                            .saturating_sub(w.follower.applied_seq()),
                    );
                    let p0 = Instant::now();
                    match w.follower.poll(&w.media) {
                        Ok(r) => {
                            calls.poll_s += p0.elapsed().as_secs_f64();
                            calls.applied += r.applied_txns;
                        }
                        Err(e) => commit_errors.failures.push(format!("poll: {e}")),
                    }
                }
                Err(e) => commit_errors.failures.push(format!("ship: {e}")),
            }
        }
        if result.is_ok() && commits % CHECKPOINT_EVERY == 0 {
            let c0 = Instant::now();
            result = w
                .store
                .checkpoint()
                .map(drop)
                .map_err(|e| format!("checkpoint: {e}"));
            calls.checkpoint_ms.push(c0.elapsed().as_secs_f64() * 1e3);
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        ends.push(started.elapsed().as_secs_f64());
        match result {
            Ok(()) => {
                ordered_ms.push(ms);
                if trace { &mut traced_ms } else { &mut plain_ms }.push(ms);
                expected_events.extend(txn.rows.iter().cloned());
                if let Some(k) = txn.counter {
                    expected_counters[k] += 1;
                }
                committed_rows.push(txn.rows);
            }
            Err(e) => {
                out.failed += 1;
                ordered_ms.push(f64::INFINITY);
                commit_errors.failures.push(e);
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let n = n_txns;
    out.attempted = n;

    // after the timed run: ship the tail and compare the follower
    ship_store(w.store.path(), &w.media).map_err(|e| format!("final ship: {e}"))?;
    w.follower
        .poll(&w.media)
        .map_err(|e| format!("final poll: {e}"))?;
    let mut replica = Check::new("follower applied every commit and holds the primary's rows");
    replica.record(check::caught_up(
        w.follower.applied_seq(),
        w.store.commit_seq(),
    ));
    let follower_events = rows_of(w.follower.store(), EVENTS)?;
    replica.record(check::same_rows(
        EVENTS,
        &rows_of(&w.store, EVENTS)?,
        &expected_events,
    ));
    replica.record(check::same_rows(EVENTS, &follower_events, &expected_events));
    let counters: Vec<Row> = expected_counters
        .iter()
        .enumerate()
        .map(|(k, n)| vec![Value::Int(k as i64), Value::Int(*n)])
        .collect();
    replica.record(check::same_rows(
        COUNTER_TABLE,
        &rows_of(&w.store, COUNTER_TABLE)?,
        &counters,
    ));
    replica.record(check::same_rows(
        COUNTER_TABLE,
        &rows_of(w.follower.store(), COUNTER_TABLE)?,
        &counters,
    ));

    // a transaction is reproduced when every row it inserted is on the
    // follower, value for value
    let by_id: HashMap<String, &Row> = follower_events
        .iter()
        .map(|r| (format!("{:?}", r[0]), r))
        .collect();
    let reproduced = committed_rows
        .iter()
        .filter(|rows| {
            rows.iter().all(|r| {
                by_id
                    .get(&format!("{:?}", r[0]))
                    .is_some_and(|got| *got == r)
            })
        })
        .count();

    // a failed transaction counts as missing every limit
    for ms in ordered_ms.iter_mut().filter(|ms| ms.is_infinite()) {
        *ms = elapsed * 1e3;
    }
    let (p50, p99) = stats::robust_latency(&ordered_ms);
    out.set("latency_p50_ms", p50);
    out.set("latency_p99_ms", p99);
    let ok = n as f64 - out.failed as f64;
    out.set(
        "throughput_ops_s",
        stats::robust_rate(&ends) * ok / n.max(1) as f64,
    );
    let within = ordered_ms.iter().filter(|&&ms| ms <= SLO_MS).count();
    out.set("slo_pct", 100.0 * within as f64 / n.max(1) as f64);
    out.set("ex_pct", 100.0 * stats::ratio(reproduced as f64, n as f64));
    out.notes.push(format!(
        "{n} transactions in {elapsed:.2} s, {} samples per p99, {} checkpoints, {} shipping rounds",
        stats::p99_samples(ordered_ms.len()),
        calls.checkpoint_ms.len(),
        calls.ship_ms.len()
    ));
    if opts.traced {
        let p = |v: &[f64], q| stats::quantile(&stats::sorted(v), q);
        out.set("store.execute_us", p(&calls.execute_us, 0.5));
        out.set("store.commit_us", p(&calls.commit_us, 0.5));
        out.set("store.wal_sync_us_p50", p(&calls.sync_us, 0.5));
        out.set("store.wal_sync_us_p99", p(&calls.sync_us, 0.99));
        out.set("store.checkpoint_ms", stats::mean(&calls.checkpoint_ms));
        out.set(
            "store.wal_bytes_per_user_byte",
            stats::ratio(calls.wal_bytes as f64, calls.user_bytes as f64),
        );
        out.set("repl.ship_ms", stats::mean(&calls.ship_ms));
        out.set(
            "repl.apply_us_per_txn",
            stats::ratio(calls.poll_s * 1e6, calls.applied as f64),
        );
        out.set("repl.max_lag_txns", calls.max_lag as f64);
        out.set(
            "repl_apply_ops_s",
            stats::ratio(calls.applied as f64, calls.poll_s),
        );
        out.set(
            "trace_overhead_pct",
            100.0 * (stats::ratio(stats::median(&traced_ms), stats::median(&plain_ms)) - 1.0),
        );
    }
    out.checks.push(commit_errors);
    out.checks.push(replica);
    out.set("peak_rss_mb", world::peak_rss_mb());
    Ok(out)
}
