//! Runtime-backed CLI modes: `batch` (serve a whole dev split through the
//! worker pool and report throughput + metrics) and `serve` (answer
//! piped/typed requests until EOF). Logic lives here, separated from
//! `main`, so it is unit-testable without a terminal.

use datagen::Profile;
use llmsim::{ModelProfile, Oracle, SimLlm};
use opensearch_sql::PipelineConfig;
use osql_runtime::{AssetCache, QueryRequest, Runtime, RuntimeConfig, ServeError, Throughput};
use osql_trace::FlightConfig;
use std::fmt::Write as _;
use std::sync::Arc;

/// Options shared by the runtime-backed modes.
#[derive(Clone)]
pub struct ServeOptions {
    /// World profile name (tiny/mini/bird/spider).
    pub profile: String,
    /// World scale factor.
    pub scale: f64,
    /// Worker threads.
    pub workers: usize,
    /// Request-queue capacity.
    pub queue: usize,
    /// Max dev questions in batch mode (0 = all).
    pub limit: usize,
    /// How many times to serve the batch (> 1 exercises the result
    /// cache).
    pub rounds: usize,
    /// LRU result-cache capacity (profile mode shrinks this to 1 so
    /// repeated rounds genuinely re-run the pipeline).
    pub result_cache: usize,
    /// Emit machine-readable output where a mode supports it (`trace
    /// --json` prints the JSONL trace dump).
    pub json: bool,
    /// Serve database contents out of this directory of `.store` files
    /// (demand-paged) instead of holding the whole benchmark resident.
    pub store: Option<String>,
    /// Resident-byte budget for the store catalog (0 = unlimited).
    pub budget: u64,
    /// Serve HTTP on this address instead of line-oriented stdin
    /// (`serve --http 127.0.0.1:8080`).
    pub http: Option<String>,
    /// Acceptor shard threads for the HTTP server.
    pub shards: usize,
    /// Slow-query threshold in milliseconds for the flight recorder
    /// (`flight` and `slow` modes, `\flight` in the serve REPL).
    pub slow_ms: f64,
    /// Append every slow request as one JSON object per line to this
    /// file (`--slow-log <path>`); `None` keeps the slow log in-memory
    /// only.
    pub slow_log: Option<String>,
    /// Serve as a read-only follower: tail this shipping root
    /// (`<root>/<db_id>/` per database), applying shipped segments into
    /// the `--store` directory in the background and honouring
    /// `X-Osql-Min-Seq` bounded-staleness reads. Requires `--store`.
    pub follow: Option<String>,
    /// Follower poll interval in milliseconds.
    pub poll_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            profile: "tiny".to_owned(),
            scale: 1.0,
            workers: 4,
            queue: 64,
            limit: 0,
            rounds: 1,
            result_cache: 1024,
            json: false,
            store: None,
            budget: 0,
            http: None,
            shards: 2,
            slow_ms: 250.0,
            slow_log: None,
            follow: None,
            poll_ms: 200,
        }
    }
}

pub(crate) fn profile_for(name: &str, scale: f64) -> Profile {
    match name {
        "bird" => Profile::bird().scaled(scale),
        "spider" => Profile::spider().scaled(scale),
        "mini" => Profile::bird_mini_dev().scaled(scale),
        _ => Profile::tiny(),
    }
}

/// Lint one SQL string against a world database: run the static analyzer
/// and render its findings with rustc-style caret frames. Returns the
/// report and whether any error-severity finding was found (a parse
/// failure is the `E0001` error).
pub fn lint_sql(opts: &ServeOptions, db_id: &str, sql: &str) -> (String, bool) {
    let benchmark = datagen::generate(&profile_for(&opts.profile, opts.scale));
    let Some(db) = benchmark.dbs.iter().find(|d| d.id == db_id) else {
        let known: Vec<&str> = benchmark.dbs.iter().map(|d| d.id.as_str()).collect();
        return (format!("unknown database: {db_id} (available: {})", known.join(", ")), true);
    };
    let analysis = sqlkit::analyze_sql(&db.database.schema, sql);
    let out = if analysis.diagnostics.is_empty() {
        format!("{sql}
  clean: no findings")
    } else {
        analysis.rendered(sql)
    };
    (out, analysis.has_errors())
}

/// Explain one SQL string against a world database: render the physical
/// plan the planner chose (operators, chosen indexes, estimated rows),
/// executing the statement once so actual per-operator row counts appear
/// alongside the estimates. Returns the report and whether it failed.
pub fn explain_sql(opts: &ServeOptions, db_id: &str, sql: &str) -> (String, bool) {
    let benchmark = datagen::generate(&profile_for(&opts.profile, opts.scale));
    let Some(db) = benchmark.dbs.iter().find(|d| d.id == db_id) else {
        let known: Vec<&str> = benchmark.dbs.iter().map(|d| d.id.as_str()).collect();
        return (format!("unknown database: {db_id} (available: {})", known.join(", ")), true);
    };
    match sqlkit::explain(&db.database, sql) {
        Ok(report) => (report.trim_end().to_owned(), false),
        Err(e) => (format!("error: {e}"), true),
    }
}

/// Build the world and start a runtime over it.
///
/// With `opts.store` set, database contents are demand-paged out of that
/// directory of `.store` files under `opts.budget` resident bytes; the
/// benchmark is still generated for its question splits and the oracle,
/// but the served data comes off disk.
pub fn start_runtime(opts: &ServeOptions) -> (Arc<datagen::Benchmark>, Runtime) {
    let benchmark = Arc::new(datagen::generate(&profile_for(&opts.profile, opts.scale)));
    let llm = Arc::new(SimLlm::new(
        Arc::new(Oracle::new(benchmark.clone())),
        ModelProfile::gpt_4o(),
        0x11EA,
    ));
    let assets = match &opts.store {
        Some(dir) => {
            let budget = if opts.budget == 0 { u64::MAX } else { opts.budget };
            let catalog = osql_runtime::open_paged_catalog(
                std::path::Path::new(dir),
                budget,
                &benchmark.name,
            )
            .unwrap_or_else(|e| {
                eprintln!("cannot open store catalog {dir}: {e}");
                std::process::exit(2);
            });
            Arc::new(AssetCache::paged(
                Arc::new(catalog),
                llm,
                PipelineConfig::fast(),
                &benchmark.train,
            ))
        }
        None => Arc::new(AssetCache::new(benchmark.clone(), llm, PipelineConfig::fast())),
    };
    let config = RuntimeConfig {
        workers: opts.workers,
        queue_capacity: opts.queue,
        result_cache_capacity: opts.result_cache,
        trace_capacity: 64,
        flight: FlightConfig {
            slow_ms: opts.slow_ms,
            slow_log_path: opts.slow_log.clone().map(std::path::PathBuf::from),
            ..FlightConfig::default()
        },
        ..RuntimeConfig::default()
    };
    (benchmark, Runtime::start(assets, config))
}

/// Start the HTTP serving layer over a runtime built from `opts` and
/// block until `input` reaches EOF (Ctrl-D interactively), then drain.
/// Returns the final metrics snapshot.
///
/// With `opts.follow` set, a background apply loop tails the shipping
/// root (one `<db_id>/` subdirectory per database), applies shipped
/// segments into the `--store` directory, invalidates the asset cache
/// for databases that advanced, and publishes positions into the
/// [`osql_repl::ReplState`] the server's bounded-staleness admission
/// reads.
pub fn run_http_serve(opts: &ServeOptions, input: &mut dyn std::io::BufRead) -> String {
    if opts.follow.is_some() && opts.store.is_none() {
        return "--follow requires --store (the directory the follower applies into)\n".into();
    }
    if let (Some(root), Some(store)) = (&opts.follow, &opts.store) {
        // catch up before the runtime opens the catalog so freshly
        // bootstrapped stores are already listed
        let state = osql_repl::ReplState::new(1);
        if let Err(e) =
            crate::repl_cmd::follow_round(std::path::Path::new(root), std::path::Path::new(store), &state)
        {
            return format!("cannot follow {root}: {e}\n");
        }
    }
    let (benchmark, rt) = start_runtime(opts);
    let rt = Arc::new(rt);
    let mut config = osql_server::ServerConfig {
        shards: opts.shards.max(1),
        ..osql_server::ServerConfig::default()
    };
    let mut follower: Option<(Arc<osql_repl::ReplState>, std::thread::JoinHandle<()>)> = None;
    if let Some(root) = &opts.follow {
        let state = Arc::new(osql_repl::ReplState::new(
            (opts.poll_ms.max(1)).div_ceil(1000).max(1),
        ));
        config.repl = Some(state.clone());
        let loop_state = state.clone();
        let ship_root = std::path::PathBuf::from(root);
        let store_dir = std::path::PathBuf::from(opts.store.as_deref().unwrap_or_default());
        let assets = rt.assets().clone();
        let poll = std::time::Duration::from_millis(opts.poll_ms.max(1));
        let handle = std::thread::Builder::new()
            .name("osql-repl-follow".into())
            .spawn(move || {
                while !loop_state.shutdown_requested() {
                    match crate::repl_cmd::follow_round(&ship_root, &store_dir, &loop_state) {
                        Ok(rounds) => {
                            for (db, outcome) in rounds {
                                if matches!(&outcome, Ok(r) if r.applied_txns > 0) {
                                    // drop the cached pipeline + paged store so
                                    // the next read sees the applied state
                                    assets.invalidate(&db);
                                }
                            }
                        }
                        Err(e) => eprintln!("follower round failed: {e}"),
                    }
                    std::thread::sleep(poll);
                }
            })
            .expect("spawn follower loop");
        follower = Some((state, handle));
    }
    let addr = opts.http.as_deref().unwrap_or("127.0.0.1:0");
    let server = match osql_server::Server::start(rt.clone(), addr, config) {
        Ok(s) => s,
        Err(e) => return format!("cannot bind {addr}: {e}\n"),
    };
    eprintln!(
        "serving {} database(s) on http://{} ({} shard(s), {} worker(s){}); \
         POST /v1/query, GET /metrics /healthz /v1/catalog; Ctrl-D to stop",
        benchmark.dbs.len(),
        server.local_addr(),
        opts.shards.max(1),
        opts.workers,
        if opts.follow.is_some() { ", read-only follower" } else { "" }
    );
    // block until EOF, then drain connections before reporting
    let mut sink = String::new();
    while matches!(input.read_line(&mut sink), Ok(n) if n > 0) {
        sink.clear();
    }
    if let Some((state, handle)) = follower {
        state.request_shutdown();
        let _ = handle.join();
    }
    let drained = server.shutdown();
    let mut out = rt.metrics().render();
    if !drained {
        out.push_str("warning: connections still open at drain deadline\n");
    }
    out
}

/// Run batch mode and render its report.
pub fn run_batch(opts: &ServeOptions) -> String {
    let (benchmark, rt) = start_runtime(opts);
    let limit = if opts.limit == 0 { benchmark.dev.len() } else { opts.limit };
    let requests: Vec<QueryRequest> = benchmark
        .dev
        .iter()
        .take(limit)
        .map(|ex| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
        .collect();

    let clock = Throughput::start();
    let mut errors = 0usize;
    let mut cache_served = 0usize;
    for _ in 0..opts.rounds.max(1) {
        for outcome in rt.run_batch(requests.clone()) {
            clock.served();
            match outcome {
                Ok(resp) if resp.from_cache => cache_served += 1,
                Ok(_) => {}
                Err(_) => errors += 1,
            }
        }
    }
    let (served, secs, rps) = clock.snapshot();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "batch: {} request(s) over {} worker(s) in {:.2}s — {:.1} q/s",
        served, opts.workers, secs, rps
    );
    let _ = writeln!(
        out,
        "cache: {} result hit(s), {} miss(es); {} of {} served from cache; \
         {} database(s) preprocessed lazily",
        rt.results().hits(),
        rt.results().misses(),
        cache_served,
        served,
        rt.assets().len(),
    );
    if errors > 0 {
        let _ = writeln!(out, "errors: {errors}");
    }
    out.push_str(&rt.metrics().render());
    out
}

/// Serve one question and render its structured trace: the SQL, the span
/// tree, and a per-stage time breakdown. With `opts.json`, emit the
/// JSONL trace dump instead.
pub fn run_trace(opts: &ServeOptions, db_id: &str, question: &str) -> String {
    let (_benchmark, rt) = start_runtime(opts);
    let ticket = match rt.submit(QueryRequest::new(db_id, question, "")) {
        Ok(t) => t,
        Err(e) => return format!("error: {e}"),
    };
    match ticket.wait() {
        Ok(resp) => {
            let trace = &resp.run.trace;
            if opts.json {
                return trace.to_jsonl();
            }
            let mut out = format!("SQL: {}\n\n{}", resp.run.final_sql, trace.render_tree());
            out.push_str(&stage_breakdown(trace));
            out
        }
        Err(ServeError::UnknownDb(id)) => format!("error: unknown database {id}"),
        Err(e) => format!("error: {e}"),
    }
}

/// Per-stage share of one trace's wall time, from its stage spans.
fn stage_breakdown(trace: &osql_trace::QueryTrace) -> String {
    let Some(root) = trace.span_named("pipeline") else {
        return String::new();
    };
    let wall = root.duration_ms().max(1e-9);
    let mut out = String::from("\nstage breakdown:\n");
    for span in trace.spans.iter().filter(|s| s.name.starts_with("stage:")) {
        let ms = span.duration_ms();
        let _ = writeln!(
            out,
            "  {:<12} {:>9.3} ms  {:>5.1}%",
            span.name.trim_start_matches("stage:"),
            ms,
            100.0 * ms / wall
        );
    }
    out
}

/// Serve a ≥50-query batch with the result cache disabled (capacity 1) so
/// every request runs the full pipeline, then render a per-stage latency
/// table from the labeled `stage_latency_ms` histograms.
pub fn run_profile(opts: &ServeOptions) -> String {
    let opts = ServeOptions { result_cache: 1, ..opts.clone() };
    let (benchmark, rt) = start_runtime(&opts);
    let limit = if opts.limit == 0 { benchmark.dev.len() } else { opts.limit.min(benchmark.dev.len()) };
    let limit = limit.max(1);
    let rounds = opts.rounds.max(50usize.div_ceil(limit));
    let requests: Vec<QueryRequest> = benchmark
        .dev
        .iter()
        .take(limit)
        .map(|ex| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
        .collect();
    let clock = Throughput::start();
    for _ in 0..rounds {
        for outcome in rt.run_batch(requests.clone()) {
            if outcome.is_ok() {
                clock.served();
            }
        }
    }
    let (served, secs, rps) = clock.snapshot();
    let mut out = format!(
        "profile: {served} pipeline run(s) ({limit} question(s) × {rounds} round(s)) \
         over {} worker(s) in {secs:.2}s — {rps:.1} q/s\n\n",
        opts.workers
    );
    out.push_str(&stage_table(rt.metrics()));
    out
}

/// Format possibly-infinite milliseconds (a saturated histogram reports
/// an unbounded p95 rather than its last finite bound).
fn fmt_ms(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{v:.1}")
    }
}

/// The per-stage latency table: count, p50, p95, and share of the summed
/// stage wall time, from the labeled `stage_latency_ms` histograms.
/// Alignment time is nested inside refinement, so the total excludes it
/// (the three top-level stages sum to 100%); its row shows the nested
/// share.
pub fn stage_table(metrics: &osql_runtime::MetricsRegistry) -> String {
    let series = metrics.histogram_series("stage_latency_ms");
    if series.is_empty() {
        return "no stage latencies recorded yet\n".to_owned();
    }
    let total: f64 = series
        .iter()
        .filter(|(labels, _)| !labels.iter().any(|(_, v)| v == "alignments"))
        .map(|(_, h)| h.sum())
        .sum();
    let total = total.max(1e-9);
    let mut out = format!(
        "{:<12} {:>7} {:>10} {:>10} {:>8}\n",
        "stage", "count", "p50(ms)", "p95(ms)", "% wall"
    );
    for (labels, h) in &series {
        let stage = labels
            .iter()
            .find(|(k, _)| k == "stage")
            .map(|(_, v)| v.as_str())
            .unwrap_or("?");
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>10} {:>10} {:>7.1}%",
            stage,
            h.count(),
            fmt_ms(h.approx_quantile(0.5)),
            fmt_ms(h.approx_quantile(0.95)),
            100.0 * h.sum() / total,
        );
    }
    let pipeline = metrics.latency("pipeline_ms");
    if pipeline.count() > 0 {
        let _ = writeln!(
            out,
            "\npipeline     {:>7} {:>10} {:>10}",
            pipeline.count(),
            fmt_ms(pipeline.approx_quantile(0.5)),
            fmt_ms(pipeline.approx_quantile(0.95)),
        );
    }
    out
}

/// Render the flight recorder as a table, newest record first. With
/// `payloads`, append each slow record's retained `EXPLAIN` so the
/// est-vs-actual row counts are visible without a second lookup.
pub fn flight_report(rt: &Runtime, slow_only: bool, payloads: bool) -> String {
    let flight = rt.flight();
    let records = if slow_only { flight.slow(32) } else { flight.recent(32) };
    if records.is_empty() {
        return if slow_only {
            "no slow queries recorded".to_owned()
        } else {
            "flight recorder is empty".to_owned()
        };
    }
    let (slow_ms, slow_rows) = flight.thresholds();
    let mut out = format!(
        "{} record(s) shown ({} finished, {} dropped, capacity {}; \
         slow = >{:.0} ms or >{} rows):\n",
        records.len(),
        flight.finished(),
        flight.dropped(),
        flight.capacity(),
        slow_ms,
        slow_rows,
    );
    let _ = writeln!(
        out,
        "{:<20} {:<8} {:<16} {:>10} {:>10} {:>6} {:>5}",
        "trace_id", "outcome", "db", "queue(ms)", "total(ms)", "cache", "slow"
    );
    for rec in &records {
        let _ = writeln!(
            out,
            "{:<20} {:<8} {:<16} {:>10.2} {:>10.2} {:>6} {:>5}",
            rec.id,
            rec.outcome.label(),
            rec.db_id,
            rec.queue_wait_ms,
            rec.total_ms,
            if rec.from_cache { "hit" } else { "-" },
            if rec.slow { "SLOW" } else { "-" },
        );
    }
    if payloads {
        for rec in records.iter().filter(|r| r.slow) {
            if let Some(explain) = &rec.explain {
                let _ = write!(out, "\n{} EXPLAIN:\n{}", rec.id, explain.trim_end());
                out.push('\n');
            }
        }
    }
    out
}

/// Render the SLO evaluation for the `\slo` REPL command.
fn slo_text(rt: &Runtime) -> String {
    let report = rt.slo_report();
    let win = |w: &osql_runtime::SloWindow| {
        format!("{} req, bad {:.4}, burn {:.2}", w.requests, w.bad_fraction, w.burn_rate)
    };
    format!(
        "tick {}: availability target {:.3} — short [{}], long [{}], breach: {}\n\
         latency target {:.0} ms @ p{:.0} — short [{}], long [{}], breach: {}",
        report.tick,
        report.config.availability_target,
        win(&report.availability_short),
        win(&report.availability_long),
        report.availability_breach,
        report.config.latency_target_ms,
        report.config.latency_fraction * 100.0,
        win(&report.latency_short),
        win(&report.latency_long),
        report.latency_breach,
    )
}

/// `flight`/`slow` CLI modes: serve the dev split through the runtime,
/// then dump the flight recorder (all recent records, or only the slow
/// ones with their retained `EXPLAIN` payloads).
pub fn run_flight(opts: &ServeOptions, slow_only: bool) -> String {
    let (benchmark, rt) = start_runtime(opts);
    let limit = if opts.limit == 0 {
        benchmark.dev.len()
    } else {
        opts.limit.min(benchmark.dev.len())
    };
    let requests: Vec<QueryRequest> = benchmark
        .dev
        .iter()
        .take(limit)
        .map(|ex| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
        .collect();
    for _ in rt.run_batch(requests) {}
    flight_report(&rt, slow_only, slow_only)
}

/// Render the demand-paging state for the `\catalog` REPL command:
/// resident databases MRU-first with their byte costs, evicted-but-known
/// databases, and the load/evict totals against the budget.
fn catalog_status(rt: &Runtime) -> String {
    let Some(cat) = rt.assets().catalog() else {
        return "eager mode: the whole benchmark is resident (start with --store to page)".into();
    };
    let resident = cat.resident();
    let mut out = String::new();
    let budget = cat.budget();
    if budget == u64::MAX {
        let _ = writeln!(out, "budget: unlimited; resident: {} bytes", cat.resident_bytes());
    } else {
        let _ = writeln!(out, "budget: {budget} bytes; resident: {} bytes", cat.resident_bytes());
    }
    let _ = writeln!(out, "resident ({}), most recently used first:", resident.len());
    for (id, bytes) in &resident {
        let _ = writeln!(out, "  {id:<24} {bytes:>12} B");
    }
    match cat.available() {
        Ok(ids) => {
            let evicted: Vec<&String> =
                ids.iter().filter(|id| !resident.iter().any(|(r, _)| r == *id)).collect();
            let _ = writeln!(out, "on disk only ({}):", evicted.len());
            for id in evicted {
                let _ = writeln!(out, "  {id}");
            }
        }
        Err(e) => {
            let _ = writeln!(out, "cannot scan store dir: {e}");
        }
    }
    let _ = write!(out, "loads: {}, evictions: {}", cat.loads(), cat.evictions());
    out
}

/// Handle one `serve`-mode input line. Requests are
/// `db_id|question[|evidence]`; `\metrics` dumps a snapshot, `\prom` the
/// Prometheus-style exposition, `\trace` the last query's span tree,
/// `\profile` the per-stage latency table, `\flight` the flight
/// recorder, `\slow` the slow-query log (with retained `EXPLAIN`s),
/// `\slo` the windowed SLO evaluation, `\dbs` lists databases,
/// `\catalog` the demand-paging state, `\explain db_id SELECT ...` the
/// physical plan for one statement. Returns `None` on `\quit`.
pub fn handle_serve_line(
    benchmark: &datagen::Benchmark,
    rt: &Runtime,
    line: &str,
) -> Option<String> {
    let line = line.trim();
    if line.is_empty() {
        return Some(String::new());
    }
    if let Some(rest) = line.strip_prefix("\\explain") {
        let mut parts = rest.trim().splitn(2, char::is_whitespace);
        return Some(match (parts.next().filter(|s| !s.is_empty()), parts.next()) {
            (Some(db_id), Some(sql)) => {
                match benchmark.dbs.iter().find(|d| d.id == db_id) {
                    Some(db) => match sqlkit::explain(&db.database, sql.trim()) {
                        Ok(report) => report.trim_end().to_owned(),
                        Err(e) => format!("error: {e}"),
                    },
                    None => format!("error: unknown database {db_id}"),
                }
            }
            _ => "usage: \\explain db_id SELECT ...".into(),
        });
    }
    match line {
        "\\quit" | "\\q" => return None,
        "\\metrics" => return Some(rt.metrics().render()),
        "\\prom" => return Some(rt.metrics().render_prometheus()),
        "\\profile" => return Some(stage_table(rt.metrics())),
        "\\trace" => {
            return Some(match rt.traces().last() {
                Some(trace) => format!("{}{}", trace.render_tree(), stage_breakdown(&trace)),
                None => "no traces recorded yet".to_owned(),
            })
        }
        "\\dbs" => {
            return Some(
                benchmark.dbs.iter().map(|db| db.id.as_str()).collect::<Vec<_>>().join("\n"),
            )
        }
        "\\catalog" => return Some(catalog_status(rt)),
        "\\flight" => return Some(flight_report(rt, false, false)),
        "\\slow" => return Some(flight_report(rt, true, true)),
        "\\slo" => return Some(slo_text(rt)),
        _ => {}
    }
    let mut parts = line.splitn(3, '|');
    let (db_id, question) = match (parts.next(), parts.next()) {
        (Some(db), Some(q)) if !q.trim().is_empty() => (db.trim(), q.trim()),
        _ => {
            return Some(
                "usage: db_id|question[|evidence]  \
                 (\\metrics, \\prom, \\trace, \\profile, \\flight, \\slow, \\slo, \
                 \\dbs, \\catalog, \\explain, \\quit)"
                    .into(),
            )
        }
    };
    let evidence = parts.next().unwrap_or("").trim();
    let ticket = match rt.submit(QueryRequest::new(db_id, question, evidence)) {
        Ok(t) => t,
        Err(e) => return Some(format!("error: {e}")),
    };
    Some(match ticket.wait() {
        Ok(resp) => {
            let marker = if resp.from_cache { " [cached]" } else { "" };
            format!("SQL: {}{marker}", resp.run.final_sql)
        }
        Err(ServeError::UnknownDb(id)) => format!("error: unknown database {id}"),
        Err(e) => format!("error: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ServeOptions {
        ServeOptions { limit: 4, workers: 2, ..ServeOptions::default() }
    }

    #[test]
    fn batch_mode_reports_throughput_and_metrics() {
        let report = run_batch(&opts());
        assert!(report.contains("4 request(s)"), "{report}");
        assert!(report.contains("q/s"), "{report}");
        assert!(report.contains("requests_total 4"), "{report}");
        assert!(report.contains("queue_wait_ms"), "{report}");
    }

    #[test]
    fn repeated_rounds_hit_the_result_cache() {
        let report = run_batch(&ServeOptions { rounds: 3, ..opts() });
        assert!(report.contains("12 request(s)"), "{report}");
        assert!(report.contains("8 of 12 served from cache"), "{report}");
    }

    #[test]
    fn serve_lines_answer_and_report() {
        let (benchmark, rt) = start_runtime(&opts());
        let ex = &benchmark.dev[0];
        let line = format!("{}|{}|{}", ex.db_id, ex.question, ex.evidence);
        let out = handle_serve_line(&benchmark, &rt, &line).unwrap();
        assert!(out.starts_with("SQL: SELECT"), "{out}");
        let again = handle_serve_line(&benchmark, &rt, &line).unwrap();
        assert!(again.contains("[cached]"), "{again}");
        assert!(handle_serve_line(&benchmark, &rt, "ghost|q").unwrap().contains("unknown"));
        assert!(handle_serve_line(&benchmark, &rt, "garbage").unwrap().contains("usage"));
        assert!(handle_serve_line(&benchmark, &rt, "\\metrics").unwrap().contains("counters"));
        assert!(handle_serve_line(&benchmark, &rt, "\\catalog").unwrap().contains("eager mode"));
        assert!(handle_serve_line(&benchmark, &rt, "\\quit").is_none());
    }

    #[test]
    fn explain_via_serve_line_renders_a_plan() {
        let (benchmark, rt) = start_runtime(&opts());
        let db = &benchmark.dbs[0];
        let table = &db.database.schema.tables[0];
        let pk = table.columns.iter().find(|c| c.primary_key).expect("themes declare PKs");
        let line =
            format!("\\explain {} SELECT * FROM {} WHERE {} = 1", db.id, table.name, pk.name);
        let out = handle_serve_line(&benchmark, &rt, &line).unwrap();
        assert!(out.contains("IxScan"), "{out}");
        assert!(out.contains("actual="), "{out}");
        assert!(handle_serve_line(&benchmark, &rt, "\\explain ghost SELECT 1")
            .unwrap()
            .contains("unknown database"));
        assert!(handle_serve_line(&benchmark, &rt, "\\explain").unwrap().contains("usage"));
    }

    #[test]
    fn http_serve_binds_drains_and_reports() {
        let http_opts =
            ServeOptions { http: Some("127.0.0.1:0".to_owned()), shards: 2, ..opts() };
        // EOF immediately: the server starts, drains cleanly, and the
        // final metrics snapshot comes back
        let mut input = std::io::Cursor::new(Vec::<u8>::new());
        let report = run_http_serve(&http_opts, &mut input);
        // no traffic flowed, so the snapshot is the empty-registry one
        assert!(report.contains("no metrics recorded"), "{report}");
        assert!(!report.contains("warning"), "{report}");
    }

    #[test]
    fn store_backed_serving_answers_and_reports_catalog() {
        let dir = std::env::temp_dir().join(format!("osql-serve-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let world = datagen::generate(&profile_for("tiny", 1.0));
        datagen::export_store(&world, &dir).unwrap();
        let store_opts = ServeOptions {
            store: Some(dir.to_string_lossy().into_owned()),
            ..opts()
        };
        let (benchmark, rt) = start_runtime(&store_opts);
        let ex = &benchmark.dev[0];
        let line = format!("{}|{}|{}", ex.db_id, ex.question, ex.evidence);
        let out = handle_serve_line(&benchmark, &rt, &line).unwrap();
        assert!(out.starts_with("SQL: SELECT"), "{out}");
        let status = handle_serve_line(&benchmark, &rt, "\\catalog").unwrap();
        assert!(status.contains("budget: unlimited"), "{status}");
        assert!(status.contains(&ex.db_id), "{status}");
        assert!(status.contains("loads: 1"), "{status}");
        let snapshot = rt.metrics().render();
        assert!(snapshot.contains("db_load_total"), "{snapshot}");
        assert!(snapshot.contains("store_bytes_resident"), "{snapshot}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
