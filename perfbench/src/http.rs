//! `http_repeat`: two keep-alive clients in a closed loop over loopback
//! HTTP against `osql-server`, which serves the world from a packed store
//! directory through the paged catalog with the serving configuration
//! (`PipelineConfig::fast()`, 3 candidates).
//!
//! Set-up asks [`WARM`] questions once, so the result cache holds them.
//! In the timed run almost every request repeats an earlier question: the
//! HTTP parse and write, the cache lookup and the in-flight coalescer do
//! the work and the pipeline barely runs. Every 200 body's SQL is checked
//! after the run against an in-process `Pipeline::answer` with the same
//! configuration and model seed.

use crate::answer::{ex_match, plan_cache_since, report_sqlkit};
use crate::check;
use crate::json;
use crate::llm::{LlmTotals, TimedLlm};
use crate::report::{Check, Outcome};
use crate::stats;
use crate::world::{self, Opts, Rng, SetupTimes, WorkDir};
use datagen::Benchmark;
use llmsim::LanguageModel;
use opensearch_sql::{Pipeline, PipelineConfig, Preprocessed};
use osql_runtime::{open_paged_catalog, AssetCache, Runtime, RuntimeConfig};
use osql_server::{Server, ServerConfig};
use osql_store::CatalogEvent;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Load threads, one keep-alive connection each (the host's core count).
pub const CLIENTS: usize = 2;
/// Runtime worker threads.
pub const WORKERS: usize = 2;
/// Result-cache entries: holds every question the workload asks.
pub const RESULT_CACHE: usize = 65_536;
/// Dev questions generated: the pool of questions to ask.
pub const DEV: usize = 2000;
/// Questions asked once in set-up, so the result cache holds them when
/// the timed run starts.
pub const WARM: usize = 300;
/// Chance that the next request introduces a new question, asked twice
/// back to back so the two clients coalesce on it. Kept rare: a pipeline
/// run holds a core for milliseconds, and on two cores the hits queued
/// behind it would set the p99.
pub const NEW_SHARE: f64 = 0.0002;
/// Latency limit behind `slo_pct`.
pub const SLO_MS: f64 = 5.0;
/// Requests per second of `--seconds` (twice the parent commit's
/// closed-loop rate: a run of the parent lasts about `2 × --seconds`).
pub const REQUESTS_PER_SECOND: f64 = 40_000.0;

// ---- loopback HTTP client ------------------------------------------------

/// Largest response body the client accepts.
const MAX_BODY: usize = 16 << 20;

/// A keep-alive HTTP/1.1 connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr`.
    fn open(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request and read the whole response: `(status, body)`.
    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(msg.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("content-length"))?;
                }
            }
        }
        if len > MAX_BODY {
            return Err(bad("body too large"));
        }
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf)?;
        Ok((status, String::from_utf8_lossy(&buf).into_owned()))
    }
}

fn query_body(ex: &datagen::Example) -> String {
    format!(
        "{{\"db_id\":{},\"question\":{},\"evidence\":{}}}",
        json::quote(&ex.db_id),
        json::quote(&ex.question),
        json::quote(&ex.evidence)
    )
}

/// Counters from a `/metrics` scrape (unlabelled series only).
fn scrape(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let mut c = Client::open(addr).map_err(|e| format!("metrics connect: {e}"))?;
    let (status, text) = c
        .request("GET", "/metrics", "")
        .map_err(|e| format!("metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k.to_owned(), v.trim().parse().ok()?)))
        .collect())
}

fn counter_delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

// ---- set-up --------------------------------------------------------------

struct Serving {
    bench: Arc<Benchmark>,
    timer: Option<Arc<TimedLlm>>,
    live: Live,
}

/// Generate the world, pack it into store files, open them through the
/// paged catalog with a budget that holds them all, build the few-shot
/// library, warm every database (load + per-database indexes), start the
/// server, and ask it each of the first `warm` distinct questions once.
fn setup_serving(
    opts: &Opts,
    dev: usize,
    dir: &Path,
    warm: usize,
) -> Result<(Serving, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let (bench, s) = world::timed(|| Arc::new(datagen::generate(&world::profile(opts, dev))));
    t.generate_s = s;
    let _ = std::fs::remove_dir_all(dir);
    let files = datagen::export_store(&bench, dir).map_err(|e| format!("pack: {e}"))?;
    let bytes: u64 = files
        .iter()
        .map(|f| std::fs::metadata(f).map_or(0, |m| m.len()))
        .sum();
    let catalog = Arc::new(
        open_paged_catalog(dir, bytes.saturating_mul(8), &bench.name)
            .map_err(|e| format!("catalog: {e}"))?,
    );
    let sim = world::sim_llm(&bench);
    let (llm, timer): (Arc<dyn LanguageModel>, _) = if opts.traced {
        let timer = Arc::new(TimedLlm::new(sim));
        (timer.clone(), Some(timer))
    } else {
        (sim, None)
    };
    let (assets, mut pre_s) = world::timed(|| {
        Arc::new(AssetCache::paged(
            catalog.clone(),
            llm,
            PipelineConfig::fast(),
            &bench.train,
        ))
    });
    for db in &bench.dbs {
        catalog
            .get(&db.id)
            .map_err(|e| format!("load {}: {e}", db.id))?;
        for ev in catalog.take_events() {
            if let CatalogEvent::Load { micros, .. } = ev {
                t.catalog_loads += 1.0;
                t.load_ms += micros as f64 / 1e3;
            }
        }
        let (p, s) = world::timed(|| assets.pipeline(&db.id));
        p.map_err(|e| format!("warm {}: {e:?}", db.id))?;
        pre_s += s;
    }
    t.preprocess_s = pre_s;
    let live = Live::start(assets)?;
    let mut client = Client::open(live.addr()).map_err(|e| format!("connect: {e}"))?;
    for i in world::distinct_dev(&bench).into_iter().take(warm) {
        let (status, body) = client
            .request("POST", "/v1/query", &query_body(&bench.dev[i]))
            .map_err(|e| format!("warm-up: {e}"))?;
        if status != 200 {
            return Err(format!("warm-up request answered {status}: {body}"));
        }
    }
    Ok((Serving { bench, timer, live }, t))
}

/// A running server over the warmed assets; stopped on drop.
struct Live {
    rt: Arc<Runtime>,
    server: Option<Server>,
}

impl Live {
    fn start(assets: Arc<AssetCache>) -> Result<Live, String> {
        let rt = Arc::new(Runtime::start(
            assets,
            RuntimeConfig {
                workers: WORKERS,
                queue_capacity: 64,
                result_cache_capacity: RESULT_CACHE,
                ..RuntimeConfig::default()
            },
        ));
        let server = Server::start(
            rt.clone(),
            "127.0.0.1:0",
            ServerConfig {
                shards: 2,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("bind loopback: {e}"))?;
        Ok(Live {
            rt,
            server: Some(server),
        })
    }

    fn addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .expect("the server runs until stopped")
            .local_addr()
    }

    /// Drain the server and wait until this is the last runtime handle, so
    /// dropping it joins the workers and ticker.
    fn stop(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        let drained = server.shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&self.rt) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if drained && Arc::strong_count(&self.rt) == 1 {
            Ok(())
        } else {
            Err("server did not drain".to_owned())
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

// ---- reference answers ---------------------------------------------------

/// In-process `Pipeline::answer` for each question index, with the serving
/// configuration and model seed, on an eager copy of the world. Returns
/// the final SQL and the modelled LLM milliseconds per question.
fn reference_answers(bench: &Arc<Benchmark>, questions: &[usize]) -> HashMap<usize, (String, f64)> {
    let sim = world::sim_llm(bench);
    let pre = Arc::new(Preprocessed::run(bench.clone(), sim.as_ref()));
    let out = Mutex::new(HashMap::with_capacity(questions.len()));
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let timer = Arc::new(TimedLlm::new(sim.clone()));
                let pipeline = Pipeline::new(pre.clone(), timer.clone(), PipelineConfig::fast());
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = questions.get(k) else { break };
                    let ex = &bench.dev[i];
                    let before = timer.totals();
                    let run = pipeline.answer(&ex.db_id, &ex.question, &ex.evidence);
                    let modelled = timer.totals().since(&before).modelled_ms;
                    out.lock()
                        .expect("no reference thread panics holding the map")
                        .insert(i, (run.final_sql, modelled));
                }
            });
        }
    });
    out.into_inner().expect("reference threads joined")
}

// ---- one served request --------------------------------------------------

#[derive(Debug, Clone)]
struct Served {
    /// Request number within the run.
    seq: usize,
    question: usize,
    /// Milliseconds from the start of the run.
    sent_ms: f64,
    done_ms: f64,
    status: u16,
    /// The served SQL; repeats of one question share one copy.
    sql: Option<Arc<str>>,
    queue_wait_ms: f64,
    total_ms: f64,
}

impl Served {
    fn latency_ms(&self) -> f64 {
        self.done_ms - self.sent_ms
    }
}

/// Keeps one copy of each distinct SQL string a load thread receives.
#[derive(Default)]
struct Interner(std::collections::HashSet<Arc<str>>);

impl Interner {
    fn get(&mut self, s: &str) -> Arc<str> {
        if let Some(a) = self.0.get(s) {
            return a.clone();
        }
        let a: Arc<str> = Arc::from(s);
        self.0.insert(a.clone());
        a
    }
}

fn send(
    client: &mut Option<Client>,
    addr: SocketAddr,
    ex: &datagen::Example,
    seen: &mut Interner,
) -> (u16, Option<Arc<str>>, f64, f64) {
    if client.is_none() {
        *client = Client::open(addr).ok();
    }
    let Some(c) = client.as_mut() else {
        return (0, None, 0.0, 0.0);
    };
    match c.request("POST", "/v1/query", &query_body(ex)) {
        Ok((status, body)) => {
            let obj = json::parse_flat(&body).unwrap_or_default();
            let num = |k| json::num_field(&obj, k).unwrap_or(0.0);
            let sql = if status == 200 {
                json::str_field(&obj, "sql").map(|q| seen.get(q))
            } else {
                None
            };
            (status, sql, num("queue_wait_ms"), num("total_ms"))
        }
        Err(_) => {
            *client = None;
            (0, None, 0.0, 0.0)
        }
    }
}

/// What the traced half of a run saw, measured from outside.
struct Layers {
    llm: LlmTotals,
    sql: sqlkit::PlanCacheStats,
    metrics_before: HashMap<String, f64>,
    metrics_after: HashMap<String, f64>,
}

type Snapshot = (HashMap<String, f64>, sqlkit::PlanCacheStats, LlmTotals);

/// A traced run's switch from its untraced first half to its traced
/// second half: the load thread that takes request number `half` turns
/// the model wrapper's accounting on and snapshots the layer counters.
struct Tracer<'a> {
    timer: &'a TimedLlm,
    addr: SocketAddr,
    half: usize,
    start: Mutex<Option<Result<Snapshot, String>>>,
}

impl<'a> Tracer<'a> {
    fn new(timer: &'a TimedLlm, addr: SocketAddr, requests: usize) -> Self {
        timer.set_enabled(false);
        Tracer {
            timer,
            addr,
            half: requests / 2,
            start: Mutex::new(None),
        }
    }

    /// Called with each request number before the request is sent.
    fn at(&self, seq: usize) {
        if seq == self.half {
            let snap =
                scrape(self.addr).map(|m| (m, sqlkit::plan_cache().stats(), self.timer.totals()));
            self.timer.set_enabled(true);
            *self.start.lock().expect("tracer lock") = Some(snap);
        }
    }

    /// The layer counters' movement over the second half.
    fn finish(self) -> Result<Layers, String> {
        let start = self.start.into_inner().expect("tracer lock");
        let (metrics_before, sql0, llm0) =
            start.ok_or("the run ended before its traced half")??;
        Ok(Layers {
            llm: self.timer.totals().since(&llm0),
            sql: plan_cache_since(&sql0),
            metrics_before,
            metrics_after: scrape(self.addr)?,
        })
    }
}

/// Per-layer serving metrics over the traced half (`served` are its
/// requests), plus the trace overhead against the untraced half.
fn report_serving(
    out: &mut Outcome,
    layers: &Layers,
    served: &[Served],
    untraced_p50: f64,
    modelled: &[f64],
) {
    let ok: Vec<&Served> = served.iter().filter(|s| s.status == 200).collect();
    let ops = served.len().max(1) as f64;
    let col =
        |f: &dyn Fn(&Served) -> f64| stats::sorted(&ok.iter().map(|s| f(s)).collect::<Vec<_>>());
    let waits = col(&|s| s.queue_wait_ms);
    out.set("runtime.queue_wait_ms_p50", stats::quantile(&waits, 0.5));
    out.set("runtime.queue_wait_ms_p99", stats::quantile(&waits, 0.99));
    out.set(
        "runtime.service_ms_p50",
        stats::quantile(&col(&|s| s.total_ms - s.queue_wait_ms), 0.5),
    );
    out.set(
        "server.overhead_ms_p50",
        stats::quantile(&col(&|s| s.latency_ms() - s.total_ms), 0.5),
    );
    let (b, a) = (&layers.metrics_before, &layers.metrics_after);
    let hits = counter_delta(b, a, "result_cache_hits");
    let misses = counter_delta(b, a, "result_cache_misses");
    out.set(
        "runtime.result_cache_hit_ratio",
        stats::ratio(hits, hits + misses),
    );
    out.set(
        "server.coalesced_ratio",
        counter_delta(b, a, "coalesced_requests_total") / ops,
    );
    out.set(
        "server.shed_ratio",
        counter_delta(b, a, "queue_shed_total") / ops,
    );
    out.set("llmsim.calls", layers.llm.calls as f64 / ops);
    out.set("llmsim.cpu_ms", layers.llm.cpu_ms / ops);
    out.set("llm_tokens_per_op", layers.llm.tokens as f64 / ops);
    out.set("llm_modelled_ms_p50", stats::median(modelled));
    let sql = layers.sql;
    report_sqlkit(out, &|f| f(&sql) as f64, ops);
    let traced_p50 = stats::median(&ok.iter().map(|s| s.latency_ms()).collect::<Vec<_>>());
    out.set(
        "trace_overhead_pct",
        100.0 * (stats::ratio(traced_p50, untraced_p50) - 1.0),
    );
}

/// Check every 200 body against the reference, count failures, and set
/// the end-to-end latency, throughput, SLO and accuracy metrics.
fn score(
    out: &mut Outcome,
    served: &[Served],
    reference: &HashMap<usize, (String, f64)>,
    bench: &Benchmark,
    slo_ms: f64,
) {
    let mut sql_check = Check::new("every 200 body's SQL equals an in-process Pipeline::answer");
    let span_ms = served.iter().map(|s| s.done_ms).fold(0.0, f64::max);
    let (mut ok, mut ordered_ms) = (0usize, Vec::with_capacity(served.len()));
    let mut within = 0usize;
    for s in served {
        let verdict = match reference.get(&s.question) {
            Some((want, _)) => check::served_sql(s.status, s.sql.as_deref(), want),
            None => Err(format!("no reference answer for question {}", s.question)),
        };
        if verdict.is_ok() {
            ok += 1;
            ordered_ms.push(s.latency_ms());
            within += usize::from(s.latency_ms() <= slo_ms);
        } else {
            out.failed += 1;
            ordered_ms.push(span_ms);
        }
        sql_check.record(verdict);
    }
    out.attempted = served.len() as u64;
    let (p50, p99) = stats::robust_latency(&ordered_ms);
    out.set("latency_p50_ms", p50);
    out.set("latency_p99_ms", p99);
    let mut ends: Vec<f64> = served
        .iter()
        .filter(|s| s.sql.is_some())
        .map(|s| s.done_ms / 1e3)
        .collect();
    ends.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    out.set(
        "throughput_ops_s",
        stats::robust_rate(&ends) * ok as f64 / ends.len().max(1) as f64,
    );
    out.set(
        "slo_pct",
        100.0 * within as f64 / served.len().max(1) as f64,
    );
    let mut distinct: Vec<usize> = reference.keys().copied().collect();
    distinct.sort_unstable();
    let correct = distinct
        .iter()
        .filter(|&&i| ex_match(bench, &bench.dev[i], &reference[&i].0))
        .count();
    out.set(
        "ex_pct",
        100.0 * stats::ratio(correct as f64, distinct.len() as f64),
    );
    out.notes.push(format!(
        "{} requests, {ok} ok, {} distinct questions, {} samples per p99",
        served.len(),
        distinct.len(),
        stats::p99_samples(ordered_ms.len())
    ));
    out.checks.push(sql_check);
}

// ---- the workload ----------------------------------------------------------

/// The `http_repeat` request stream: deterministic in the seed, whatever
/// the timing. With chance [`NEW_SHARE`] the next request is a new
/// question, asked twice in a row; otherwise it repeats a uniformly chosen
/// question asked before (in set-up or earlier in the run). New questions
/// come in split order; once the pool is spent, every request repeats.
struct RepeatStream {
    rng: Rng,
    pool: Vec<usize>,
    asked: Vec<usize>,
    pending: Option<usize>,
}

impl RepeatStream {
    /// The first `warm` distinct questions were asked in set-up.
    fn new(bench: &Benchmark, opts: &Opts, warm: usize) -> Self {
        let mut pool = world::distinct_dev(bench);
        let asked = pool.drain(..warm.min(pool.len())).collect();
        pool.reverse();
        RepeatStream {
            rng: Rng::new(opts.seed, 6),
            pool,
            asked,
            pending: None,
        }
    }

    fn next(&mut self) -> usize {
        if let Some(q) = self.pending.take() {
            return q;
        }
        let fresh = self.asked.is_empty() || self.rng.unit() < NEW_SHARE;
        match if fresh { self.pool.pop() } else { None } {
            Some(q) => {
                self.asked.push(q);
                self.pending = Some(q);
                q
            }
            None => self.asked[self.rng.below(self.asked.len())],
        }
    }
}

/// Run `http_repeat`.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let work = WorkDir::new("http_repeat").map_err(|e| format!("work dir: {e}"))?;
    let dev = opts.size(DEV, 24);
    let warm = opts.size(WARM, 4);
    let (mut sv, times) = world::repeated_setup(opts, |k| {
        setup_serving(opts, dev, &work.path().join(format!("pack{k}")), warm)
    })?;
    world::report_setup(&mut out, &times);

    let stream = Mutex::new(RepeatStream::new(&sv.bench, opts, warm));
    let addr = sv.live.addr();
    let requests = opts.ops(opts.size(REQUESTS_PER_SECOND, 2000.0));
    let tracer = sv.timer.as_deref().map(|t| Tracer::new(t, addr, requests));
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let since = |t: Instant| (t - started).as_secs_f64() * 1e3;
    let served = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::open(addr).ok();
                    let mut seen = Interner::default();
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= requests {
                            break;
                        }
                        if let Some(t) = &tracer {
                            t.at(k);
                        }
                        let q = stream.lock().expect("stream lock").next();
                        let sent = Instant::now();
                        let (status, sql, queue_wait_ms, total_ms) =
                            send(&mut client, addr, &sv.bench.dev[q], &mut seen);
                        let done = Instant::now();
                        let sent_ms = since(sent);
                        mine.push(Served {
                            seq: k,
                            question: q,
                            sent_ms,
                            done_ms: since(done),
                            status,
                            sql,
                            queue_wait_ms,
                            total_ms,
                        });
                    }
                    mine
                })
            })
            .collect();
        let mut served: Vec<Served> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread"))
            .collect();
        served.sort_by_key(|s| s.seq);
        served
    });
    let layers = tracer.map(Tracer::finish);
    sv.live.stop()?;

    let mut questions: Vec<usize> = served.iter().map(|s| s.question).collect();
    questions.sort_unstable();
    questions.dedup();
    let reference = reference_answers(&sv.bench, &questions);
    score(&mut out, &served, &reference, &sv.bench, SLO_MS);
    let new = stream.lock().expect("stream lock").asked.len() - warm;
    out.notes.push(format!(
        "{new} new questions introduced; {:.3}% of requests repeat an earlier one",
        100.0 * (1.0 - new as f64 / served.len().max(1) as f64)
    ));
    if let Some(layers) = layers {
        let layers = layers?;
        let half = requests / 2;
        let (first, second): (Vec<Served>, Vec<Served>) =
            served.iter().cloned().partition(|s| s.seq < half);
        let untraced_p50 = stats::median(
            &first
                .iter()
                .filter(|s| s.status == 200)
                .map(Served::latency_ms)
                .collect::<Vec<_>>(),
        );
        // one pipeline run per distinct question, in set-up or in the run
        let modelled: Vec<f64> = reference.values().map(|r| r.1).collect();
        report_serving(&mut out, &layers, &second, untraced_p50, &modelled);
    }
    out.set("peak_rss_mb", world::peak_rss_mb());
    Ok(out)
}
