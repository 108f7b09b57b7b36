//! The serving runtime: a worker pool draining a bounded request queue
//! into pipeline runs, fronted by the two-level cache and instrumented
//! through the metrics registry.
//!
//! Worker count is a pure throughput knob: requests don't interact (the
//! pipeline is deterministic per question and the caches only memoise),
//! so the answer to every request — and any EX score computed over the
//! answers — is identical at 1 worker and at 8.

use crate::cache::{config_fingerprint, AssetCache, AssetMiss, ResultCache, ResultKey};
use crate::metrics::{MetricsRegistry, FRACTION_BOUNDS};
use crate::queue::{BoundedQueue, PushError};
use crate::window::{LogicalClock, SloConfig, SloReport, WindowedMetrics};
use opensearch_sql::{EvalReport, Module, PipelineRun};
use osql_trace::flight::{fnv1a, FlightConfig, FlightRecorder, RequestIdGen, RequestOutcome, RequestRecord};
use osql_trace::{active, QueryTrace, TraceCollector};
use osql_chk::atomic::{AtomicBool, AtomicU64, Ordering};
use osql_chk::{oneshot, Mutex};
use std::sync::Arc;
use std::time::Instant;

/// Round a fractional retry hint in seconds up to whole seconds, clamped
/// to `[1, cap]`. **The** shared rounding for every `Retry-After` the
/// stack emits — admission control ([`QueueStats::estimated_drain_secs`])
/// and the server's quota rejections both route through it, so the two
/// paths can never drift apart in how they round.
pub fn retry_after_secs(estimate_secs: f64, cap: u64) -> u64 {
    let cap = cap.max(1);
    if !estimate_secs.is_finite() {
        return cap;
    }
    (estimate_secs.ceil() as u64).clamp(1, cap)
}

/// One query for the runtime to serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// Target database id.
    pub db_id: String,
    /// Natural-language question.
    pub question: String,
    /// External knowledge / evidence string (may be empty).
    pub evidence: String,
    /// Request trace ID. Empty ⇒ the runtime assigns one at submit; set
    /// it (via [`QueryRequest::with_trace_id`]) to propagate an ID the
    /// caller already handed out, e.g. from an `X-Osql-Trace-Id` header.
    pub trace_id: String,
}

impl QueryRequest {
    /// Build a request (the runtime will assign its trace ID).
    pub fn new(
        db_id: impl Into<String>,
        question: impl Into<String>,
        evidence: impl Into<String>,
    ) -> Self {
        QueryRequest {
            db_id: db_id.into(),
            question: question.into(),
            evidence: evidence.into(),
            trace_id: String::new(),
        }
    }

    /// Carry a caller-chosen trace ID through the queue and pipeline.
    pub fn with_trace_id(mut self, trace_id: impl Into<String>) -> Self {
        self.trace_id = trace_id.into();
        self
    }
}

/// A served answer.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The pipeline run that answered the question (possibly replayed
    /// from the result cache).
    pub run: Arc<PipelineRun>,
    /// Whether the result cache answered without running the pipeline.
    pub from_cache: bool,
    /// Wall-clock milliseconds the request sat in the queue.
    pub queue_wait_ms: f64,
    /// The trace ID this request ran under — the key into
    /// [`Runtime::flight`] and `/debug/trace/<id>`.
    pub trace_id: String,
}

/// Why a request could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The benchmark has no database with this id.
    UnknownDb(String),
    /// The database's store file exists but failed to load (disk I/O
    /// error or corruption) — deliberately distinct from [`Self::UnknownDb`]
    /// so storage trouble is never mistaken for a bad request.
    DbLoadFailed {
        /// Database id whose store failed to load.
        db_id: String,
        /// The loader's error.
        reason: String,
    },
    /// The reply channel died before an answer arrived. The reason says
    /// whether that was an orderly shutdown (retryable elsewhere — a
    /// server maps it to 503) or a lost worker (a bug — 500); conflating
    /// the two would let panics masquerade as clean drains.
    Canceled {
        /// What killed the reply channel.
        reason: CancelReason,
    },
}

/// Why a pending request's reply channel died (see
/// [`ServeError::Canceled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The runtime was shut down before (or while) the request ran.
    Shutdown,
    /// The reply sender vanished while the runtime was still accepting
    /// work — a worker panicked mid-job or the job was dropped without a
    /// reply. This is a defect, not an operational state.
    WorkerLost,
}

impl ServeError {
    /// Shorthand for an orderly-shutdown cancellation.
    pub fn canceled_by_shutdown() -> Self {
        ServeError::Canceled { reason: CancelReason::Shutdown }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownDb(id) => write!(f, "unknown database: {id}"),
            ServeError::DbLoadFailed { db_id, reason } => {
                write!(f, "database {db_id} failed to load: {reason}")
            }
            ServeError::Canceled { reason: CancelReason::Shutdown } => {
                f.write_str("request canceled by shutdown")
            }
            ServeError::Canceled { reason: CancelReason::WorkerLost } => {
                f.write_str("request lost: reply channel died without a shutdown")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity (only from `try_submit`).
    QueueFull,
    /// The runtime is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("request queue full"),
            SubmitError::ShuttingDown => f.write_str("runtime shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A pending answer; redeem with [`Ticket::wait`].
pub struct Ticket {
    rx: oneshot::Receiver<Result<QueryResponse, ServeError>>,
    queue: Arc<BoundedQueue<Job>>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Block until the answer arrives.
    ///
    /// A dead reply channel is reported as [`ServeError::Canceled`] with
    /// a reason: [`CancelReason::Shutdown`] when the runtime's queue has
    /// been closed (orderly drain), [`CancelReason::WorkerLost`] when it
    /// hasn't — the sender can only have vanished to a worker panic.
    pub fn wait(self) -> Result<QueryResponse, ServeError> {
        self.rx.recv().unwrap_or_else(|_| {
            let reason = if self.queue.is_closed() {
                CancelReason::Shutdown
            } else {
                CancelReason::WorkerLost
            };
            Err(ServeError::Canceled { reason })
        })
    }
}

/// Test-support hooks for the model-checking suite; compiled only under
/// `--cfg osql_model` and used by `tests/model.rs`.
#[cfg(osql_model)]
#[doc(hidden)]
pub mod model_support {
    use super::*;

    /// A [`Ticket`] wired to a fresh empty queue, with its reply sender
    /// and a closure that closes the queue — the three handles the
    /// cancellation-race model test needs.
    #[allow(clippy::type_complexity)]
    pub fn detached_ticket() -> (
        oneshot::Sender<Result<QueryResponse, ServeError>>,
        Ticket,
        impl Fn() + Send + Sync + 'static,
    ) {
        let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(1));
        let (tx, rx) = oneshot::channel();
        let ticket = Ticket { rx, queue: queue.clone() };
        (tx, ticket, move || queue.close())
    }
}

/// Runtime sizing knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads draining the queue (at least 1).
    pub workers: usize,
    /// Bounded queue capacity; full ⇒ `submit` blocks, `try_submit`
    /// returns [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// LRU result-cache capacity.
    pub result_cache_capacity: usize,
    /// How many finished query traces the runtime retains (drop-oldest).
    pub trace_capacity: usize,
    /// Flight-recorder sizing and slow-query thresholds (capacity 0
    /// disables the recorder).
    pub flight: FlightConfig,
    /// Windowed-metrics ring width in logical ticks.
    pub window_ticks: usize,
    /// Milliseconds per logical tick for the background ticker thread;
    /// `0` spawns no ticker — tests advance [`Runtime::clock`] manually
    /// for deterministic windows.
    pub tick_interval_ms: u64,
    /// Service-level objectives evaluated over the windowed stream.
    pub slo: SloConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            queue_capacity: 64,
            result_cache_capacity: 256,
            trace_capacity: 64,
            flight: FlightConfig::default(),
            window_ticks: 144,
            tick_interval_ms: 1000,
            slo: SloConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// A config with the given worker count and the default queue/cache
    /// sizes.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeConfig { workers, ..Self::default() }
    }
}

struct Job {
    req: QueryRequest,
    enqueued: Instant,
    reply: oneshot::Sender<Result<QueryResponse, ServeError>>,
}

/// A point-in-time view of the request queue for admission control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueStats {
    /// Requests waiting right now.
    pub depth: usize,
    /// Maximum queued requests.
    pub capacity: usize,
    /// Requests ever dequeued by workers (cumulative).
    pub drained_total: u64,
    /// Recent drain rate in requests/second, from a sliding window of
    /// drain-counter samples (lifetime average until the window has two
    /// samples far enough apart). 0.0 before anything has drained.
    pub drain_rate_per_sec: f64,
}

impl QueueStats {
    /// Seconds until the current backlog drains at the recent rate —
    /// the honest basis for a `Retry-After` header. Conservative
    /// fallbacks: 1s when the queue is empty-ish or the rate is unknown,
    /// capped at 60s so a stalled drain never advertises an hour.
    pub fn estimated_drain_secs(&self) -> u64 {
        if self.depth == 0 {
            return 1;
        }
        if self.drain_rate_per_sec <= f64::EPSILON {
            return 60;
        }
        retry_after_secs(self.depth as f64 / self.drain_rate_per_sec, 60)
    }
}

/// Sliding-window sampler over the queue's cumulative drain counter.
/// Sampled on read (every `queue_stats` call appends a point), so idle
/// periods cost nothing; the window keeps ~10s of history.
struct DrainWindow {
    samples: Mutex<std::collections::VecDeque<(Instant, u64)>>,
    started: Instant,
}

const DRAIN_WINDOW: std::time::Duration = std::time::Duration::from_secs(10);

impl DrainWindow {
    fn new() -> Self {
        DrainWindow {
            samples: Mutex::new(std::collections::VecDeque::new()),
            started: Instant::now(),
        }
    }

    /// Record `(now, drained_total)` and return the recent rate.
    fn observe(&self, now: Instant, drained_total: u64) -> f64 {
        let mut samples = self.samples.lock();
        while let Some(&(t, _)) = samples.front() {
            if now.duration_since(t) > DRAIN_WINDOW && samples.len() > 1 {
                samples.pop_front();
            } else {
                break;
            }
        }
        samples.push_back((now, drained_total));
        let (oldest_t, oldest_n) = *samples.front().expect("just pushed");
        let dt = now.duration_since(oldest_t).as_secs_f64();
        if dt >= 0.05 {
            (drained_total.saturating_sub(oldest_n)) as f64 / dt
        } else {
            // window too narrow to differentiate: lifetime average
            let uptime = now.duration_since(self.started).as_secs_f64().max(1e-9);
            drained_total as f64 / uptime
        }
    }
}

/// One-process-wide sequence of runtime instances: seeds each runtime's
/// [`RequestIdGen`] so two runtimes in one test process never mint the
/// same IDs, while staying fully deterministic run-to-run.
static RUNTIME_SEQ: AtomicU64 = AtomicU64::new(0);

/// The concurrent query-serving runtime.
pub struct Runtime {
    queue: Arc<BoundedQueue<Job>>,
    assets: Arc<AssetCache>,
    results: Arc<ResultCache>,
    metrics: Arc<MetricsRegistry>,
    traces: Arc<TraceCollector>,
    flight: Arc<FlightRecorder>,
    windowed: Arc<WindowedMetrics>,
    ids: RequestIdGen,
    workers: Vec<std::thread::JoinHandle<()>>,
    ticker: Option<std::thread::JoinHandle<()>>,
    ticker_stop: Arc<AtomicBool>,
    fingerprint: u64,
    drain: DrainWindow,
}

impl Runtime {
    /// Start the worker pool over an asset cache.
    pub fn start(assets: Arc<AssetCache>, config: RuntimeConfig) -> Runtime {
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let results = Arc::new(ResultCache::new(config.result_cache_capacity));
        let metrics = Arc::new(MetricsRegistry::new());
        let traces = Arc::new(TraceCollector::new(config.trace_capacity));
        let flight = Arc::new(FlightRecorder::new(config.flight.clone()));
        let clock = Arc::new(LogicalClock::new());
        let windowed = Arc::new(WindowedMetrics::new(
            clock.clone(),
            config.window_ticks.max(1),
            config.slo.clone(),
        ));
        let ids = RequestIdGen::new(RUNTIME_SEQ.fetch_add(1, Ordering::Relaxed));
        let fingerprint = config_fingerprint(assets.config());
        let worker_count = config.workers.max(1);
        let mut workers = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let queue = queue.clone();
            let assets = assets.clone();
            let results = results.clone();
            let metrics = metrics.clone();
            let traces = traces.clone();
            let flight = flight.clone();
            let windowed = windowed.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(
                    &queue, &assets, &results, &metrics, &traces, &flight, &windowed, fingerprint,
                );
            }));
        }
        let ticker_stop = Arc::new(AtomicBool::new(false));
        let ticker = (config.tick_interval_ms > 0).then(|| {
            let clock = clock.clone();
            let stop = ticker_stop.clone();
            let interval = std::time::Duration::from_millis(config.tick_interval_ms);
            std::thread::Builder::new()
                .name("osql-tick".into())
                .spawn(move || {
                    // sleep in short slices so shutdown never waits a
                    // whole tick interval for the ticker to notice
                    let slice = std::time::Duration::from_millis(25).min(interval);
                    let mut slept = std::time::Duration::ZERO;
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(slice);
                        slept += slice;
                        if slept >= interval {
                            slept = std::time::Duration::ZERO;
                            clock.advance();
                        }
                    }
                })
                .expect("spawn ticker thread")
        });
        Runtime {
            queue,
            assets,
            results,
            metrics,
            traces,
            flight,
            windowed,
            ids,
            workers,
            ticker,
            ticker_stop,
            fingerprint,
            drain: DrainWindow::new(),
        }
    }

    /// Ensure `req` carries a trace ID (minting one when empty) and
    /// register it with the flight recorder. Returns the ID.
    fn admit_trace_id(&self, req: &mut QueryRequest) -> String {
        if req.trace_id.is_empty() {
            req.trace_id = self.ids.next();
        }
        self.flight.begin(&req.trace_id);
        req.trace_id.clone()
    }

    /// Mint the next request ID without submitting anything — the server
    /// uses this so shed/quota-rejected requests still get an ID to
    /// return (and to record) even though they never enter the queue.
    pub fn next_trace_id(&self) -> String {
        self.ids.next()
    }

    /// Submit a request, blocking while the queue is full (backpressure).
    pub fn submit(&self, req: QueryRequest) -> Result<Ticket, SubmitError> {
        let mut req = req;
        let id = self.admit_trace_id(&mut req);
        let (tx, rx) = oneshot::channel();
        match self.queue.push(Job { req, enqueued: Instant::now(), reply: tx }) {
            Ok(()) => Ok(Ticket { rx, queue: self.queue.clone() }),
            Err(PushError::Closed(_)) | Err(PushError::Full(_)) => {
                self.flight.abandon(&id);
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Submit without blocking; [`SubmitError::QueueFull`] when at
    /// capacity. Every refusal for fullness is counted in the
    /// `queue_shed_total` metric, so the exposition and any admission
    /// controller report the same shed count.
    pub fn try_submit(&self, req: QueryRequest) -> Result<Ticket, SubmitError> {
        let mut req = req;
        let id = self.admit_trace_id(&mut req);
        let (tx, rx) = oneshot::channel();
        match self.queue.try_push(Job { req, enqueued: Instant::now(), reply: tx }) {
            Ok(()) => Ok(Ticket { rx, queue: self.queue.clone() }),
            Err(PushError::Full(_)) => {
                self.flight.abandon(&id);
                self.metrics.counter("queue_shed_total").inc();
                Err(SubmitError::QueueFull)
            }
            Err(PushError::Closed(_)) => {
                self.flight.abandon(&id);
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Serve a whole batch: submit everything (with backpressure) and
    /// collect the answers in request order.
    pub fn run_batch(&self, requests: Vec<QueryRequest>) -> Vec<Result<QueryResponse, ServeError>> {
        let tickets: Vec<Result<Ticket, SubmitError>> =
            requests.into_iter().map(|r| self.submit(r)).collect();
        tickets
            .into_iter()
            .map(|t| match t {
                Ok(ticket) => ticket.wait(),
                Err(_) => Err(ServeError::canceled_by_shutdown()),
            })
            .collect()
    }

    /// The metrics registry the workers record into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The ring of recently finished query traces.
    pub fn traces(&self) -> &Arc<TraceCollector> {
        &self.traces
    }

    /// The flight recorder of completed request records.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// The windowed instruments (and their SLO evaluator).
    pub fn windowed(&self) -> &Arc<WindowedMetrics> {
        &self.windowed
    }

    /// The logical clock windowed metrics are sliced by. Advance it
    /// manually in tests (`tick_interval_ms: 0`) for deterministic
    /// windows.
    pub fn clock(&self) -> &Arc<LogicalClock> {
        self.windowed.clock()
    }

    /// Evaluate the configured SLOs at the current tick.
    pub fn slo_report(&self) -> SloReport {
        self.windowed.slo.evaluate(self.clock().now())
    }

    /// The level-1 (per-database asset) cache.
    pub fn assets(&self) -> &Arc<AssetCache> {
        &self.assets
    }

    /// The level-2 (LRU result) cache.
    pub fn results(&self) -> &Arc<ResultCache> {
        &self.results
    }

    /// The configuration fingerprint results are cached under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Requests currently waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// A cheap point-in-time queue snapshot: depth, capacity, and the
    /// recent drain rate (requests/second over a sliding window sampled
    /// on each call). The depth is also mirrored into the `queue_depth`
    /// gauge, so the Prometheus exposition and an admission controller's
    /// `Retry-After` math read the same numbers.
    pub fn queue_stats(&self) -> QueueStats {
        let depth = self.queue.len();
        let drained_total = self.queue.popped_total();
        let drain_rate_per_sec = self.drain.observe(Instant::now(), drained_total);
        self.metrics.counter("queue_depth").set(depth as u64);
        QueueStats {
            depth,
            capacity: self.queue.capacity(),
            drained_total,
            drain_rate_per_sec,
        }
    }

    /// Stop accepting work, drain the queue, and join the workers. Safe
    /// to call more than once; `Drop` calls it too.
    pub fn shutdown(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.ticker_stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        // queued jobs that were dropped unanswered become Canceled records
        self.flight.cancel_inflight();
    }

    /// Evaluate examples by routing every question through this runtime's
    /// queue and workers, scoring with the same scorer as the sequential
    /// [`opensearch_sql::evaluate`]. `submitters` caller-side threads feed
    /// the queue. Non-ledger report fields match the sequential path
    /// exactly, at any worker count.
    pub fn evaluate(&self, examples: &[datagen::Example], submitters: usize) -> EvalReport {
        let benchmark = self
            .assets
            .benchmark()
            .expect(
                "evaluate needs the resident benchmark; a paged runtime is scored by passing \
                 the benchmark to opensearch_sql::evaluate_with directly",
            )
            .clone();
        opensearch_sql::evaluate_with(self, &benchmark, examples, submitters)
    }
}

impl opensearch_sql::Answerer for Runtime {
    fn answer(&self, db_id: &str, question: &str, evidence: &str) -> PipelineRun {
        match self.submit(QueryRequest::new(db_id, question, evidence)).map(Ticket::wait) {
            Ok(Ok(resp)) => resp.run.as_ref().clone(),
            // unknown db / shutdown: an empty run, which scores as wrong
            // (the sequential scorer skips unknown dbs before answering,
            // so this arm is unreachable from `Runtime::evaluate`)
            _ => PipelineRun {
                question: question.to_owned(),
                db_id: db_id.to_owned(),
                sql_g: String::new(),
                sql_r: String::new(),
                final_sql: String::new(),
                candidates: Vec::new(),
                winner: 0,
                ledger: Default::default(),
                trace: Arc::new(QueryTrace::empty()),
            },
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Stage modules paired with their metric/flight-record labels.
static STAGES: [(Module, &str); 4] = [
    (Module::Extraction, "extraction"),
    (Module::Generation, "generation"),
    (Module::Refinement, "refinement"),
    (Module::Alignments, "alignments"),
];

/// Rows the SQL executor scanned while serving this trace: the sum over
/// the volatile `exec` events sqlkit emits (one per executed statement).
fn rows_scanned_in(trace: &QueryTrace) -> u64 {
    trace
        .events_named("exec")
        .flat_map(|e| e.timings.iter())
        .filter(|(name, _)| *name == "rows_scanned")
        .map(|(_, v)| v.max(0.0) as u64)
        .sum()
}

/// LLM-call modules whose ledger time is the *simulated* model latency
/// (`resp.latency_ms`, a pure function of token counts) — never the wall
/// clock. These are the only deterministic time charges in the ledger;
/// the stage totals (Extraction, Refinement, …) are wall-clock and vary
/// run to run.
static MODELLED_MODULES: [Module; 4] =
    [Module::EntityColumn, Module::SelectAlign, Module::Generation, Module::Correction];

/// The pipeline's modelled (deterministic) cost in milliseconds: the sum
/// of the ledger's LLM-call charges, each of which is the simulated
/// model latency derived from token counts. This — not the wall clock,
/// and not the wall-clock stage totals — feeds the windowed instruments
/// and the SLO evaluator, so their renderings are byte-identical across
/// runs, worker counts, and refine-thread counts.
fn modelled_ms(run: &PipelineRun) -> f64 {
    MODELLED_MODULES.iter().map(|module| run.ledger.get(*module).time_ms).sum()
}

/// Cumulative store-path microseconds (WAL appends/syncs/commits plus
/// checkpoints) across the process. Workers take a before/after delta of
/// this around each pipeline run to surface per-request store time;
/// under concurrent writers the delta can absorb a neighbour's I/O, so
/// it is exact when serving serially and an upper bound otherwise.
fn store_us_total() -> u64 {
    let stats = osql_store::store_stats();
    stats.wal_append.total_us()
        + stats.wal_sync.total_us()
        + stats.wal_commit.total_us()
        + stats.checkpoint.total_us()
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    queue: &BoundedQueue<Job>,
    assets: &AssetCache,
    results: &ResultCache,
    metrics: &MetricsRegistry,
    traces: &TraceCollector,
    flight: &FlightRecorder,
    windowed: &WindowedMetrics,
    fingerprint: u64,
) {
    while let Some(job) = queue.pop() {
        let queue_wait_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
        metrics.counter("requests_total").inc();
        metrics.latency("queue_wait_ms").record(queue_wait_ms);
        let trace_id = job.req.trace_id.clone();
        let mut record = RequestRecord::new(&trace_id, &job.req.db_id);
        record.question_hash = fnv1a(crate::cache::normalize_question(&job.req.question).as_bytes());
        record.queue_wait_ms = queue_wait_ms;
        let key =
            ResultKey::new(&job.req.db_id, &job.req.question, &job.req.evidence, fingerprint);
        if let Some(run) = results.get(&key) {
            metrics.counter("result_cache_hits").inc();
            record.from_cache = true;
            record.total_ms = queue_wait_ms;
            flight.finish(record);
            windowed.observe(0.0, true, true);
            job.reply.send(Ok(QueryResponse {
                run,
                from_cache: true,
                queue_wait_ms,
                trace_id,
            }));
            continue;
        }
        metrics.counter("result_cache_misses").inc();
        // The worker owns this request's trace: installed before asset
        // lookup so the queue-wait event (volatile: it depends on load,
        // not on the query), any demand-paging events (`db_load`,
        // `db_evict`, `wal_replay` — also volatile), and every pipeline
        // span land in one trace, popped and attached to the run after.
        // The trace ID deliberately never becomes a span label — logical
        // traces stay byte-identical across runs; the flight record is
        // the ID ⇒ trace link.
        active::push();
        active::event_volatile("queue_wait", &[], &[("ms", queue_wait_ms)]);
        let store_us_before = store_us_total();
        let pipeline = match assets.pipeline(&job.req.db_id) {
            Ok(p) => p,
            Err(miss) => {
                let _ = active::pop();
                let err = match miss {
                    AssetMiss::UnknownDb => {
                        metrics.counter("unknown_db").inc();
                        ServeError::UnknownDb(job.req.db_id)
                    }
                    AssetMiss::LoadFailed(reason) => {
                        // storage trouble, not a bad request: its own
                        // counter so corruption never hides in unknown_db
                        metrics.counter("db_load_errors_total").inc();
                        ServeError::DbLoadFailed { db_id: job.req.db_id, reason }
                    }
                };
                record.outcome = RequestOutcome::Error;
                record.error = Some(err.to_string());
                record.total_ms = queue_wait_ms;
                flight.finish(record);
                windowed.observe(0.0, false, false);
                job.reply.send(Err(err));
                continue;
            }
        };
        sync_store_metrics(metrics, assets);
        let started = Instant::now();
        let mut run = pipeline.answer(&job.req.db_id, &job.req.question, &job.req.evidence);
        let trace = Arc::new(active::pop().unwrap_or_else(QueryTrace::empty));
        run.trace = trace.clone();
        let run = Arc::new(run);
        traces.publish(trace.clone());
        let pipeline_ms = started.elapsed().as_secs_f64() * 1e3;
        metrics.latency("pipeline_ms").record(pipeline_ms);
        for (module, stage) in &STAGES {
            let cost = run.ledger.get(*module);
            if cost.calls > 0 {
                metrics.latency_with("stage_latency_ms", &[("stage", stage)]).record(cost.time_ms);
                record.stage_ms.push((*stage, cost.time_ms));
            }
        }
        if run.candidates.len() > 1 {
            metrics
                .histogram("vote_margin", &FRACTION_BOUNDS)
                .record(opensearch_sql::vote_margin(&run.candidates, run.winner));
        }
        record_analysis_metrics(metrics, &pipeline, &run);
        results.insert(key, run.clone());
        metrics.counter("result_cache_evictions_total").raise_to(results.evictions());
        sync_plan_cache_metrics(metrics);
        // Flight record + slow-query capture. The tail-sampling decision
        // itself belongs to the recorder; the worker attaches the heavy
        // payloads (span tree, EXPLAIN) whenever the record *could* be
        // sampled, and the recorder strips them for fast, healthy runs.
        record.total_ms = queue_wait_ms + pipeline_ms;
        record.rows_scanned = rows_scanned_in(&trace);
        let store_us = store_us_total().saturating_sub(store_us_before);
        if store_us > 0 {
            record.stage_ms.push(("store", store_us as f64 / 1e3));
        }
        let (slow_ms, slow_rows) = flight.thresholds();
        if flight.enabled()
            && (record.total_ms >= slow_ms || record.rows_scanned >= slow_rows)
        {
            record.trace = Some(trace);
            if let Some(db) = pipeline.preprocessed().db(&run.db_id) {
                record.explain = Some(
                    sqlkit::explain(&db.database, &run.final_sql)
                        .unwrap_or_else(|e| format!("explain failed: {e}")),
                );
            }
            metrics.counter("slow_queries_total").inc();
        }
        flight.finish(record);
        windowed.observe(modelled_ms(&run), true, false);
        job.reply.send(Ok(QueryResponse { run, from_cache: false, queue_wait_ms, trace_id }));
    }
}

/// Analyzer activity for one run: executions the pre-execution gate
/// skipped (`analyze_rejects_total`, which counts unparseable candidates:
/// the parse error is the only one the gate treats as certain), plus the
/// static-analysis findings on the chosen SQL — one
/// `analyze_diags_total{code="E…"}` series per diagnostic code.
fn record_analysis_metrics(
    metrics: &MetricsRegistry,
    pipeline: &opensearch_sql::Pipeline,
    run: &opensearch_sql::PipelineRun,
) {
    let skips: u64 = run.candidates.iter().map(|c| c.analyze_skips as u64).sum();
    if skips > 0 {
        metrics.counter("analyze_rejects_total").add(skips);
    }
    if let Some(db) = pipeline.preprocessed().db(&run.db_id) {
        let analysis = sqlkit::analyze_sql(&db.database.schema, &run.final_sql);
        for d in &analysis.diagnostics {
            metrics.counter_with("analyze_diags_total", &[("code", &d.code)]).inc();
        }
    }
}

/// Mirror the demand-paging catalog's counters into the registry (paged
/// mode only): cumulative loads and evictions via `raise_to` (shared
/// across workers, like the plan-cache mirrors) and the current resident
/// byte level via `set` (it falls on eviction, so it is a gauge). The
/// process-global WAL/checkpoint latency cells mirror the same way, as
/// Prometheus-style cumulative `_bucket` counters labeled by operation.
fn sync_store_metrics(metrics: &MetricsRegistry, assets: &AssetCache) {
    if let Some(cat) = assets.catalog() {
        metrics.counter("db_load_total").raise_to(cat.loads());
        metrics.counter("db_evict_total").raise_to(cat.evictions());
        metrics.counter("store_bytes_resident").set(cat.resident_bytes());
    }
    let stats = osql_store::store_stats();
    for (op, cell) in [
        ("wal_append", &stats.wal_append),
        ("wal_sync", &stats.wal_sync),
        ("wal_commit", &stats.wal_commit),
        ("checkpoint", &stats.checkpoint),
    ] {
        if cell.count() == 0 {
            continue; // keep read-only snapshots free of zero series
        }
        let snap = cell.snapshot();
        metrics.counter_with("store_op_total", &[("op", op)]).raise_to(snap.count);
        metrics.counter_with("store_op_us_total", &[("op", op)]).raise_to(snap.total_us);
        for (bound, count) in &snap.buckets {
            metrics
                .counter_with("store_op_us_bucket", &[("le", &bound.to_string()), ("op", op)])
                .raise_to(*count);
        }
    }
    metrics.counter("store_checkpoints_active").set(stats.checkpoints_active());
    metrics.counter("store_checkpoint_last_bytes").set(stats.checkpoint_last_bytes());
}

/// Mirror the process-wide sqlkit plan-cache counters into the registry so
/// the metrics snapshot shows prepare/execute split timings and hit rates.
/// The source counters are cumulative and shared across workers, so
/// `raise_to` keeps the mirrors exact without double counting.
fn sync_plan_cache_metrics(metrics: &MetricsRegistry) {
    let stats = sqlkit::plan_cache().stats();
    metrics.counter("plan_cache_hits").raise_to(stats.hits);
    metrics.counter("plan_cache_misses").raise_to(stats.misses);
    metrics.counter("plan_prepare_us").raise_to(stats.prepare_us);
    metrics.counter("plan_execute_us").raise_to(stats.execute_us);
    metrics.counter("plan_ix_scan_total").raise_to(stats.ix_scans);
    metrics.counter("plan_fallback_scan_total").raise_to(stats.fallback_scans);
    metrics.counter("plan_rows_scanned_total").raise_to(stats.rows_scanned);
}

/// Cheap helper: track throughput over a batch.
#[derive(Debug)]
pub struct Throughput {
    started: Instant,
    served: AtomicU64,
}

impl Throughput {
    /// Start the clock.
    pub fn start() -> Self {
        Throughput { started: Instant::now(), served: AtomicU64::new(0) }
    }

    /// Count one served request.
    pub fn served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    /// (requests, elapsed seconds, requests/second).
    pub fn snapshot(&self) -> (u64, f64, f64) {
        let n = self.served.load(Ordering::Relaxed);
        let secs = self.started.elapsed().as_secs_f64().max(1e-9);
        (n, secs, n as f64 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Profile};
    use llmsim::{ChatRequest, ChatResponse, LanguageModel, ModelProfile, Oracle, SimLlm};
    use opensearch_sql::PipelineConfig;
    use osql_chk::Condvar;

    /// Wraps a model behind a gate: while closed, `complete` blocks.
    /// Lets a test park every worker deterministically.
    struct GateLlm {
        inner: Arc<dyn LanguageModel>,
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl GateLlm {
        fn new(inner: Arc<dyn LanguageModel>) -> Self {
            GateLlm { inner, open: Mutex::new(true), cv: Condvar::new() }
        }

        fn set_open(&self, open: bool) {
            *self.open.lock() = open;
            self.cv.notify_all();
        }
    }

    impl LanguageModel for GateLlm {
        fn complete(&self, req: &ChatRequest) -> ChatResponse {
            let mut open = self.open.lock();
            while !*open {
                open = self.cv.wait(open);
            }
            drop(open);
            self.inner.complete(req)
        }

        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    fn world() -> (Arc<datagen::Benchmark>, Arc<AssetCache>) {
        let bench = Arc::new(generate(&Profile::tiny()));
        let llm = Arc::new(SimLlm::new(
            Arc::new(Oracle::new(bench.clone())),
            ModelProfile::gpt_4o(),
            5,
        ));
        let assets = Arc::new(AssetCache::new(bench.clone(), llm, PipelineConfig::fast()));
        (bench, assets)
    }

    #[test]
    fn serves_requests_and_records_metrics() {
        let (bench, assets) = world();
        let rt = Runtime::start(assets, RuntimeConfig::with_workers(2));
        let ex = &bench.dev[0];
        let resp = rt
            .submit(QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
            .unwrap()
            .wait()
            .unwrap();
        assert!(!resp.from_cache);
        assert!(resp.run.final_sql.to_uppercase().starts_with("SELECT"));
        assert_eq!(rt.metrics().counter("requests_total").get(), 1);
        assert_eq!(rt.metrics().counter("result_cache_misses").get(), 1);
        let snapshot = rt.metrics().render();
        assert!(snapshot.contains("pipeline_ms"), "{snapshot}");
        // The plan-cache mirror is synced after every served request. The
        // source counters are process-global (shared with parallel tests),
        // so assert presence rather than exact values.
        for name in [
            "plan_cache_hits",
            "plan_cache_misses",
            "plan_prepare_us",
            "plan_execute_us",
            "plan_ix_scan_total",
            "plan_fallback_scan_total",
            "plan_rows_scanned_total",
        ] {
            assert!(snapshot.contains(name), "missing {name}:\n{snapshot}");
        }
        let hits = rt.metrics().counter("plan_cache_hits").get();
        let misses = rt.metrics().counter("plan_cache_misses").get();
        assert!(hits + misses > 0, "serving a request touches the plan cache");
    }

    #[test]
    fn result_cache_serves_repeats_identically() {
        let (bench, assets) = world();
        let rt = Runtime::start(assets, RuntimeConfig::with_workers(2));
        let ex = &bench.dev[0];
        let req = QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence);
        let cold = rt.submit(req.clone()).unwrap().wait().unwrap();
        let warm = rt.submit(req).unwrap().wait().unwrap();
        assert!(!cold.from_cache);
        assert!(warm.from_cache);
        assert_eq!(cold.run.final_sql, warm.run.final_sql);
        assert!(Arc::ptr_eq(&cold.run, &warm.run), "cached run is shared, not recomputed");
        assert_eq!(rt.metrics().counter("result_cache_hits").get(), 1);
        // whitespace/case variants of the question hit the same entry
        let variant =
            QueryRequest::new(&ex.db_id, format!("  {}  ", ex.question.to_uppercase()), &ex.evidence);
        assert!(rt.submit(variant).unwrap().wait().unwrap().from_cache);
    }

    #[test]
    fn unknown_db_is_a_typed_error() {
        let (_bench, assets) = world();
        let rt = Runtime::start(assets, RuntimeConfig::with_workers(1));
        let err = rt.submit(QueryRequest::new("ghost", "q", "")).unwrap().wait().unwrap_err();
        assert_eq!(err, ServeError::UnknownDb("ghost".into()));
        assert_eq!(rt.metrics().counter("unknown_db").get(), 1);
    }

    #[test]
    fn batch_preserves_request_order() {
        let (bench, assets) = world();
        let rt = Runtime::start(assets, RuntimeConfig::with_workers(4));
        let reqs: Vec<QueryRequest> = bench
            .dev
            .iter()
            .take(6)
            .map(|ex| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
            .collect();
        let out = rt.run_batch(reqs);
        assert_eq!(out.len(), 6);
        for (ex, resp) in bench.dev.iter().take(6).zip(&out) {
            let resp = resp.as_ref().unwrap();
            assert_eq!(resp.run.question, ex.question, "answers line up with requests");
        }
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let (bench, assets) = world();
        let mut rt = Runtime::start(assets, RuntimeConfig::with_workers(1));
        rt.shutdown();
        let ex = &bench.dev[0];
        let err = rt.submit(QueryRequest::new(&ex.db_id, &ex.question, "")).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
        let err = rt.try_submit(QueryRequest::new(&ex.db_id, &ex.question, "")).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
    }

    #[test]
    fn queue_full_is_shed_and_counted() {
        let bench = Arc::new(generate(&Profile::tiny()));
        let inner = Arc::new(SimLlm::new(Arc::new(Oracle::new(bench.clone())), ModelProfile::gpt_4o(), 5));
        let gate = Arc::new(GateLlm::new(inner));
        // gate open during construction (the few-shot build calls the LLM)
        let assets = Arc::new(AssetCache::new(bench.clone(), gate.clone(), PipelineConfig::fast()));
        gate.set_open(false);
        let rt = Runtime::start(
            assets,
            RuntimeConfig { workers: 1, queue_capacity: 1, ..RuntimeConfig::default() },
        );
        let ex = &bench.dev[0];
        let req = QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence);
        // park the only worker on the gate ...
        let in_flight = rt.submit(req.clone()).unwrap();
        while rt.queued() > 0 {
            std::thread::yield_now();
        }
        // ... fill the queue (use a distinct question so nothing coalesces
        // in the result cache), then overflow it
        let ex2 = &bench.dev[1];
        let queued = rt.submit(QueryRequest::new(&ex2.db_id, &ex2.question, &ex2.evidence)).unwrap();
        assert_eq!(rt.try_submit(req.clone()).unwrap_err(), SubmitError::QueueFull);
        assert_eq!(rt.metrics().counter("queue_shed_total").get(), 1);
        let stats = rt.queue_stats();
        assert_eq!((stats.depth, stats.capacity), (1, 1));
        assert_eq!(rt.metrics().counter("queue_depth").get(), 1, "gauge mirrors depth");
        assert!(stats.estimated_drain_secs() >= 1);
        gate.set_open(true);
        in_flight.wait().unwrap();
        queued.wait().unwrap();
        let stats = rt.queue_stats();
        assert!(stats.drained_total >= 2, "{stats:?}");
        assert_eq!(stats.depth, 0);
    }

    #[test]
    fn cancel_reason_distinguishes_shutdown_from_worker_loss() {
        // Construct the two reply-channel deaths directly: the sender
        // drops while the queue is open (worker panic ⇒ WorkerLost) vs
        // after close (orderly drain ⇒ Shutdown).
        let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(1));
        let (tx, rx) = oneshot::channel();
        drop(tx);
        let t = Ticket { rx, queue: queue.clone() };
        assert_eq!(
            t.wait().unwrap_err(),
            ServeError::Canceled { reason: CancelReason::WorkerLost }
        );
        let (tx, rx) = oneshot::channel();
        drop(tx);
        queue.close();
        let t = Ticket { rx, queue };
        assert_eq!(
            t.wait().unwrap_err(),
            ServeError::Canceled { reason: CancelReason::Shutdown }
        );
        assert_eq!(ServeError::canceled_by_shutdown().to_string(), "request canceled by shutdown");
    }

    #[test]
    fn drain_rate_estimates_from_window() {
        let w = DrainWindow::new();
        let t0 = Instant::now();
        let _ = w.observe(t0, 0);
        let rate = w.observe(t0 + std::time::Duration::from_secs(2), 20);
        assert!((rate - 10.0).abs() < 1.0, "≈10/s, got {rate}");
        let stats = QueueStats {
            depth: 30,
            capacity: 64,
            drained_total: 20,
            drain_rate_per_sec: 10.0,
        };
        assert_eq!(stats.estimated_drain_secs(), 3);
        let stalled = QueueStats { drain_rate_per_sec: 0.0, ..stats };
        assert_eq!(stalled.estimated_drain_secs(), 60, "stalled drain caps the hint");
        let idle = QueueStats { depth: 0, ..stats };
        assert_eq!(idle.estimated_drain_secs(), 1);
    }

    #[test]
    fn worker_count_does_not_change_answers() {
        let (bench, _) = world();
        let reqs: Vec<QueryRequest> = bench
            .dev
            .iter()
            .take(8)
            .map(|ex| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
            .collect();
        let mut baseline: Option<Vec<String>> = None;
        for workers in [1usize, 4] {
            let (_, assets) = world();
            let rt = Runtime::start(assets, RuntimeConfig::with_workers(workers));
            let answers: Vec<String> = rt
                .run_batch(reqs.clone())
                .into_iter()
                .map(|r| r.unwrap().run.final_sql.clone())
                .collect();
            match &baseline {
                None => baseline = Some(answers),
                Some(b) => assert_eq!(b, &answers, "{workers} workers changed answers"),
            }
        }
    }
}
