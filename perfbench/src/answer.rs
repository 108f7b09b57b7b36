//! `answer_cold` and `answer_serving`: one thread calls `Pipeline::answer`
//! once per distinct dev question, with the paper's configuration (21
//! candidates) or the serving one (3 candidates). No HTTP, no queue, no
//! result cache.
//!
//! The traced run replays the stages of `Pipeline::answer` itself, in its
//! order, through the stages' public functions, and times each stage and
//! the `llmsim` and `sqlkit` work inside it. Its final SQL must equal
//! `Pipeline::answer`'s byte for byte.

use crate::check;
use crate::llm::{LlmTotals, TimedLlm};
use crate::report::{Check, Outcome};
use crate::stats;
use crate::world::{self, Opts, Rng, SetupTimes};
use llmsim::LanguageModel;
use opensearch_sql::extraction::run_extraction;
use opensearch_sql::generation::run_generation;
use opensearch_sql::refinement::{execute, refine_candidate, vote};
use opensearch_sql::{CostLedger, Pipeline, PipelineConfig, Preprocessed};
use sqlkit::PlanCacheStats;
use std::sync::Arc;
use std::time::Instant;

/// One of the two in-process answer workloads.
pub struct AnswerWorkload {
    /// The pipeline configuration.
    pub config: fn() -> PipelineConfig,
    /// Dev questions generated, the pool a run draws from in seeded order
    /// (about 96% of them distinct).
    pub dev: usize,
    /// Answers per second of `--seconds`.
    pub per_second: f64,
    /// Latency limit behind `slo_pct`.
    pub slo_ms: f64,
}

/// `answer_cold`: the paper's configuration; twice the parent commit's
/// rate, so a run of the parent lasts about `2 × --seconds`.
pub const COLD: AnswerWorkload = AnswerWorkload {
    config: PipelineConfig::full,
    dev: 2600,
    per_second: 230.0,
    slo_ms: 250.0,
};

/// `answer_serving`: the configuration the HTTP layer serves; a run of the
/// parent commit lasts about `1.3 × --seconds`.
pub const SERVING: AnswerWorkload = AnswerWorkload {
    config: PipelineConfig::fast,
    dev: 4800,
    per_second: 450.0,
    slo_ms: 50.0,
};
/// Answers re-derived stage by stage after an untraced window.
pub const REPRO_SAMPLE: usize = 16;

/// Per-stage measurements of one staged answer.
#[derive(Debug, Clone, Default)]
pub struct StagedAnswer {
    /// The vote winner's SQL (what `Pipeline::answer` returns as `final_sql`).
    pub final_sql: String,
    /// Wall time of the whole answer.
    pub total_ms: f64,
    /// Wall time of extraction, generation, refinement, vote.
    pub stage_ms: [f64; 4],
    /// `llmsim` work inside each stage.
    pub llm: [LlmTotals; 4],
    /// `sqlkit` plan-cache work inside each stage.
    pub sql: [PlanCacheStats; 4],
    /// Correction rounds across the beam.
    pub correction_rounds: usize,
    /// Executions the analyzer gate skipped across the beam.
    pub analyze_skips: usize,
    /// Candidates that executed to a non-empty answer.
    pub valid: usize,
    /// Candidates refined.
    pub candidates: usize,
}

impl StagedAnswer {
    /// A stage's time minus the `llmsim` and `sqlkit` time measured inside it.
    pub fn self_ms(&self, stage: usize) -> f64 {
        let sql = &self.sql[stage];
        self.stage_ms[stage]
            - self.llm[stage].cpu_ms
            - (sql.prepare_us + sql.execute_us) as f64 / 1e3
    }
}

fn plan_delta(after: &PlanCacheStats, before: &PlanCacheStats) -> PlanCacheStats {
    PlanCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        prepare_us: after.prepare_us - before.prepare_us,
        execute_us: after.execute_us - before.execute_us,
        ix_scans: after.ix_scans - before.ix_scans,
        fallback_scans: after.fallback_scans - before.fallback_scans,
        rows_scanned: after.rows_scanned - before.rows_scanned,
    }
}

/// Answer one question by calling the stages of `Pipeline::answer` in its
/// order. `timer` is the wrapper `llm` reports into, when it is one.
pub fn answer_staged(
    pre: &Preprocessed,
    llm: &dyn LanguageModel,
    timer: Option<&TimedLlm>,
    config: &PipelineConfig,
    ex: &datagen::Example,
) -> StagedAnswer {
    let (db, q, ev) = (
        ex.db_id.as_str(),
        ex.question.as_str(),
        ex.evidence.as_str(),
    );
    let mut out = StagedAnswer::default();
    let mut ledger = CostLedger::new();
    let probe = || {
        (
            Instant::now(),
            timer.map(TimedLlm::totals).unwrap_or_default(),
            sqlkit::plan_cache().stats(),
        )
    };
    let start = probe();
    let mut mark = start;
    let mut close = |stage: usize, out: &mut StagedAnswer| {
        let now = probe();
        out.stage_ms[stage] = (now.0 - mark.0).as_secs_f64() * 1e3;
        out.llm[stage] = now.1.since(&mark.1);
        out.sql[stage] = plan_delta(&now.2, &mark.2);
        mark = now;
    };

    let extraction = run_extraction(pre, llm, config, db, q, ev, &mut ledger);
    close(0, &mut out);
    let generation = run_generation(pre, llm, config, db, q, ev, &extraction, &mut ledger);
    close(1, &mut out);
    let candidates: Vec<_> = generation
        .candidates
        .iter()
        .enumerate()
        .map(|(i, raw)| {
            let mut local = CostLedger::new();
            let raw_text = generation.raw_texts.get(i).map(String::as_str);
            refine_candidate(
                pre,
                llm,
                config,
                db,
                q,
                ev,
                &extraction,
                raw,
                raw_text,
                i,
                &mut local,
            )
        })
        .collect();
    close(2, &mut out);
    let winner = if config.self_consistency && candidates.len() > 1 {
        vote(&candidates, &mut ledger)
    } else {
        0
    };
    close(3, &mut out);

    let sql_r = candidates
        .first()
        .map(|c| c.sql.clone())
        .unwrap_or_default();
    out.final_sql = candidates
        .get(winner)
        .map(|c| c.sql.clone())
        .unwrap_or(sql_r);
    out.total_ms = start.0.elapsed().as_secs_f64() * 1e3;
    out.correction_rounds = candidates.iter().map(|c| c.correction_rounds).sum();
    out.analyze_skips = candidates.iter().map(|c| c.analyze_skips).sum();
    out.valid = candidates.iter().filter(|c| c.is_valid()).count();
    out.candidates = candidates.len();
    out
}

/// Execution accuracy of `sql` against the example's gold SQL.
pub fn ex_match(bench: &datagen::Benchmark, ex: &datagen::Example, sql: &str) -> bool {
    let Some(db) = bench.db(&ex.db_id) else {
        return false;
    };
    match (
        execute(&db.database, &ex.gold_sql).0,
        execute(&db.database, sql).0,
    ) {
        (Ok(gold), Ok(pred)) => pred.same_answer(&gold),
        _ => false,
    }
}

struct World {
    bench: Arc<datagen::Benchmark>,
    pre: Arc<Preprocessed>,
    llm: Arc<dyn LanguageModel>,
    timer: Option<Arc<TimedLlm>>,
}

fn setup(opts: &Opts, dev: usize) -> (World, SetupTimes) {
    let mut t = SetupTimes::default();
    let (bench, s) =
        world::timed(|| Arc::new(datagen::generate(&world::profile(opts, opts.size(dev, 24)))));
    t.generate_s = s;
    let sim = world::sim_llm(&bench);
    let (llm, timer): (Arc<dyn LanguageModel>, _) = if opts.traced {
        let timer = Arc::new(TimedLlm::new(sim));
        (timer.clone(), Some(timer))
    } else {
        (sim, None)
    };
    let (pre, s) = world::timed(|| Arc::new(Preprocessed::run(bench.clone(), llm.as_ref())));
    t.preprocess_s = s;
    (
        World {
            bench,
            pre,
            llm,
            timer,
        },
        t,
    )
}

/// Run the workload.
pub fn run(opts: &Opts, wl: &AnswerWorkload) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (w, times) = world::repeated_setup(opts, |_| Ok(setup(opts, wl.dev)))?;
    world::report_setup(&mut out, &times);
    let config = (wl.config)();
    let pipeline = Pipeline::new(w.pre.clone(), w.llm.clone(), config.clone());

    let mut order = world::distinct_dev(&w.bench);
    Rng::new(opts.seed, 3).shuffle(&mut order);
    order.truncate(opts.ops(wl.per_second));
    let mut repro = Check::new("staged answer reproduces Pipeline::answer byte for byte");
    let started = Instant::now();

    if !opts.traced {
        let mut answered: Vec<(usize, String, f64)> = Vec::with_capacity(order.len());
        let mut ends = Vec::with_capacity(order.len());
        for &i in &order {
            let ex = &w.bench.dev[i];
            let t0 = Instant::now();
            let run = pipeline.answer(&ex.db_id, &ex.question, &ex.evidence);
            answered.push((i, run.final_sql, t0.elapsed().as_secs_f64() * 1e3));
            ends.push(started.elapsed().as_secs_f64());
        }
        let elapsed = started.elapsed().as_secs_f64();

        // after the timed run: re-derive a seeded sample stage by stage
        let mut pick = Rng::new(opts.seed, 4);
        let mut failed_idx = std::collections::HashSet::new();
        for _ in 0..REPRO_SAMPLE.min(answered.len()) {
            let k = pick.below(answered.len());
            let (i, ref sql, _) = answered[k];
            let staged = answer_staged(&w.pre, w.llm.as_ref(), None, &config, &w.bench.dev[i]);
            let verdict = check::same_sql(&w.bench.dev[i].question, &staged.final_sql, sql);
            if verdict.is_err() {
                failed_idx.insert(k);
            }
            repro.record(verdict);
        }
        let empty = answered.iter().filter(|a| a.1.trim().is_empty()).count();
        let mut nonempty = Check::new("every answer is a non-empty SQL string");
        if empty > 0 {
            nonempty
                .failures
                .push(format!("{empty} empty final SQL strings"));
        }
        out.failed = (failed_idx.len() + empty) as u64;
        out.attempted = answered.len() as u64;
        // a failed answer counts as missing every limit
        let ordered_ms: Vec<f64> = answered
            .iter()
            .enumerate()
            .map(|(k, a)| {
                if failed_idx.contains(&k) || a.1.trim().is_empty() {
                    elapsed * 1e3
                } else {
                    a.2
                }
            })
            .collect();
        let (p50, p99) = stats::robust_latency(&ordered_ms);
        out.set("latency_p50_ms", p50);
        out.set("latency_p99_ms", p99);
        let ok = answered.len() as f64 - out.failed as f64;
        out.set(
            "throughput_ops_s",
            stats::robust_rate(&ends) * ok / answered.len().max(1) as f64,
        );
        let within = ordered_ms.iter().filter(|&&ms| ms <= wl.slo_ms).count();
        out.set(
            "slo_pct",
            100.0 * within as f64 / answered.len().max(1) as f64,
        );
        let correct = answered
            .iter()
            .filter(|(i, sql, _)| ex_match(&w.bench, &w.bench.dev[*i], sql))
            .count();
        out.set(
            "ex_pct",
            100.0 * correct as f64 / answered.len().max(1) as f64,
        );
        out.notes.push(format!(
            "{} answers in {elapsed:.2} s, {} samples per p99, {} reproduced stage by stage",
            answered.len(),
            stats::p99_samples(ordered_ms.len()),
            REPRO_SAMPLE.min(answered.len())
        ));
        out.checks.push(nonempty);
    } else {
        let timer = w.timer.as_deref().expect("traced runs wrap the model");
        let mut plain_ms = Vec::new();
        let mut staged = Vec::new();
        for (k, &i) in order.iter().enumerate() {
            let ex = &w.bench.dev[i];
            if k % 2 == 0 {
                let t0 = Instant::now();
                let run = pipeline.answer(&ex.db_id, &ex.question, &ex.evidence);
                plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(run);
            } else {
                let s = answer_staged(&w.pre, w.llm.as_ref(), Some(timer), &config, ex);
                let reference = pipeline.answer(&ex.db_id, &ex.question, &ex.evidence);
                let verdict = check::same_sql(&ex.question, &s.final_sql, &reference.final_sql);
                if verdict.is_err() {
                    out.failed += 1;
                }
                repro.record(verdict);
                staged.push(s);
            }
        }
        out.attempted = (plain_ms.len() + staged.len()) as u64;
        report_layers(&mut out, &staged, &plain_ms);
    }
    out.checks.push(repro);
    out.set("peak_rss_mb", world::peak_rss_mb());
    Ok(out)
}

/// Per-layer metrics over the staged answers of a traced run.
fn report_layers(out: &mut Outcome, staged: &[StagedAnswer], plain_ms: &[f64]) {
    let n = staged.len().max(1) as f64;
    let sum = |f: &dyn Fn(&StagedAnswer) -> f64| staged.iter().map(f).sum::<f64>();
    let total = sum(&|s| s.total_ms);
    let staged_ms = sum(&|s| s.stage_ms.iter().sum::<f64>());
    let llm = |f: fn(&LlmTotals) -> f64| sum(&|s| s.llm.iter().map(f).sum::<f64>());
    let sql = |f: fn(&PlanCacheStats) -> u64| sum(&|s| s.sql.iter().map(f).sum::<u64>() as f64);

    out.set("answer.traced_ops", staged.len() as f64);
    out.set("answer.unattributed_ms", (total - staged_ms) / n);
    out.set(
        "answer.attributed_pct",
        100.0 * stats::ratio(staged_ms, total),
    );
    for (stage, name) in [
        (0, "extraction.self_ms"),
        (1, "generation.self_ms"),
        (2, "refinement.self_ms"),
        (3, "vote.self_ms"),
    ] {
        out.set(name, sum(&|s| s.self_ms(stage)) / n);
    }
    let refine: Vec<f64> = staged.iter().map(|s| s.self_ms(2)).collect();
    out.set(
        "refinement.self_ms_p99",
        stats::quantile(&stats::sorted(&refine), 0.99),
    );
    out.set(
        "refinement.correction_rounds",
        sum(&|s| s.correction_rounds as f64) / n,
    );
    out.set(
        "refinement.analyze_skips",
        sum(&|s| s.analyze_skips as f64) / n,
    );
    out.set(
        "refinement.valid_ratio",
        stats::ratio(sum(&|s| s.valid as f64), sum(&|s| s.candidates as f64)),
    );
    out.set("llmsim.calls", llm(|t| t.calls as f64) / n);
    out.set("llmsim.cpu_ms", llm(|t| t.cpu_ms) / n);
    out.set("llm_tokens_per_op", llm(|t| t.tokens as f64) / n);
    let modelled: Vec<f64> = staged
        .iter()
        .map(|s| s.llm.iter().map(|t| t.modelled_ms).sum())
        .collect();
    out.set("llm_modelled_ms_p50", stats::median(&modelled));
    report_sqlkit(out, &|f| sql(f), n);
    let traced = stats::median(&staged.iter().map(|s| s.total_ms).collect::<Vec<_>>());
    out.set(
        "trace_overhead_pct",
        100.0 * (stats::ratio(traced, stats::median(plain_ms)) - 1.0),
    );
    if staged.is_empty() || 100.0 * stats::ratio(staged_ms, total) < 90.0 {
        let mut c = Check::new("named layers cover at least 90% of the traced answer time");
        c.failures.push(format!(
            "{:.2}% attributed over {} answers",
            100.0 * stats::ratio(staged_ms, total),
            staged.len()
        ));
        out.checks.push(c);
    }
}

/// The `sqlkit` metrics from summed plan-cache deltas over `ops` operations.
pub fn report_sqlkit(out: &mut Outcome, sql: &dyn Fn(fn(&PlanCacheStats) -> u64) -> f64, ops: f64) {
    let execs = sql(|p| p.ix_scans) + sql(|p| p.fallback_scans);
    out.set("sqlkit.prepare_ms", sql(|p| p.prepare_us) / 1e3 / ops);
    out.set("sqlkit.execute_ms", sql(|p| p.execute_us) / 1e3 / ops);
    out.set(
        "sqlkit.plan_cache_hit_ratio",
        stats::ratio(sql(|p| p.hits), sql(|p| p.hits) + sql(|p| p.misses)),
    );
    out.set(
        "sqlkit.rows_scanned_per_exec",
        stats::ratio(sql(|p| p.rows_scanned), execs),
    );
    out.set(
        "sqlkit.ix_scan_ratio",
        stats::ratio(sql(|p| p.ix_scans), execs),
    );
}

/// Plan-cache activity between two snapshots.
pub fn plan_cache_since(before: &PlanCacheStats) -> PlanCacheStats {
    plan_delta(&sqlkit::plan_cache().stats(), before)
}
