//! The metric catalogue and the run report.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json` (a test keeps
//! them in step). An untraced run reports every end-to-end metric; a
//! traced run reports every per-layer metric, with 0 for a layer the
//! workload never enters.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("slo_pct", "%"),
    ("ex_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric of the scored workloads.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.generate_s", "s"),
    ("preprocess.run_s", "s"),
    ("answer.traced_ops", "count"),
    ("answer.attributed_pct", "%"),
    ("answer.unattributed_ms", "ms"),
    ("extraction.self_ms", "ms"),
    ("generation.self_ms", "ms"),
    ("refinement.self_ms", "ms"),
    ("refinement.self_ms_p99", "ms"),
    ("vote.self_ms", "ms"),
    ("refinement.correction_rounds", "count"),
    ("refinement.analyze_skips", "count"),
    ("refinement.valid_ratio", "ratio"),
    ("llmsim.calls", "count"),
    ("llmsim.cpu_ms", "ms"),
    ("llm_tokens_per_op", "count"),
    ("llm_modelled_ms_p50", "ms"),
    ("sqlkit.prepare_ms", "ms"),
    ("sqlkit.execute_ms", "ms"),
    ("sqlkit.plan_cache_hit_ratio", "ratio"),
    ("sqlkit.rows_scanned_per_exec", "count"),
    ("sqlkit.ix_scan_ratio", "ratio"),
    ("trace_overhead_pct", "%"),
];

/// `(name, unit)` of the layers only the unscored workloads (`http_repeat`,
/// `wal_ship`) measure: printed by their traced runs, not in the result line.
pub const UNSCORED_LAYER: &[(&str, &str)] = &[
    ("store.catalog_loads", "count"),
    ("store.load_ms", "ms"),
    ("runtime.queue_wait_ms_p50", "ms"),
    ("runtime.queue_wait_ms_p99", "ms"),
    ("runtime.service_ms_p50", "ms"),
    ("server.overhead_ms_p50", "ms"),
    ("server.shed_ratio", "ratio"),
    ("runtime.result_cache_hit_ratio", "ratio"),
    ("server.coalesced_ratio", "ratio"),
    ("store.execute_us", "us"),
    ("store.commit_us", "us"),
    ("store.wal_sync_us_p50", "us"),
    ("store.wal_sync_us_p99", "us"),
    ("store.checkpoint_ms", "ms"),
    ("store.wal_bytes_per_user_byte", "ratio"),
    ("repl.ship_ms", "ms"),
    ("repl.apply_us_per_txn", "us"),
    ("repl.max_lag_txns", "count"),
    ("repl_apply_ops_s", "1/s"),
];

/// One named correctness check and what it found wrong (empty = passed).
#[derive(Debug, Default)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// One line per discrepancy.
    pub failures: Vec<String>,
}

impl Check {
    /// A check named `name`, passing until a failure is recorded.
    pub fn new(name: &str) -> Self {
        Check {
            name: name.to_owned(),
            failures: Vec::new(),
        }
    }

    /// Record a failure when `result` is an error.
    pub fn record(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    /// Whether nothing was found wrong.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started in the timed window.
    pub attempted: u64,
    /// Operations that failed: errors, refusals, and wrong answers.
    pub failed: u64,
    /// Correctness checks run over the outputs.
    pub checks: Vec<Check>,
    /// Measured values by metric name (end-to-end and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Set when the run cannot be scored (its load generator fell behind).
    pub invalid: Option<String>,
    /// Context lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .chain(UNSCORED_LAYER)
                .any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(Check::passed)
    }

    /// The values to report: every end-to-end metric (untraced) or every
    /// per-layer metric (traced). A missing end-to-end metric or a
    /// non-finite value is a bug in the workload.
    pub fn reported(&self, traced: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut out = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            out.push((name, value, unit));
        }
        Ok(out)
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER).chain(UNSCORED_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn untraced_report_needs_every_end_to_end_metric() {
        let mut o = Outcome::default();
        assert!(o.reported(false).is_err());
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        assert_eq!(o.reported(false).unwrap().len(), END_TO_END.len());
        let traced = o.reported(true).unwrap();
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(traced.iter().all(|(_, v, _)| *v == 0.0));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 1, 0, &[("a", 1.25, "ms"), ("b", 2.0, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
