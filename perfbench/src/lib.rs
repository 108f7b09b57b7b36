//! The repository benchmark: workloads over a generated BIRD Mini-Dev
//! shaped world, each measured end to end (untraced) or layer by layer
//! (traced). See `README.md` in this directory for the metric catalogue.

pub mod answer;
pub mod check;
pub mod http;
pub mod json;
pub mod llm;
pub mod report;
pub mod stats;
pub mod wal;
pub mod world;

use report::Outcome;
use world::Opts;

/// The scored workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["answer_cold", "answer_serving"];

/// Workloads that run and check like the scored ones but are left out of
/// `BENCHMARK.json`: their timings were not steady on the two-core host
/// (see `README.md`). Their layer metrics are printed, not scored.
pub const UNSCORED: &[&str] = &["http_repeat", "wal_ship"];

/// Run one workload by name.
pub fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    match workload {
        "answer_cold" => answer::run(opts, &answer::COLD),
        "answer_serving" => answer::run(opts, &answer::SERVING),
        "http_repeat" => http::run(opts),
        "wal_ship" => wal::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}
