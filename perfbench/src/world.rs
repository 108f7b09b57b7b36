//! Run options, the generated world, set-up timing, and process facts.

use datagen::{Benchmark, Profile};
use llmsim::{LanguageModel, ModelProfile, Oracle, SimLlm};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Full set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seeds the question order, the request schedules and the write keys.
    pub seed: u64,
    /// Sets the work in a run (see [`Opts::ops`]).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub traced: bool,
    /// A two-database world and one set-up, for the test suite's smoke run.
    pub smoke: bool,
}

impl Opts {
    /// Set-ups to perform in this run.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPEATS
        }
    }

    /// Operations in one run: the workload's rate on the parent commit
    /// times `seconds`, so a run of the parent lasts about `seconds` and
    /// every commit measured with the same arguments does the same work.
    pub fn ops(&self, per_second: f64) -> usize {
        (per_second * self.seconds).round().max(1.0) as usize
    }

    /// Scale a full-run count down for the smoke world.
    pub fn size<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// splitmix64: derives independent seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for schedules and keys.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of a run seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed, stream))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The world: the BIRD Mini-Dev profile (12 databases, BIRD row scale,
/// dirty values) at its own fixed seed, with `dev` questions. The run seed
/// does not change it: worlds drawn per seed moved `ex_pct` by 3.5% and
/// the p99 latencies by up to 38% between seeds, far beyond any bound
/// worth holding a change to. The smoke world is the two-database
/// unit-test profile.
pub fn profile(opts: &Opts, dev: usize) -> Profile {
    let mut p = if opts.smoke {
        Profile::tiny()
    } else {
        Profile::bird_mini_dev()
    };
    p.dev = dev;
    p.test = 0;
    p
}

/// Seed of the simulated model, fixed like the world so each question
/// has one deterministic answer.
pub const LLM_SEED: u64 = 0xCAFE;

/// The simulated model every pipeline in a run uses.
pub fn sim_llm(bench: &Arc<Benchmark>) -> Arc<dyn LanguageModel> {
    Arc::new(SimLlm::new(
        Arc::new(Oracle::new(bench.clone())),
        ModelProfile::gpt_4o(),
        LLM_SEED,
    ))
}

/// Indices of the dev questions that differ as the result cache sees them
/// (same database, normalised question and evidence count as one), first
/// occurrence kept, in split order.
pub fn distinct_dev(bench: &Benchmark) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    (0..bench.dev.len())
        .filter(|&i| {
            let ex = &bench.dev[i];
            seen.insert(osql_runtime::ResultKey::new(
                &ex.db_id,
                &ex.question,
                &ex.evidence,
                0,
            ))
        })
        .collect()
}

/// Run `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Timings of one complete set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Everything up to the first timed operation.
    pub total_s: f64,
    /// `datagen::generate`.
    pub generate_s: f64,
    /// Preprocessing: value/column indexes and the few-shot library.
    pub preprocess_s: f64,
    /// Store files demand-loaded by the paged catalog.
    pub catalog_loads: f64,
    /// Time the catalog spent loading them.
    pub load_ms: f64,
}

/// Perform the set-up [`Opts::setup_repeats`] times (each from scratch,
/// the previous one dropped first) and keep the last. Returns it with the
/// timings of every repetition.
pub fn repeated_setup<T>(
    opts: &Opts,
    mut build: impl FnMut(usize) -> Result<(T, SetupTimes), String>,
) -> Result<(T, Vec<SetupTimes>), String> {
    let mut kept = None;
    let mut times = Vec::new();
    for k in 0..opts.setup_repeats() {
        drop(kept.take());
        let t0 = Instant::now();
        let (value, mut t) = build(k)?;
        t.total_s = t0.elapsed().as_secs_f64();
        times.push(t);
        kept = Some(value);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Record the median set-up timings.
pub fn report_setup(out: &mut crate::report::Outcome, times: &[SetupTimes]) {
    let med =
        |f: fn(&SetupTimes) -> f64| crate::stats::median(&times.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", med(|t| t.total_s));
    out.set("datagen.generate_s", med(|t| t.generate_s));
    out.set("preprocess.run_s", med(|t| t.preprocess_s));
    out.set("store.catalog_loads", med(|t| t.catalog_loads));
    out.set("store.load_ms", med(|t| t.load_ms));
    out.notes.push(format!(
        "set-up totals (s): {}",
        times
            .iter()
            .map(|t| format!("{:.3}", t.total_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// `.bench_work/<name>-<pid>`, emptied first.
    pub fn new(name: &str) -> std::io::Result<Self> {
        let dir = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the parent goes too once no other run is using it
        let _ = std::fs::remove_dir(Path::new(".bench_work"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_uniform_enough() {
        let mut a = Rng::new(7, 3);
        let mut b = Rng::new(7, 3);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(
            xs,
            (0..8)
                .map(|_| Rng::new(8, 3).next_u64())
                .collect::<Vec<_>>()
        );
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[a.below(4)] += 1;
        }
        assert!(
            counts.iter().all(|&c| (800..1200).contains(&c)),
            "{counts:?}"
        );
    }
}
