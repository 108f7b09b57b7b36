//! `osql-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every measured metric by name with its unit, the run's
//! provenance, and, as the last line, the JSON result. Exits non-zero when
//! a correctness check fails or the run is invalid.

use osql_perfbench::{report, run, world::Opts};
use std::path::Path;
use std::process::ExitCode;

fn parse_args() -> Result<(String, Opts), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            traced: trace.ok_or("--trace is required")?,
            smoke: false,
        },
    ))
}

/// FNV-1a over the program's sources: names the code measured when the
/// checkout carries no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "stubs", "perfbench/src"] {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .bytes()
            .chain(bytes)
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn commit(root: &Path) -> String {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let resolved = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r)).unwrap_or_default(),
        None => head,
    };
    let resolved = resolved.trim();
    if resolved.len() == 40 {
        format!("{resolved} {}", source_digest(root))
    } else {
        source_digest(root)
    }
}

fn host() -> String {
    let name = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_default();
    format!("{} ({cpu})", name.trim())
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&workload, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "provenance: workload={workload} seed={} seconds={} trace={} commit={} host={} cores={cores}",
        opts.seed,
        opts.seconds,
        u8::from(opts.traced),
        commit(&root),
        host()
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }
    let catalogue: Vec<_> = report::END_TO_END
        .iter()
        .chain(report::PER_LAYER)
        .chain(report::UNSCORED_LAYER)
        .collect();
    for (name, value) in &outcome.values {
        let unit = catalogue
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| u);
        println!("metric {name} = {value} {unit}");
    }
    let mut ok = true;
    for c in &outcome.checks {
        println!(
            "check {}: {}",
            c.name,
            if c.passed() { "ok" } else { "FAILED" }
        );
        for f in c.failures.iter().take(5) {
            println!("  {f}");
        }
        ok &= c.passed();
    }
    if let Some(why) = &outcome.invalid {
        eprintln!("invalid run, not scored: {why}");
        return ExitCode::from(3);
    }
    if outcome.attempted == 0 {
        eprintln!("error: no operation was attempted in the window");
        return ExitCode::from(1);
    }
    let metrics = match outcome.reported(opts.traced) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = outcome.correct();
    println!(
        "attempted {} failed {} correct {correct}",
        outcome.attempted, outcome.failed
    );
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct && ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
