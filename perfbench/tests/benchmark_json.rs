//! `BENCHMARK.json` names exactly the workloads and metrics the program
//! reports, in the same order and with the same units.

use osql_perfbench::report::{END_TO_END, PER_LAYER};
use osql_perfbench::WORKLOADS;

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    Some(&line[start..start + line[start..].find('"')?])
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let (mut workloads, mut metrics) = (Vec::new(), Vec::new());
    for line in text.lines() {
        if let Some(name) = field(line, "name") {
            match field(line, "unit") {
                Some(unit) => metrics.push((name, unit)),
                None => workloads.push(name),
            }
        }
    }
    assert_eq!(workloads, WORKLOADS);
    let expected: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    assert_eq!(metrics, expected);
}
