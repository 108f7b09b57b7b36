//! Every workload on the two-database smoke world: runs clean, passes its
//! checks, and emits every metric of the catalogue.

use osql_perfbench::report::{PER_LAYER, UNSCORED_LAYER};
use osql_perfbench::world::Opts;
use osql_perfbench::{run, UNSCORED, WORKLOADS};
use std::collections::HashSet;

fn opts(traced: bool) -> Opts {
    Opts {
        seed: 3,
        seconds: 1.0,
        traced,
        smoke: true,
    }
}

#[test]
fn every_workload_emits_every_metric_on_a_small_world() {
    let mut layers = HashSet::new();
    for workload in WORKLOADS.iter().chain(UNSCORED) {
        for traced in [false, true] {
            let o = run(workload, &opts(traced)).unwrap_or_else(|e| panic!("{workload}: {e}"));
            let failures: Vec<_> = o
                .checks
                .iter()
                .flat_map(|c| c.failures.iter())
                .take(3)
                .collect();
            assert!(
                o.correct(),
                "{workload} traced={traced}: {} failed, {failures:?}",
                o.failed
            );
            assert!(o.attempted > 0, "{workload} attempted nothing");
            assert!(o.invalid.is_none(), "{workload}: {:?}", o.invalid);
            let reported = o
                .reported(traced)
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            if traced {
                layers.extend(o.values.keys().copied());
            } else {
                for (name, value, _) in reported {
                    assert!(value > 0.0, "{workload}: end-to-end {name} reads {value}");
                }
            }
        }
    }
    for (name, _) in PER_LAYER.iter().chain(UNSCORED_LAYER) {
        assert!(layers.contains(name), "no workload measured {name}");
    }
}
