//! The metric names in `BENCHMARK.json` and the ones the benchmark prints
//! are the same set, with the same units.

mod json;

use skelcl_perfbench::report::{self, Spec};
use skelcl_perfbench::{run, Kind, Options};

fn benchmark_json() -> json::Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn listed(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn registered(registry: &[Spec]) -> Vec<(String, String)> {
    registry
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_registered_metrics_and_workloads() {
    assert_eq!(listed("end_to_end"), registered(report::END_TO_END));
    assert_eq!(listed("per_layer"), registered(report::PER_LAYER));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(workloads, kinds);
    for (name, _) in listed("end_to_end").iter().chain(&listed("per_layer")) {
        assert!(valid_name(name), "bad metric name {name}");
    }
    for name in &workloads {
        assert!(valid_name(name), "bad workload name {name}");
    }
}

#[test]
fn every_printed_metric_is_listed_and_every_listed_one_printed() {
    for kind in Kind::ALL {
        for trace in [false, true] {
            let data = run(&Options::smoke(kind, 3, trace, 4)).expect("smoke run reconciles");
            let line = json::parse(&report::result(&data));
            let section = if trace { "per_layer" } else { "end_to_end" };
            let mut want = listed(section);
            want.sort();
            let mut printed: Vec<(String, String)> = line
                .get("metrics")
                .obj()
                .iter()
                .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                .collect();
            printed.sort();
            assert_eq!(printed, want, "{} trace={trace}", kind.name());
            assert_eq!(line.get("failed").num(), 0.0, "{}", kind.name());
            assert!(line.get("attempted").num() >= 1.0);
        }
    }
}
