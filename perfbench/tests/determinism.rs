//! Virtual time and counts are bit-identical for one seed: across two runs,
//! and between the traced and the untraced run.

use skelcl_perfbench::harness::Sample;
use skelcl_perfbench::report::{self, Clock, Metrics};
use skelcl_perfbench::{run, Kind, Options};

const ITERS: usize = 3;

/// The metrics of `registry` that must repeat exactly.
fn exact(metrics: &Metrics) -> Vec<(&'static str, u64)> {
    metrics
        .iter()
        .filter(|(name, _)| report::spec(name).is_some_and(|s| s.2 != Clock::Wall))
        .map(|(name, v)| (*name, v.to_bits()))
        .collect()
}

#[test]
fn virtual_metrics_and_counts_repeat_bit_for_bit() {
    for kind in Kind::ALL {
        let name = kind.name();
        let plain_a = run(&Options::smoke(kind, 42, false, ITERS)).unwrap();
        let plain_b = run(&Options::smoke(kind, 42, false, ITERS)).unwrap();
        let traced_a = run(&Options::smoke(kind, 42, true, ITERS)).unwrap();
        let traced_b = run(&Options::smoke(kind, 42, true, ITERS)).unwrap();
        for data in [&plain_a, &plain_b, &traced_a, &traced_b] {
            assert_eq!(
                data.failed, 0,
                "{name}: outputs differ from the host reference"
            );
        }

        let e2e = exact(&report::end_to_end(&plain_a));
        assert_eq!(e2e.len(), 4, "{name}: virtual end-to-end metrics");
        assert_eq!(
            e2e,
            exact(&report::end_to_end(&plain_b)),
            "{name}: run to run"
        );
        assert_eq!(
            e2e,
            exact(&report::end_to_end(&traced_a)),
            "{name}: traced vs untraced"
        );

        // The traced round replays round 0's inputs on a fresh runtime:
        // tracing must not move its virtual time.
        let virt = |samples: &[Sample]| -> Vec<u64> {
            samples[..ITERS].iter().map(|s| s.virt_ns).collect()
        };
        assert_eq!(
            virt(&traced_a.traced_warm),
            virt(&traced_a.rounds[0]),
            "{name}: traced round"
        );

        let layers = exact(&report::per_layer(&traced_a));
        assert!(
            layers.len() > 20,
            "{name}: per-layer virtual and count metrics"
        );
        assert_eq!(
            layers,
            exact(&report::per_layer(&traced_b)),
            "{name}: traced run to run"
        );
    }
}

#[test]
fn another_seed_changes_the_virtual_time() {
    let a = report::end_to_end(&run(&Options::smoke(Kind::StreamSaxpy, 1, false, 2)).unwrap());
    let b = report::end_to_end(&run(&Options::smoke(Kind::StreamSaxpy, 2, false, 2)).unwrap());
    assert_ne!(a["virtual_ms"], b["virtual_ms"]);
}
