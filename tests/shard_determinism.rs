//! The sharded engine's determinism contract: for every shard count
//! `k ≥ 1` the conservative-window parallel engine produces executions
//! **bit-identical** to the single-heap engine — same events, same
//! messages, same trajectories, same schedules — on every committed
//! golden scenario, and it enforces the same global event cap. This is
//! the invariant the `shard-determinism` CI job pins: the shard count
//! trades wall-clock for thread count, never output.

use gcs_testkit::prelude::*;
use gradient_clock_sync::algorithms::AlgorithmKind;
use gradient_clock_sync::dynamic::ChurnSchedule;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// The canonical stochastic line scenario of the determinism goldens.
fn stochastic_line(kind: AlgorithmKind, seed: u64) -> Scenario {
    Scenario::line(6)
        .algorithm(kind)
        .drift_walk(0.03, 8.0, 0.01)
        .uniform_delay(0.1, 0.9)
        .seed(seed)
        .horizon(80.0)
}

/// The canonical churn scenario (mirrors `tests/churn.rs`), pinned by the
/// `ring8_flap10_dyngradient_seed7` golden.
fn flapping_ring(seed: u64) -> Scenario {
    Scenario::ring(8)
        .named(format!("ring8_flap10_s{seed}"))
        .algorithm(AlgorithmKind::DynamicGradient {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: 20.0,
        })
        .churn(ChurnSchedule::periodic_flap(0, 1, 10.0, 150.0))
        .drift_walk(0.02, 10.0, 0.005)
        .uniform_delay(0.1, 0.9)
        .seed(seed)
        .horizon(160.0)
}

/// A random-geometric scenario with churn — the sharded engine's target
/// workload shape (spatial topology, many shard-crossing edges), pinned
/// by its own golden.
fn churned_geometric() -> Scenario {
    Scenario::random_geometric(24, 10.0, 4.0, 21)
        .named("rgg24_churn_seed21")
        .algorithm(AlgorithmKind::DynamicGradient {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: 20.0,
        })
        .churn(ChurnSchedule::periodic_flap(0, 1, 10.0, 70.0))
        .drift_walk(0.02, 10.0, 0.005)
        .uniform_delay(0.1, 0.9)
        .seed(21)
        .horizon(80.0)
}

/// Every shard count must reproduce the single-heap execution of
/// `scenario` bit-for-bit.
fn assert_shard_invariant(scenario: &Scenario) {
    let reference = scenario.run();
    for k in SHARD_COUNTS {
        let sharded = scenario.run_sharded(k);
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&sharded),
            "scenario `{}`: shards={k} diverged from the single-heap engine",
            scenario.name()
        );
        assert_bit_identical(&reference, &sharded);
    }
}

#[test]
fn sharded_matches_single_heap_on_stochastic_line() {
    assert_shard_invariant(&stochastic_line(AlgorithmKind::Max { period: 1.0 }, 99));
    assert_shard_invariant(&stochastic_line(
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        },
        7,
    ));
}

#[test]
fn sharded_matches_single_heap_on_churned_ring() {
    assert_shard_invariant(&flapping_ring(7));
}

#[test]
fn sharded_matches_single_heap_on_churned_geometric() {
    assert_shard_invariant(&churned_geometric());
}

#[test]
fn sharded_matches_committed_goldens() {
    // The goldens were recorded by the single-heap engine; every shard
    // count must reproduce their bytes. Regenerate intentionally with:
    // GCS_BLESS=1 cargo test -q
    for k in SHARD_COUNTS {
        assert_matches_golden(
            &stochastic_line(AlgorithmKind::Max { period: 1.0 }, 99).run_sharded(k),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/line6_max_seed99.snap"
            ),
        );
        assert_matches_golden(
            &flapping_ring(7).run_sharded(k),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/ring8_flap10_dyngradient_seed7.snap"
            ),
        );
        assert_matches_golden(
            &churned_geometric().run_sharded(k),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/rgg24_churn_seed21.snap"
            ),
        );
    }
}

#[test]
fn shard_counts_beyond_node_count_clamp_and_still_match() {
    let scenario = stochastic_line(AlgorithmKind::Max { period: 1.0 }, 99);
    let reference = scenario.run();
    // 64 shards over 6 nodes: clamped to 6, output unchanged.
    assert_bit_identical(&reference, &scenario.run_sharded(64));
}

#[test]
fn sharded_streaming_observers_match_single_heap_observers() {
    // Observer streams (probes + events) must agree too, not just the
    // final record: global-skew series are compared sample for sample.
    use gradient_clock_sync::sim::GlobalSkewObserver;
    let scenario = flapping_ring(7);

    let mut single = GlobalSkewObserver::new();
    let mut sim = scenario.build();
    sim.set_probe_schedule(0.0, 5.0);
    sim.run_until_observed(160.0, &mut [&mut single]);

    for k in SHARD_COUNTS {
        let mut sharded = GlobalSkewObserver::new();
        let mut sim =
            scenario.build_sharded_with(k, |id, n| scenario.algorithm_kind().build(id, n));
        sim.set_probe_schedule(0.0, 5.0);
        sim.run_until_observed(160.0, &mut [&mut sharded]);
        assert_eq!(
            single.worst().to_bits(),
            sharded.worst().to_bits(),
            "shards={k}: observed worst global skew diverged"
        );
        assert_eq!(
            single.worst_at().to_bits(),
            sharded.worst_at().to_bits(),
            "shards={k}: observed worst-skew instant diverged"
        );
    }
}

/// The event cap bounds the *global* dispatched count. The repro run
/// dispatches 472 events; capped one below that, every shard count must
/// panic with the single heap's message (same cap, same instant), and
/// capped at exactly 472 every shard count must complete.
#[test]
fn sharded_event_cap_is_global() {
    use gradient_clock_sync::net::{Topology, UniformDelay};
    use gradient_clock_sync::sim::SimulationBuilder;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let kind = AlgorithmKind::Max { period: 1.0 };
    let builder = |cap: u64| {
        SimulationBuilder::new(Topology::ring(8))
            .delay_policy(UniformDelay::new(0.25, 0.75, 3))
            .event_cap(cap)
    };
    let panic_message = |run: &dyn Fn()| -> String {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the capped run must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    };

    let full = builder(u64::MAX)
        .build_with(|id, n| kind.build(id, n))
        .unwrap()
        .execute_until(20.0);
    assert_eq!(full.events().len(), 472);
    let heap = panic_message(&|| {
        let _ = builder(471)
            .build_with(|id, n| kind.build(id, n))
            .unwrap()
            .execute_until(20.0);
    });
    assert!(heap.contains("event cap of 471 exceeded"), "{heap}");

    for k in [1, 2, 4] {
        let sharded = panic_message(&|| {
            builder(471)
                .shards(k)
                .build_sharded_with(|id, n| kind.build(id, n))
                .unwrap()
                .run_until(20.0);
        });
        assert_eq!(sharded, heap, "shards={k}");
        let mut at_cap = builder(472)
            .shards(k)
            .build_sharded_with(|id, n| kind.build(id, n))
            .unwrap();
        at_cap.run_until(20.0);
        assert_eq!(at_cap.dispatched(), 472, "shards={k}");
    }
}
