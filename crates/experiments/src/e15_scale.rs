//! E15 — every algorithm at scale: a churned 100k-node random-geometric
//! network, streamed through the conservative-window parallel engine.
//!
//! The paper's gradient lower bound is about *large-diameter* networks —
//! `Ω(D)` only bites when `D` is big — but most recorded experiments top
//! out at a few hundred nodes because the single-heap engine serializes
//! dispatch. This experiment pins the scale path: a random-geometric
//! graph (the paper's motivating sensor-network geometry) under churn,
//! run in streaming mode on [`gcs_sim::ShardedSimulation`], for **every**
//! algorithm in the catalog — including `DynamicGradient`, whose per-node
//! state is O(degree) (a sorted small-vec of formation stamps) rather
//! than O(n), which is what makes a 100k-node churned run representable
//! at all (a dense map would be `n²` slots ≈ 160 GB at full scale).
//!
//! Three claims, asserted:
//!
//! 1. **Coverage** — all eight algorithms complete the churned full-scale
//!    run on the widest shard count and report events/sec.
//! 2. **Determinism at scale** — `DynamicGradient` produces bit-identical
//!    observer streams (worst global skew and its instant compared by
//!    `to_bits`) across every shard count, the same invariant
//!    `tests/shard_determinism.rs` pins on small goldens.
//! 3. **O(Σ degree) state** — peak RSS (`VmHWM`) stays orders of
//!    magnitude below the dense-state footprint at full scale.

use std::time::Instant;

use gcs_algorithms::AlgorithmKind;
use gcs_dynamic::ChurnSchedule;
use gcs_sim::GlobalSkewObserver;
use gcs_testkit::Scenario;

use crate::table::fnum;
use crate::{Scale, Table};

/// One sharded streaming run's outcome.
struct ScaleRun {
    dispatched: u64,
    wall_secs: f64,
    worst_skew: f64,
    worst_at: f64,
    peak_rss_mib: Option<f64>,
}

/// Process-lifetime peak resident set (`VmHWM`) in MiB, if the platform
/// exposes it (Linux procfs; `None` elsewhere). Monotone over the
/// process's life, so successive readings bound *cumulative* peak state.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The algorithm catalog at scale. Slack-per-distance parameters are
/// sized for the normalized geometry (typical neighbor distances in the
/// hundreds of units, delays proportional to them).
fn catalog(period: f64, window: f64) -> Vec<AlgorithmKind> {
    vec![
        AlgorithmKind::NoSync,
        AlgorithmKind::Max { period },
        AlgorithmKind::OffsetMax {
            period,
            compensation: 0.5,
        },
        AlgorithmKind::Rbs { period },
        AlgorithmKind::Gradient { period, kappa: 0.5 },
        AlgorithmKind::GradientRate {
            period,
            threshold: 1.0,
            boost: 1.5,
        },
        dynamic_gradient(period, window),
        AlgorithmKind::TreeSync { period },
    ]
}

/// The dynamic-network algorithm the determinism matrix exercises.
fn dynamic_gradient(period: f64, window: f64) -> AlgorithmKind {
    AlgorithmKind::DynamicGradient {
        period,
        kappa_strong: 0.5,
        kappa_weak: 6.0,
        window,
    }
}

/// The E15 scenario: churned random-geometric sync, streaming.
///
/// `random_geometric` normalizes distances so the closest pair sits at
/// distance 1 — the neighbor radius, the broadcast period, and the
/// horizon are all sized in those units (typical neighbor distances are
/// in the hundreds at these densities, and message delays scale with
/// them).
fn scale_scenario(
    kind: AlgorithmKind,
    n: usize,
    extent: f64,
    radius: f64,
    period: f64,
    horizon: f64,
    seed: u64,
) -> Scenario {
    Scenario::random_geometric(n, extent, radius, seed)
        .named(format!("e15_rgg{n}_{}", kind.name()))
        .algorithm(kind)
        .churn(ChurnSchedule::periodic_flap(0, 1, period, horizon))
        .spread_rates(0.01)
        .uniform_delay(0.3, 0.9)
        .seed(seed)
        .horizon(horizon)
        .record_events(false)
}

fn run_sharded(scenario: &Scenario, shards: usize, horizon: f64) -> ScaleRun {
    let kind = scenario.algorithm_kind();
    let mut sim = scenario.build_sharded_with(shards, |id, n| kind.build(id, n));
    sim.set_probe_schedule(0.0, horizon / 4.0);
    let mut global = GlobalSkewObserver::new();
    let t0 = Instant::now();
    sim.run_until_observed(horizon, &mut [&mut global]);
    let wall_secs = t0.elapsed().as_secs_f64();
    ScaleRun {
        dispatched: sim.dispatched(),
        wall_secs,
        worst_skew: global.worst(),
        worst_at: global.worst_at(),
        peak_rss_mib: peak_rss_mib(),
    }
}

fn rss_cell(r: &ScaleRun) -> String {
    r.peak_rss_mib.map_or_else(|| "n/a".into(), fnum)
}

/// Runs the experiment.
#[must_use]
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
pub fn run(scale: Scale) -> Vec<Table> {
    // Radii chosen (empirically, per seed 42) for mean degree ≈ 7–12 in
    // the normalized geometry; periods/horizons in the same units, long
    // enough that most broadcasts arrive inside the run.
    let (n, extent, radius, period, horizon): (usize, f64, f64, f64, f64) = match scale {
        Scale::Quick => (1_000, 120.0, 550.0, 60.0, 240.0),
        Scale::Full => (100_000, 1000.0, 500.0, 40.0, 200.0),
    };
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    // At least one genuinely multi-shard configuration even on
    // single-core CI machines: cross-shard handoff must be exercised
    // (and checked for determinism) regardless of host parallelism.
    let kmax = match scale {
        Scale::Quick => 4,
        Scale::Full => threads.clamp(2, 16),
    };

    // ── Determinism matrix: DynamicGradient across shard counts.
    //
    // One shard is the reference, and every wider configuration must
    // reproduce its observer stream bit for bit.
    let dyn_scenario = scale_scenario(
        dynamic_gradient(period, horizon / 4.0),
        n,
        extent,
        radius,
        period,
        horizon,
        42,
    );
    let mut matrix = vec![1, 2, kmax];
    matrix.dedup();
    let mut shard_table = Table::new(
        "e15",
        &format!(
            "Determinism at scale (churned random-geometric, n = {n}, streaming \
             dynamic-gradient to horizon {horizon}): the shard count never \
             changes the output"
        ),
        &[
            "shards",
            "dispatched_events",
            "wall_secs",
            "events_per_sec",
            "worst_global_skew",
            "peak_rss_mib",
        ],
    );
    // Configurations run sequentially: each saturates the machine with
    // its own shard threads, so an outer fan-out would only oversubscribe.
    let mut matrix_runs: Vec<(usize, ScaleRun)> = matrix
        .iter()
        .map(|&k| (k, run_sharded(&dyn_scenario, k, horizon)))
        .collect();
    for (k, run) in &matrix_runs {
        shard_table.row_owned(vec![
            k.to_string(),
            run.dispatched.to_string(),
            fnum(run.wall_secs),
            fnum(run.dispatched as f64 / run.wall_secs.max(1e-9)),
            fnum(run.worst_skew),
            rss_cell(run),
        ]);
    }

    let (_, reference) = &matrix_runs[0];
    assert!(
        reference.dispatched > n as u64,
        "the scale run barely ran: {} events over {n} nodes",
        reference.dispatched
    );
    for (k, run) in &matrix_runs[1..] {
        assert!(
            run.worst_skew.to_bits() == reference.worst_skew.to_bits()
                && run.worst_at.to_bits() == reference.worst_at.to_bits(),
            "shards={k} diverged from the single-shard run at n = {n}: \
             worst {} @ {} vs {} @ {}",
            run.worst_skew,
            run.worst_at,
            reference.worst_skew,
            reference.worst_at,
        );
    }

    // ── Coverage: every algorithm completes the churned run at kmax.
    // DynamicGradient reuses its matrix run.
    let mut coverage = Table::new(
        "e15",
        &format!(
            "Every algorithm at scale (churned random-geometric, n = {n}, \
             streaming to horizon {horizon}, shards = {kmax})"
        ),
        &[
            "algorithm",
            "dispatched_events",
            "wall_secs",
            "events_per_sec",
            "worst_global_skew",
            "peak_rss_mib",
        ],
    );
    let dyn_name = dynamic_gradient(period, horizon / 4.0).name();
    for kind in catalog(period, horizon / 4.0) {
        let name = kind.name();
        let run = if name == dyn_name {
            let (_, run) = matrix_runs.pop().expect("matrix ran");
            run
        } else {
            let scenario = scale_scenario(kind, n, extent, radius, period, horizon, 42);
            run_sharded(&scenario, kmax, horizon)
        };
        // Every algorithm must genuinely run; NoSync still dispatches its
        // n Start events plus the probe grid.
        assert!(
            run.dispatched >= n as u64,
            "algorithm {name} barely ran: {} events over {n} nodes",
            run.dispatched
        );
        coverage.row_owned(vec![
            name.to_string(),
            run.dispatched.to_string(),
            fnum(run.wall_secs),
            fnum(run.dispatched as f64 / run.wall_secs.max(1e-9)),
            fnum(run.worst_skew),
            rss_cell(&run),
        ]);
    }

    // ── O(Σ degree) state: at full scale a dense per-node neighbor map
    // would be n² slots ≈ 160 GB; the sparse layout keeps the whole
    // 100k-node suite within a CI machine's memory. The bound is loose
    // (it covers the engine, trajectories, and every prior run in this
    // process) — the claim is the *order of magnitude*.
    if scale == Scale::Full {
        if let Some(peak) = peak_rss_mib() {
            assert!(
                peak < 12_288.0,
                "full-scale peak RSS {peak:.0} MiB exceeds the O(Σ degree) \
                 budget; dense per-node state would be ~160000 MiB"
            );
        }
    }

    vec![shard_table, coverage]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_deterministic_across_shard_counts() {
        // The in-experiment assertions do the heavy lifting; this pins
        // the quick configuration's shape: one shard-count table (1, 2
        // and 4 shards) plus one coverage table (8 algorithms).
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows().len(), 3);
        assert_eq!(tables[1].rows().len(), 8);
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        // On Linux the probe must parse; elsewhere it degrades to None.
        if cfg!(target_os = "linux") {
            let mib = peak_rss_mib().expect("VmHWM present on Linux");
            assert!(mib > 1.0, "implausible peak RSS {mib} MiB");
        }
    }
}
