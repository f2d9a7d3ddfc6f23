//! `ring1k-sweep-cell`: the shape `SweepRunner::run_cell_metrics` runs per
//! cell, at E12's streaming drift. A 1024-node gradient ring on a lazy
//! random-walk clock source, probed every 1.0 with `RunMetrics` attached
//! as tracer and observer next to the global, adjacent and
//! gradient-profile observers. The queue stays shallow, so clocks,
//! O(n²)-per-probe observers and telemetry dominate.

use std::time::Instant;

use gcs_algorithms::AlgorithmKind;
use gcs_clocks::drift::DriftModel;
use gcs_clocks::{DriftBound, LazyDriftSource};
use gcs_net::{Topology, UniformDelay};
use gcs_sim::{
    AdjacentSkewObserver, GlobalSkewObserver, GradientProfileObserver, Observer, SimStats,
    Simulation, SimulationBuilder,
};
use gcs_telemetry::RunMetrics;

use crate::ledger::{Layers, Ledger};
use crate::{fnv, median, peak_rss_mib, secs, Args, Report};

const N: usize = 1024;
const HORIZON: f64 = 1500.0;
const PROBE_EVERY: f64 = 1.0;
/// Set-ups timed per pass; set-up is milliseconds, so one is too noisy.
const SETUPS_PER_PASS: usize = 15;

fn kind() -> AlgorithmKind {
    AlgorithmKind::Gradient {
        period: 1.0,
        kappa: 0.5,
    }
}

/// Builds the cell's simulation from the seed; the run is streaming.
fn build(seed: u64, layers: Option<&Layers>) -> Simulation<gcs_algorithms::SyncMsg> {
    let topology = Topology::ring(N);
    let model = DriftModel::new(DriftBound::new(0.02).expect("valid rho"), 10.0, 0.005);
    let source = LazyDriftSource::new(model, seed, N).with_walk_horizon(HORIZON);
    let delay = UniformDelay::new(0.25, 0.75, seed);
    let builder = SimulationBuilder::new(topology).record_events(false);
    let k = kind();
    let mut sim = match layers {
        None => builder
            .drift_source(source)
            .delay_policy(delay)
            .build_with(|id, n| k.build(id, n)),
        Some(l) => builder
            .drift_source(l.clock(source))
            .delay_policy(l.delay(delay))
            .build_with(|id, n| l.node(k.build(id, n), id)),
    }
    .expect("the ring cell builds");
    sim.set_probe_schedule(0.0, PROBE_EVERY);
    sim
}

/// Everything the cell outputs, digested; equal across decorations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    dispatched: u64,
    global_bits: u64,
    global_at_bits: u64,
    adjacent_bits: u64,
    profile: u64,
    metrics: u64,
}

struct Cell {
    fp: Fingerprint,
    ok: bool,
    build_s: f64,
    run_s: f64,
    collect_s: f64,
    drop_s: f64,
    stats: SimStats,
}

fn cell(seed: u64, layers: Option<&Layers>) -> Cell {
    let t0 = Instant::now();
    let mut sim = build(seed, layers);
    let collector = RunMetrics::new();
    match layers {
        None => sim.set_tracer(Box::new(collector.clone())),
        Some(l) => sim.set_tracer(Box::new(l.tracer(collector.clone()))),
    }
    let build_s = secs(t0);

    let mut metrics = collector.clone();
    let mut global = GlobalSkewObserver::new();
    let mut adjacent = AdjacentSkewObserver::new(1.0);
    let mut profile = GradientProfileObserver::new();
    let t0 = Instant::now();
    match layers {
        None => sim.run_until_observed(
            HORIZON,
            &mut [&mut metrics, &mut global, &mut adjacent, &mut profile],
        ),
        Some(l) => {
            let mut a = l.observer(&mut metrics, 0);
            let mut b = l.observer(&mut global, 1);
            let mut c = l.observer(&mut adjacent, 2);
            let mut d = l.observer(&mut profile, 3);
            let mut observers: [&mut dyn Observer; 4] = [&mut a, &mut b, &mut c, &mut d];
            sim.run_until_observed(HORIZON, &mut observers);
        }
    }
    let run_s = secs(t0);

    let t0 = Instant::now();
    let stats = sim.stats();
    collector.stamp_stats(&stats);
    let registry = collector.snapshot();
    let rows = profile.rows();
    let profile_digest = rows.iter().fold(0u64, |h, &(d, s)| {
        h.rotate_left(7) ^ d.to_bits() ^ s.to_bits().rotate_left(32)
    });
    let fp = Fingerprint {
        dispatched: stats.dispatched,
        global_bits: global.worst().to_bits(),
        global_at_bits: global.worst_at().to_bits(),
        adjacent_bits: adjacent.worst().to_bits(),
        profile: profile_digest,
        metrics: fnv(registry.to_json().as_bytes()),
    };
    let ok = stats.dispatched > N as u64
        && global.worst().is_finite()
        && global.worst() > 0.0
        && adjacent.worst() <= global.worst()
        && !rows.is_empty()
        && registry.counter("events/deliver") > 0
        && registry
            .histogram("adjacent_skew")
            .is_some_and(|h| h.count() > 0);
    let collect_s = secs(t0);
    let t0 = Instant::now();
    drop(sim);
    Cell {
        fp,
        ok,
        build_s,
        run_s,
        collect_s,
        drop_s: secs(t0),
        stats,
    }
}

/// Median seconds to build the cell's simulation, over several set-ups.
fn setup_s(seed: u64) -> f64 {
    let times: Vec<f64> = (0..SETUPS_PER_PASS)
        .map(|_| {
            let t0 = Instant::now();
            let sim = build(seed, None);
            let s = secs(t0);
            drop(std::hint::black_box(sim));
            s
        })
        .collect();
    median(&times)
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let start = Instant::now();
    let mut report = Report::default();
    let (mut setup, mut eps, mut op) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss = f64::NAN;
    let mut last = 0.0;
    while report.attempted == 0 || secs(start) + last <= args.seconds.as_secs_f64() {
        setup.push(setup_s(args.seed));
        let t0 = Instant::now();
        let c = cell(args.seed, None);
        last = secs(t0);
        report.op(c.ok);
        if report.attempted == 1 {
            rss = peak_rss_mib();
        }
        eps.push(c.stats.dispatched as f64 / c.run_s);
        op.push(last * 1e3);
        println!(
            "cell {}: run {:.3} s ({} events, peak queue {}), op {:.3} s",
            report.attempted, c.run_s, c.stats.dispatched, c.stats.peak_queued_events, last
        );
    }
    report.set("setup_s", median(&setup));
    report.set("events_per_s", median(&eps));
    report.set("op_p50_ms", median(&op));
    report.set("peak_rss_mib", rss);
    report
}

/// One untraced cell, then the same cell through every decorator; the two
/// must agree on every output.
fn traced(args: &Args) -> Report {
    let mut report = Report::default();
    let t0 = Instant::now();
    let plain = cell(args.seed, None);
    let plain_s = secs(t0);
    report.op(plain.ok);

    let layers = Layers::default();
    let t0 = Instant::now();
    let c = cell(args.seed, Some(&layers));
    let traced_s = secs(t0);
    let same = c.fp == plain.fp;
    if !same {
        eprintln!(
            "ring1k-sweep-cell: decorated cell diverged: {:?} vs {:?}",
            c.fp, plain.fp
        );
    }

    let mut ledger = Ledger::new("ring1k-sweep-cell (traced cell)", traced_s);
    ledger.row("sim.build", c.build_s);
    let engine = ledger.run_rows("sim.engine", c.run_s, layers.rows("", 1.0));
    ledger.row("telemetry.snapshot+checks", c.collect_s);
    ledger.row("sim.teardown", c.drop_s);
    print!("{}", ledger.render());
    report.op(c.ok && same && ledger.reconciles());

    let events = c.stats.dispatched as f64;
    report.set("sim.self_ns_per_event", engine * 1e9 / events);
    report.set("sim.peak_queued_events", c.stats.peak_queued_events as f64);
    report.set("sim.peak_message_slots", c.stats.peak_message_slots as f64);
    report.set("sim.dropped_link_down", c.stats.dropped_link_down as f64);
    layers.report_sim_layers(&mut report, events);
    report.set("trace.overhead_frac", traced_s / plain_s - 1.0);
    report.set("trace.unattributed_frac", ledger.unattributed_frac());
    report
}
