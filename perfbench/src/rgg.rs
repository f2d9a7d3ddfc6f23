//! `rgg100k-churn`: E15's geometry at full scale. A 100k-node
//! random-geometric network with a flapping link, `Max` sync, spread
//! constant drift and uniform delays, streamed to horizon 200 once on the
//! single-heap engine and once at `shards(2)`. The queue peaks in the
//! millions, so queue and dispatch dominate; clocks and observers idle.

use std::time::Instant;

use gcs_algorithms::AlgorithmKind;
use gcs_clocks::drift::spread_rates;
use gcs_clocks::{DriftBound, EagerSchedule, RateSchedule};
use gcs_dynamic::{ChurnSchedule, DynamicTopology};
use gcs_net::{Topology, UniformDelay};
use gcs_sim::{GlobalSkewObserver, Observer, SimStats, SimulationBuilder};

use crate::ledger::{Layers, Ledger};
use crate::{median, peak_rss_mib, secs, Args, Report};

const N: usize = 100_000;
const EXTENT: f64 = 1000.0;
const RADIUS: f64 = 500.0;
const PERIOD: f64 = 40.0;
const HORIZON: f64 = 200.0;
const SHARDS: usize = 2;
/// E15's network. The closest pair of points sets the distance unit, so
/// the mean degree, and with it the event count, swings widely from one
/// geometry seed to the next; the run's seed drives the delays instead.
const GEOMETRY_SEED: u64 = 42;

/// The run's inputs: the geometry, and delays drawn from the seed.
struct Inputs {
    seed: u64,
    topology: Topology,
    view: DynamicTopology,
    schedules: Vec<RateSchedule>,
    topology_s: f64,
    view_s: f64,
    schedules_s: f64,
}

impl Inputs {
    fn build(seed: u64) -> Inputs {
        let t0 = Instant::now();
        let topology = Topology::random_geometric(N, EXTENT, RADIUS, GEOMETRY_SEED);
        let topology_s = secs(t0);
        let t0 = Instant::now();
        let view = DynamicTopology::new(
            topology.clone(),
            ChurnSchedule::periodic_flap(0, 1, PERIOD, HORIZON),
        )
        .expect("the flapping link exists in every geometry");
        let view_s = secs(t0);
        let t0 = Instant::now();
        let schedules = spread_rates(DriftBound::new(0.01).expect("valid rho"), N);
        let schedules_s = secs(t0);
        Inputs {
            seed,
            topology,
            view,
            schedules,
            topology_s,
            view_s,
            schedules_s,
        }
    }

    /// The engine configuration, optionally routed through decorators.
    fn builder(&self, layers: Option<&Layers>) -> SimulationBuilder {
        let builder = SimulationBuilder::new(self.topology.clone())
            .dynamic_topology(self.view.clone())
            .drop_in_flight_on_link_down(true)
            .record_events(false);
        let eager = EagerSchedule::new(self.schedules.clone());
        let delay = UniformDelay::new(0.3, 0.9, self.seed);
        match layers {
            None => builder.drift_source(eager).delay_policy(delay),
            Some(l) => builder
                .drift_source(l.clock(eager))
                .delay_policy(l.delay(delay)),
        }
    }
}

/// What a run must reproduce bit for bit on every engine and every
/// decoration: dispatched count and the worst global skew with its instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    dispatched: u64,
    worst_bits: u64,
    worst_at_bits: u64,
}

impl Fingerprint {
    fn new(dispatched: u64, global: &GlobalSkewObserver) -> Self {
        Fingerprint {
            dispatched,
            worst_bits: global.worst().to_bits(),
            worst_at_bits: global.worst_at().to_bits(),
        }
    }

    fn plausible(&self) -> bool {
        let worst = f64::from_bits(self.worst_bits);
        self.dispatched > N as u64 && worst.is_finite() && worst >= 0.0
    }
}

fn kind() -> AlgorithmKind {
    AlgorithmKind::Max { period: PERIOD }
}

struct SingleRun {
    fp: Fingerprint,
    build_s: f64,
    run_s: f64,
    drop_s: f64,
    stats: SimStats,
}

fn run_single(inputs: &Inputs, layers: Option<&Layers>) -> SingleRun {
    let k = kind();
    let t0 = Instant::now();
    let builder = inputs.builder(layers);
    let mut sim = match layers {
        None => builder.build_with(|id, n| k.build(id, n)),
        Some(l) => builder.build_with(|id, n| l.node(k.build(id, n), id)),
    }
    .expect("the single-heap simulation builds");
    sim.set_probe_schedule(0.0, HORIZON / 4.0);
    let build_s = secs(t0);
    let mut global = GlobalSkewObserver::new();
    let t0 = Instant::now();
    match layers {
        None => sim.run_until_observed(HORIZON, &mut [&mut global]),
        Some(l) => {
            let mut traced = l.observer(&mut global, 0);
            sim.run_until_observed(HORIZON, &mut [&mut traced as &mut dyn Observer]);
        }
    }
    let run_s = secs(t0);
    let stats = sim.stats();
    let t0 = Instant::now();
    drop(sim);
    SingleRun {
        fp: Fingerprint::new(stats.dispatched, &global),
        build_s,
        run_s,
        drop_s: secs(t0),
        stats,
    }
}

struct ShardedRun {
    fp: Fingerprint,
    build_s: f64,
    run_s: f64,
    drop_s: f64,
    lookahead: f64,
}

fn run_sharded(inputs: &Inputs, layers: Option<&Layers>) -> ShardedRun {
    let k = kind();
    let t0 = Instant::now();
    let builder = inputs.builder(layers).shards(SHARDS);
    let mut sim = match layers {
        None => builder.build_sharded_with(|id, n| k.build(id, n)),
        Some(l) => builder.build_sharded_with(|id, n| l.node(k.build(id, n), id)),
    }
    .expect("the sharded simulation builds");
    sim.set_probe_schedule(0.0, HORIZON / 4.0);
    let lookahead = sim.lookahead();
    let build_s = secs(t0);
    let mut global = GlobalSkewObserver::new();
    let t0 = Instant::now();
    match layers {
        None => sim.run_until_observed(HORIZON, &mut [&mut global]),
        Some(l) => {
            let mut traced = l.observer(&mut global, 1);
            sim.run_until_observed(HORIZON, &mut [&mut traced as &mut dyn Observer]);
        }
    }
    let run_s = secs(t0);
    let dispatched = sim.dispatched();
    let t0 = Instant::now();
    drop(sim);
    ShardedRun {
        fp: Fingerprint::new(dispatched, &global),
        build_s,
        run_s,
        drop_s: secs(t0),
        lookahead,
    }
}

/// Inputs, a single-heap run and a sharded run, checked against each other.
struct Pass {
    single: SingleRun,
    sharded: ShardedRun,
    ok: bool,
    link_changes: usize,
    topology_s: f64,
    view_s: f64,
    schedules_s: f64,
}

/// Runs one pass; `layers` decorates the single-heap and sharded runs.
fn pass(seed: u64, layers: Option<(&Layers, &Layers)>) -> Pass {
    let inputs = Inputs::build(seed);
    let single = run_single(&inputs, layers.map(|l| l.0));
    let sharded = run_sharded(&inputs, layers.map(|l| l.1));
    let ok = single.fp == sharded.fp && single.fp.plausible();
    if !ok {
        eprintln!(
            "rgg100k-churn: single-heap {:?} and shards({SHARDS}) {:?} disagree",
            single.fp, sharded.fp
        );
    }
    Pass {
        ok,
        link_changes: inputs.view.schedule().len(),
        topology_s: inputs.topology_s,
        view_s: inputs.view_s,
        schedules_s: inputs.schedules_s,
        single,
        sharded,
    }
}

/// Untraced: single-heap passes (inputs, build, run, teardown) while they
/// fit in the run; after the first, one `shards(2)` run on the same inputs
/// that must match its fingerprint. The sharded run goes once per run so
/// that the single-heap figures get several samples.
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
        let t0 = Instant::now();
        let inputs = Inputs::build(args.seed);
        let inputs_s = secs(t0);
        let single = run_single(&inputs, None);
        last = secs(t0);
        report.op(single.fp.plausible());
        setup.push(inputs_s + single.build_s);
        eps.push(single.stats.dispatched as f64 / single.run_s);
        op.push(last * 1e3);
        println!(
            "pass {}: setup {:.3} s, single heap {:.3} s ({} events), op {last:.3} s",
            op.len(),
            inputs_s + single.build_s,
            single.run_s,
            single.stats.dispatched,
        );
        if report.attempted == 1 {
            let sharded = run_sharded(&inputs, None);
            let same = sharded.fp == single.fp;
            if !same {
                eprintln!(
                    "rgg100k-churn: single-heap {:?} and shards({SHARDS}) {:?} disagree",
                    single.fp, sharded.fp
                );
            }
            report.op(same);
            rss = peak_rss_mib();
            println!(
                "shards({SHARDS}): {:.3} s, same fingerprint: {same}",
                sharded.run_s
            );
        }
    }
    report.set("setup_s", median(&setup));
    report.set("events_per_s", median(&eps));
    report.set("op_p50_ms", median(&op));
    report.set("peak_rss_mib", rss);
    report
}

/// One untraced pass, then the same pass through every decorator. Both
/// must agree bit for bit, and the sharded lookahead must be unchanged.
fn traced(args: &Args) -> Report {
    let mut report = Report::default();
    let t0 = Instant::now();
    let plain = pass(args.seed, None);
    let plain_s = secs(t0);
    report.op(plain.ok);

    let (single_layers, shard_layers) = (Layers::default(), Layers::default());
    let t0 = Instant::now();
    let p = pass(args.seed, Some((&single_layers, &shard_layers)));
    let traced_s = secs(t0);

    let same = p.single.fp == plain.single.fp
        && p.sharded.fp == plain.sharded.fp
        && p.sharded.lookahead.to_bits() == plain.sharded.lookahead.to_bits();
    if !same {
        eprintln!(
            "rgg100k-churn: decorated pass diverged: single {:?} vs {:?}, sharded {:?} vs {:?}, \
             lookahead {} vs {}",
            p.single.fp,
            plain.single.fp,
            p.sharded.fp,
            plain.sharded.fp,
            p.sharded.lookahead,
            plain.sharded.lookahead
        );
    }

    let mut ledger = Ledger::new("rgg100k-churn (traced pass)", traced_s);
    ledger.row("net.topology_build", p.topology_s);
    ledger.row("dynamic.view_build", p.view_s);
    ledger.row("clocks.schedules", p.schedules_s);
    ledger.row("sim.build", p.single.build_s);
    let sim_self = ledger.run_rows("sim.engine", p.single.run_s, single_layers.rows("", 1.0));
    ledger.row("sim.teardown", p.single.drop_s);
    ledger.row("shard.build", p.sharded.build_s);
    // Sharded layer times are summed over worker threads; their share of
    // the wall clock is that sum over the shard count.
    let shard_rows = shard_layers.rows("shard:", 1.0 / SHARDS as f64);
    let shard_self = ledger.run_rows("shard.engine", p.sharded.run_s, shard_rows);
    ledger.row("shard.teardown", p.sharded.drop_s);
    print!("{}", ledger.render());
    report.op(p.ok && same && ledger.reconciles());

    let events = p.single.stats.dispatched as f64;
    let stats = p.single.stats;
    let l = &single_layers;
    report.set("sim.self_ns_per_event", sim_self * 1e9 / events);
    report.set("sim.peak_queued_events", stats.peak_queued_events as f64);
    report.set("sim.peak_message_slots", stats.peak_message_slots as f64);
    report.set("sim.dropped_link_down", stats.dropped_link_down as f64);
    report.set(
        "shard.self_ns_per_event",
        shard_self * SHARDS as f64 * 1e9 / p.sharded.fp.dispatched as f64,
    );
    report.set("shard.lookahead", p.sharded.lookahead);
    report.set(
        "shard.events_per_s",
        plain.sharded.fp.dispatched as f64 / plain.sharded.run_s,
    );
    l.report_sim_layers(&mut report, events);
    report.set("net.topology_build_s", p.topology_s);
    report.set("dynamic.view_build_s", p.view_s);
    report.set("dynamic.link_changes", p.link_changes as f64);
    report.set("trace.overhead_frac", traced_s / plain_s - 1.0);
    report.set("trace.unattributed_frac", ledger.unattributed_frac());
    report
}
