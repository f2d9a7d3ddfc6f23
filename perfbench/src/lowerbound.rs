//! `lowerbound-line257`: the paper's main result. Theorem 8.1's iterated
//! construction (`MainTheorem::practical(257, ρ = 0.5)`) against the
//! gradient algorithm: a recorded nominal run, then per round Add Skew,
//! a replay through the `ArriveAtHw` path, and an indistinguishability
//! check of the replayed prefix.
//!
//! The construction has no random input (nominal rates and delays are
//! part of the theorem), so every seed runs the same construction.

use std::time::Instant;

use gcs_algorithms::{AlgorithmKind, SyncMsg};
use gcs_clocks::{DriftBound, EagerSchedule, RateSchedule};
use gcs_core::indist::prefix_distinctions;
use gcs_core::lower_bound::{
    AddSkew, AddSkewParams, MainTheorem, MainTheoremConfig, MainTheoremReport, RoundReport,
};
use gcs_core::replay::replay_execution;
use gcs_net::{FixedFractionDelay, Topology};
use gcs_sim::{Execution, Node, NodeId, SimulationBuilder};

use crate::ledger::{Layers, Ledger};
use crate::{median, peak_rss_mib, secs, Args, Report};

const NODES: usize = 257;
const ROUNDS: usize = 4;
/// Set-ups timed per pass; one set-up is about a millisecond.
const SETUPS_PER_PASS: usize = 25;

fn config() -> MainTheoremConfig {
    MainTheoremConfig::practical(NODES, DriftBound::new(0.5).expect("valid rho"))
}

fn make(id: NodeId, n: usize) -> Box<dyn Node<SyncMsg> + Send> {
    AlgorithmKind::Gradient {
        period: 1.0,
        kappa: 0.5,
    }
    .build(id, n)
}

/// Seconds to build the simulation the construction starts from: the
/// nominal line (rate-1 clocks, half-distance delays) with its nodes.
fn setup_once() -> f64 {
    let t0 = Instant::now();
    let topology = Topology::line(NODES);
    let sim = SimulationBuilder::new(topology.clone())
        .schedules(vec![RateSchedule::constant(1.0); NODES])
        .delay_policy(FixedFractionDelay::for_topology(&topology, 0.5))
        .build_with(make)
        .expect("the nominal line builds");
    let s = secs(t0);
    drop(std::hint::black_box(sim));
    s
}

/// The theorem's invariants: four rounds, every replayed prefix exact,
/// and every Add Skew gain at least `n_k / 12`.
fn check(report: &MainTheoremReport) -> bool {
    report.rounds.len() == ROUNDS
        && report.final_adjacent_skew > 0.0
        && report
            .rounds
            .iter()
            .all(|r| r.prefix_ok && r.add_skew_gain >= r.span as f64 / 12.0 - 1e-9)
}

fn replayed_events(report: &MainTheoremReport) -> usize {
    report.rounds.iter().map(|r| r.events).sum()
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced();
    }
    let start = Instant::now();
    let mut report = Report::default();
    let (mut setup, mut eps, mut op) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss = f64::NAN;
    let mut last = 0.0;
    while report.attempted == 0 || secs(start) + last <= args.seconds.as_secs_f64() {
        let setups: Vec<f64> = (0..SETUPS_PER_PASS).map(|_| setup_once()).collect();
        setup.push(median(&setups));
        let t0 = Instant::now();
        let outcome = MainTheorem::new(config()).run(make);
        last = secs(t0);
        let ok = outcome.as_ref().is_ok_and(check);
        report.op(ok);
        if report.attempted == 1 {
            rss = peak_rss_mib();
        }
        let events = outcome.as_ref().map_or(0, replayed_events);
        eps.push(events as f64 / last);
        op.push(last * 1e3);
        match &outcome {
            Ok(r) => println!("construction {}: {r}; {last:.3} s", report.attempted),
            Err(e) => eprintln!("lowerbound-line257: construction failed: {e}"),
        }
    }
    report.set("setup_s", median(&setup));
    report.set("events_per_s", median(&eps));
    report.set("op_p50_ms", median(&op));
    report.set("peak_rss_mib", rss);
    report
}

/// Stage spans of one re-driven construction.
#[derive(Default)]
struct Stages {
    nominal_s: f64,
    add_skew_s: f64,
    replay_s: f64,
    prefix_s: f64,
    measure_s: f64,
    nominal_events: usize,
}

/// `MainTheorem::run`, re-driven through the same public stage calls
/// (`AddSkew::apply`, `replay_execution`, `indist::prefix_distinctions`)
/// with a span around each and decorated nodes, delays and clocks.
/// Kept step for step in line with `MainTheorem::run`; the caller
/// asserts the round reports are bit-identical.
fn redrive(layers: &Layers) -> (Vec<RoundReport>, Stages) {
    let cfg = config();
    let mut st = Stages::default();
    let traced_make = |id: NodeId, n: usize| layers.node(make(id, n), id);
    let d = cfg.nodes;
    let tau = cfg.bound.tau();

    let t0 = Instant::now();
    let topology = Topology::line(d);
    let max_neighbor_dist = (0..d)
        .flat_map(|i| {
            let t = &topology;
            t.neighbors(i)
                .into_iter()
                .map(move |j| t.distance(i, j))
                .collect::<Vec<_>>()
        })
        .fold(0.0_f64, f64::max);
    let n0 = d - 1;
    let horizon0 = tau * n0 as f64;
    let mut alpha: Execution<SyncMsg> = SimulationBuilder::new(topology.clone())
        .drift_source(layers.clock(EagerSchedule::new(vec![RateSchedule::constant(1.0); d])))
        .delay_policy(layers.delay(FixedFractionDelay::for_topology(&topology, 0.5)))
        .build_with(traced_make)
        .expect("the nominal line builds")
        .execute_until(horizon0);
    st.nominal_events = alpha.events().len();
    st.nominal_s = secs(t0);

    let t0 = Instant::now();
    let s0 = alpha.skew(0, d - 1, horizon0);
    let (mut fast, mut slow) = if s0 >= 0.0 { (0, d - 1) } else { (d - 1, 0) };
    let mut span = n0;
    let mut ell = horizon0;
    let add_skew = AddSkew::new(cfg.bound);
    let mut rounds = Vec::new();
    st.measure_s += secs(t0);

    for k in 0..cfg.max_rounds {
        let t0 = Instant::now();
        let next_span = (span as f64 / cfg.shrink).floor() as usize;
        if next_span < 1 {
            st.measure_s += secs(t0);
            break;
        }
        let skew_start = alpha.skew(fast, slow, ell);
        let start = ell - tau * span as f64;
        st.measure_s += secs(t0);

        let t0 = Instant::now();
        let outcome = add_skew
            .apply(&alpha, AddSkewParams::window(fast, slow, start))
            .expect("Add Skew applies");
        let beta = outcome.transformed;
        st.add_skew_s += secs(t0);

        let t0 = Instant::now();
        let t_prime = beta.horizon();
        let skew_after_transform = beta.skew(fast, slow, t_prime);
        let extension =
            tau * next_span as f64 * cfg.extension_factor + cfg.drain_pad * max_neighbor_dist;
        let t_next = t_prime + extension;
        st.measure_s += secs(t0);

        let t0 = Instant::now();
        let replayed = replay_execution(
            &beta,
            t_next,
            Box::new(layers.delay(FixedFractionDelay::for_topology(&topology, 0.5))),
            traced_make,
        )
        .expect("the replay builds");
        st.replay_s += secs(t0);

        let t0 = Instant::now();
        let prefix_ok = if cfg.fidelity_check {
            prefix_distinctions(&beta, &replayed, 0.0).is_empty()
        } else {
            true
        };
        st.prefix_s += secs(t0);

        let t0 = Instant::now();
        let skew_after_extension = replayed.skew(fast, slow, t_next);
        let lo = fast.min(slow);
        let hi = fast.max(slow);
        let mut best_pair = (lo, lo + next_span);
        let mut best_directed = f64::NEG_INFINITY;
        for a in lo..=(hi - next_span) {
            let b = a + next_span;
            let s = replayed.skew(a, b, t_next);
            if s.abs() > best_directed.abs() || best_directed == f64::NEG_INFINITY {
                best_directed = s;
                best_pair = if s >= 0.0 { (a, b) } else { (b, a) };
            }
        }
        let mut best_adjacent = 0.0_f64;
        for a in 0..(d - 1) {
            best_adjacent = best_adjacent.max(replayed.skew(a, a + 1, t_next).abs());
        }
        rounds.push(RoundReport {
            k,
            pair: (fast, slow),
            span,
            skew_start,
            add_skew_gain: outcome.report.gain,
            skew_after_transform,
            skew_after_extension,
            next_pair: best_pair,
            next_pair_skew: best_directed,
            best_adjacent_skew: best_adjacent,
            paper_adjacent_guarantee: (k as f64 + 1.0) / 24.0,
            prefix_ok,
            events: replayed.events().len(),
        });
        alpha = replayed;
        ell = t_next;
        fast = best_pair.0;
        slow = best_pair.1;
        span = next_span;
        st.measure_s += secs(t0);
    }
    (rounds, st)
}

/// Every field of a round report, as bits.
fn digest(r: &RoundReport) -> Vec<u64> {
    let mut v = vec![
        r.k as u64,
        r.pair.0 as u64,
        r.pair.1 as u64,
        r.span as u64,
        r.next_pair.0 as u64,
        r.next_pair.1 as u64,
        u64::from(r.prefix_ok),
        r.events as u64,
    ];
    v.extend(
        [
            r.skew_start,
            r.add_skew_gain,
            r.skew_after_transform,
            r.skew_after_extension,
            r.next_pair_skew,
            r.best_adjacent_skew,
            r.paper_adjacent_guarantee,
        ]
        .map(f64::to_bits),
    );
    v
}

/// One `MainTheorem::run`, then the re-driven construction through the
/// decorators; their round reports must be bit-identical.
fn traced() -> Report {
    let mut report = Report::default();
    let t0 = Instant::now();
    let plain = MainTheorem::new(config()).run(make);
    let plain_s = secs(t0);
    report.op(plain.as_ref().is_ok_and(check));

    let layers = Layers::default();
    let t0 = Instant::now();
    let (rounds, st) = redrive(&layers);
    let traced_s = secs(t0);
    let same = plain.as_ref().is_ok_and(|p| {
        p.rounds.len() == rounds.len()
            && p.rounds
                .iter()
                .zip(&rounds)
                .all(|(a, b)| digest(a) == digest(b))
    });
    if !same {
        eprintln!("lowerbound-line257: re-driven round reports differ from MainTheorem::run");
    }

    let mut ledger = Ledger::new("lowerbound-line257 (re-driven construction)", traced_s);
    let sim_span = st.nominal_s + st.replay_s;
    let engine = ledger.run_rows(
        "sim.engine (nominal+replay)",
        sim_span,
        layers.rows("", 1.0),
    );
    ledger.row("core.add_skew", st.add_skew_s);
    ledger.row("core.prefix_check", st.prefix_s);
    ledger.row("core.measure", st.measure_s);
    print!("{}", ledger.render());
    report.op(same && ledger.reconciles());

    let replayed: usize = rounds.iter().map(|r| r.events).sum();
    let events = (st.nominal_events + replayed) as f64;
    report.set("sim.self_ns_per_event", engine * 1e9 / events);
    layers.report_sim_layers(&mut report, events);
    report.set("core.nominal_s", st.nominal_s);
    report.set("core.add_skew_s", st.add_skew_s);
    report.set("core.replay_s", st.replay_s);
    report.set("core.prefix_check_s", st.prefix_s);
    report.set("core.replayed_events", replayed as f64);
    report.set("trace.overhead_frac", traced_s / plain_s - 1.0);
    report.set("trace.unattributed_frac", ledger.unattributed_frac());
    report
}
