//! The gradient clock synchronization workspace's benchmark harness: the
//! workload bodies, the tracked rows, and the `bench_json` binary that
//! measures them and gates CI on them.
//!
//! [`workloads`] holds the benchmark bodies; [`tracked`] names the rows
//! `bench_json` measures, one `suite/name` id each (`substrate/*`,
//! `engine/*`, `core/*`, `retiming/*`, `serving/*`, ...). The gate works
//! like golden snapshots, but for time:
//!
//! ```text
//! # measure one family (any id substring) and print the report
//! cargo run --release -p gcs-bench --bin bench_json -- --filter core/ --out -
//!
//! # measure every row (quick mode) and emit machine-readable medians
//! cargo run --release -p gcs-bench --bin bench_json -- --out BENCH_PR10.json
//!
//! # fail if any baseline row regressed >25% (or is missing)
//! cargo run --release -p gcs-bench --bin bench_json -- \
//!     --check BENCH_baseline.json BENCH_PR10.json --tolerance 0.25
//!
//! # re-bless the baseline after an intentional perf change
//! cargo run --release -p gcs-bench --bin bench_json -- --out BENCH_baseline.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod workloads {
    //! Benchmark workload bodies: one iteration of each tracked row.

    use gcs_algorithms::AlgorithmKind;
    use gcs_clocks::{drift::DriftModel, DriftBound, LazyDriftSource, RateSchedule, TimeWarp};
    use gcs_core::lower_bound::bounded_increase::{SpeedUp, SpeedUpOutcome};
    use gcs_core::lower_bound::{
        AddSkew, AddSkewOutcome, AddSkewParams, MainTheorem, MainTheoremConfig,
    };
    use gcs_core::replay::{nominal_fallback, replay_execution};
    use gcs_core::retiming::{Retiming, RetimingReport};
    use gcs_dynamic::{ChurnSchedule, DynamicTopology};
    use gcs_net::{Topology, UniformDelay};
    use gcs_sim::{
        observe_execution, AdjacentSkewObserver, Execution, GlobalSkewObserver,
        GradientProfileObserver, SimProfile, SimStats, Simulation, SimulationBuilder,
    };
    use gcs_timed::{
        wire, ClockSample, LoadGen, LoadGenReport, ServerConfig, Snapshot, TimeService,
        TimedParams, TimedServer,
    };

    /// The standard drift model every workload uses (2% bound,
    /// re-sampled every 10 time units).
    #[must_use]
    pub fn drift_model() -> DriftModel {
        let rho = DriftBound::new(0.02).expect("valid rho");
        DriftModel::new(rho, 10.0, 0.005)
    }

    /// A max-sync run on a line of `n` with eager random-walk drift —
    /// the engine-throughput workload.
    #[must_use]
    pub fn line_max_run(n: usize, horizon: f64) -> Execution<gcs_algorithms::SyncMsg> {
        SimulationBuilder::new(Topology::line(n))
            .schedules(drift_model().generate_network(1, n, horizon))
            .build_with(|id, nn| AlgorithmKind::Max { period: 1.0 }.build(id, nn))
            .unwrap()
            .execute_until(horizon)
    }

    fn gradient_ring(n: usize, horizon: f64, record: bool) -> Simulation<gcs_algorithms::SyncMsg> {
        SimulationBuilder::new(Topology::ring(n))
            .schedules(drift_model().generate_network(7, n, horizon))
            .record_events(record)
            .build_with(|id, nn| {
                AlgorithmKind::Gradient {
                    period: 1.0,
                    kappa: 0.5,
                }
                .build(id, nn)
            })
            .unwrap()
    }

    /// Streaming metric run (recording off, observers attached) on a
    /// gradient ring.
    #[must_use]
    pub fn streaming_ring_metrics(n: usize, horizon: f64) -> (f64, f64, usize) {
        let mut sim = gradient_ring(n, horizon, false);
        sim.set_probe_schedule(0.0, 1.0);
        let mut global = GlobalSkewObserver::new();
        let mut adjacent = AdjacentSkewObserver::new(1.0);
        let mut profile = GradientProfileObserver::new();
        sim.run_until_observed(horizon, &mut [&mut global, &mut adjacent, &mut profile]);
        (global.worst(), adjacent.worst(), profile.rows().len())
    }

    /// The streaming metric run with the engine's wall-clock phase
    /// profiler armed — the source of the `profile/*` rows in
    /// `bench_json`. Returns the per-phase report.
    ///
    /// # Panics
    ///
    /// Panics if the engine fails to produce a profile report despite
    /// profiling being armed (an engine bug).
    #[must_use]
    pub fn profiled_streaming_ring(n: usize, horizon: f64) -> SimProfile {
        let mut sim = SimulationBuilder::new(Topology::ring(n))
            .schedules(drift_model().generate_network(7, n, horizon))
            .record_events(false)
            .profile(true)
            .build_with(|id, nn| {
                AlgorithmKind::Gradient {
                    period: 1.0,
                    kappa: 0.5,
                }
                .build(id, nn)
            })
            .unwrap();
        sim.set_probe_schedule(0.0, 1.0);
        let mut global = GlobalSkewObserver::new();
        sim.run_until_observed(horizon, &mut [&mut global]);
        sim.profile_report().expect("profiling was armed")
    }

    /// The pre-redesign workflow: record everything, then replay the
    /// observers over the execution.
    #[must_use]
    pub fn recorded_ring_metrics(n: usize, horizon: f64) -> (f64, f64, usize) {
        let exec = gradient_ring(n, horizon, true).execute_until(horizon);
        let mut global = GlobalSkewObserver::new();
        let mut adjacent = AdjacentSkewObserver::new(1.0);
        let mut profile = GradientProfileObserver::new();
        observe_execution(
            &exec,
            0.0,
            1.0,
            &mut [&mut global, &mut adjacent, &mut profile],
        );
        (global.worst(), adjacent.worst(), profile.rows().len())
    }

    /// A dynamic-gradient ring run, optionally churned — the
    /// dynamic-engine hot-path workload. Returns the event count.
    #[must_use]
    pub fn dynamic_ring_run(n: usize, horizon: f64, churn: Option<ChurnSchedule>) -> usize {
        let kind = AlgorithmKind::DynamicGradient {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: 20.0,
        };
        let mut builder = match churn {
            Some(schedule) => {
                let view = DynamicTopology::new(Topology::ring(n), schedule).expect("valid churn");
                SimulationBuilder::new_dynamic(view)
            }
            None => SimulationBuilder::new(Topology::ring(n)),
        };
        builder = builder.schedules(drift_model().generate_network(1, n, horizon));
        builder
            .build_with(|id, nn| kind.build(id, nn))
            .unwrap()
            .execute_until(horizon)
            .events()
            .len()
    }

    fn streaming_gradient_ring(
        n: usize,
        horizon: f64,
        lazy: bool,
    ) -> Simulation<gcs_algorithms::SyncMsg> {
        let mut builder = SimulationBuilder::new(Topology::ring(n))
            .delay_policy(UniformDelay::new(0.25, 0.75, 99))
            .record_events(false);
        builder = if lazy {
            builder
                .drift_source(LazyDriftSource::new(drift_model(), 7, n).with_walk_horizon(horizon))
        } else {
            builder.schedules(drift_model().generate_network(7, n, horizon))
        };
        builder
            .build_with(|id, nn| {
                AlgorithmKind::Gradient {
                    period: 1.0,
                    kappa: 0.5,
                }
                .build(id, nn)
            })
            .unwrap()
    }

    /// Long-horizon streaming run on a gradient ring with the *lazy*
    /// drift source (the tentpole workload: O(1) live schedule
    /// segments). Returns the final footprint counters.
    #[must_use]
    pub fn lazy_streaming_ring(n: usize, horizon: f64) -> SimStats {
        let mut sim = streaming_gradient_ring(n, horizon, true);
        sim.set_probe_schedule(0.0, 1.0);
        let mut global = GlobalSkewObserver::new();
        sim.run_until_observed(horizon, &mut [&mut global]);
        sim.stats()
    }

    /// The same run as [`lazy_streaming_ring`] but with the eager
    /// precomputed schedule vector — the baseline the lazy source is
    /// benchmarked against.
    #[must_use]
    pub fn eager_streaming_ring(n: usize, horizon: f64) -> SimStats {
        let mut sim = streaming_gradient_ring(n, horizon, false);
        sim.set_probe_schedule(0.0, 1.0);
        let mut global = GlobalSkewObserver::new();
        sim.run_until_observed(horizon, &mut [&mut global]);
        sim.stats()
    }

    /// A streaming max-sync ring run through the *single-heap* engine —
    /// the baseline the `engine/sharded_*` rows are compared against.
    /// Returns the dispatched-event count.
    #[must_use]
    pub fn singleheap_ring_run(n: usize, horizon: f64) -> u64 {
        let mut sim = SimulationBuilder::new(Topology::ring(n))
            .schedules(drift_model().generate_network(1, n, horizon))
            .delay_policy(UniformDelay::new(0.25, 0.75, 99))
            .record_events(false)
            .build_with(|id, nn| AlgorithmKind::Max { period: 1.0 }.build(id, nn))
            .unwrap();
        sim.run_until(horizon);
        sim.stats().dispatched
    }

    /// The same ring run dispatched through the sharded conservative-window
    /// engine ([`gcs_sim::ShardedSimulation`]) at the given shard count.
    /// Returns the dispatched-event count (bit-identical to the
    /// single-heap run by the engine's determinism contract).
    #[must_use]
    pub fn sharded_ring_run(n: usize, horizon: f64, shards: usize) -> u64 {
        let mut sim = SimulationBuilder::new(Topology::ring(n))
            .schedules(drift_model().generate_network(1, n, horizon))
            .delay_policy(UniformDelay::new(0.25, 0.75, 99))
            .record_events(false)
            .shards(shards)
            .build_sharded_with(|id, nn| AlgorithmKind::Max { period: 1.0 }.build(id, nn))
            .unwrap();
        sim.run_until(horizon);
        sim.dispatched()
    }

    /// A churned dynamic-gradient ring streamed through the single-heap
    /// engine — the `algorithms/dynamic_gradient_sparse_*` row. The hot
    /// path is the node's sparse O(degree) formation map: one binary
    /// search per received message plus edge-event upkeep under churn.
    /// Returns the dispatched-event count.
    #[must_use]
    pub fn dynamic_gradient_sparse_run(n: usize, horizon: f64) -> u64 {
        let churn =
            ChurnSchedule::random_churn(&Topology::ring(n).neighbor_edges(), 0.2, horizon, 7);
        let view = DynamicTopology::new(Topology::ring(n), churn).expect("valid churn");
        let kind = AlgorithmKind::DynamicGradient {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: 20.0,
        };
        let mut sim = SimulationBuilder::new_dynamic(view)
            .schedules(drift_model().generate_network(1, n, horizon))
            .record_events(false)
            .build_with(|id, nn| kind.build(id, nn))
            .unwrap();
        sim.run_until(horizon);
        sim.stats().dispatched
    }

    /// Experiment E15's churned random-geometric network at `n` nodes,
    /// streaming, with constant spread rates (so a sharded clock source
    /// forks O(1) state per shard). `random_geometric` normalizes the
    /// closest pair to distance 1, so the radius, the broadcast period
    /// and the horizon are sized in those units.
    fn rgg_churn(n: usize) -> SimulationBuilder {
        let (extent, radius, seed) = (1000.0, 500.0, 42);
        let view = DynamicTopology::new(
            Topology::random_geometric(n, extent, radius, seed),
            ChurnSchedule::periodic_flap(0, 1, RGG_PERIOD, RGG_HORIZON),
        )
        .expect("valid churn");
        let rho = DriftBound::new(0.01).expect("valid rho");
        SimulationBuilder::new_dynamic(view)
            .schedules(gcs_clocks::drift::spread_rates(rho, n))
            .delay_policy(UniformDelay::new(0.3, 0.9, seed))
            .record_events(false)
    }

    /// Broadcast period and horizon of the [`rgg_churn`] workloads.
    const RGG_PERIOD: f64 = 40.0;
    const RGG_HORIZON: f64 = 200.0;

    /// The E15 workload at `n` nodes through the single-heap engine.
    /// Returns the dispatched-event count, so callers can report ns/event
    /// rather than ns/run.
    #[must_use]
    pub fn singleheap_rgg_run(n: usize) -> u64 {
        let mut sim = rgg_churn(n)
            .build_with(|id, nn| AlgorithmKind::Max { period: RGG_PERIOD }.build(id, nn))
            .unwrap();
        sim.run_until(RGG_HORIZON);
        sim.stats().dispatched
    }

    /// The E15 workload at `n` nodes through the sharded engine at the
    /// given shard count. Returns the dispatched-event count.
    #[must_use]
    pub fn sharded_rgg_run(n: usize, shards: usize) -> u64 {
        let mut sim = rgg_churn(n)
            .shards(shards)
            .build_sharded_with(|id, nn| AlgorithmKind::Max { period: RGG_PERIOD }.build(id, nn))
            .unwrap();
        sim.run_until(RGG_HORIZON);
        sim.dispatched()
    }

    /// Theorem 8.1's construction (`MainTheoremConfig::practical`, ρ =
    /// 0.5) on a line of `n` nodes against max-sync, with every round's
    /// replayed prefix checked for exactness. Returns the number of rounds.
    #[must_use]
    pub fn main_theorem_run(n: usize) -> usize {
        let report = MainTheorem::new(MainTheoremConfig::practical(n, lower_bound_rho()))
            .run(|id, nn| AlgorithmKind::Max { period: 1.0 }.build(id, nn))
            .expect("the construction runs");
        assert!(
            report.rounds.iter().all(|r| r.prefix_ok),
            "a replayed prefix diverged from its prediction"
        );
        report.rounds.len()
    }

    /// A nominal-rate max-sync run on a line of `n` — the retiming
    /// workloads' source execution (rate 1 keeps the transform's
    /// preconditions trivial and the timing dominated by the engine).
    #[must_use]
    pub fn nominal_line_run(n: usize, horizon: f64) -> Execution<gcs_algorithms::SyncMsg> {
        SimulationBuilder::new(Topology::line(n))
            .schedules(vec![RateSchedule::constant(1.0); n])
            .build_with(|id, nn| AlgorithmKind::Max { period: 1.0 }.build(id, nn))
            .unwrap()
            .execute_until(horizon)
    }

    /// The drift bound of the lower-bound workloads (ρ = 0.5, as in the
    /// paper-pipeline experiments E3–E5).
    fn lower_bound_rho() -> DriftBound {
        DriftBound::new(0.5).expect("valid rho")
    }

    /// Lemma 6.1's Add Skew on a nominal line of `n` nodes: a nominal
    /// max-sync run just long enough for the end-to-end window (`τ·(n-1)`),
    /// then `AddSkew::apply` between the two ends of the line.
    ///
    /// # Panics
    ///
    /// Panics if the transformation rejects the nominal run (a
    /// `gcs-core` bug: the run meets the lemma's preconditions).
    #[must_use]
    pub fn add_skew_line(n: usize) -> AddSkewOutcome<gcs_algorithms::SyncMsg> {
        let rho = lower_bound_rho();
        let alpha = nominal_line_run(n, rho.tau() * (n as f64 - 1.0));
        AddSkew::new(rho)
            .apply(&alpha, AddSkewParams::suffix(0, n - 1))
            .expect("the nominal run admits Add Skew")
    }

    /// [`add_skew_line`] followed by the exact replay of the transformed
    /// execution, extended 10 time units past its horizon under the
    /// nominal delay fallback — the replay step of each main-theorem
    /// round. Returns the replayed execution.
    ///
    /// # Panics
    ///
    /// Panics if the replay fails (an engine or `gcs-core` bug).
    #[must_use]
    pub fn replay_extend_line(n: usize) -> Execution<gcs_algorithms::SyncMsg> {
        let beta = add_skew_line(n).transformed;
        replay_execution(
            &beta,
            beta.horizon() + 10.0,
            nominal_fallback(beta.topology()),
            |id, nn| AlgorithmKind::Max { period: 1.0 }.build(id, nn),
        )
        .expect("the transformed execution replays")
    }

    /// Lemma 7.1's speed-up, as in E4: a max-sync run on a line of `n`
    /// whose hardware rates spread over `[1, 1+ρ/2]` (the lemma's
    /// preconditions), then `SpeedUp::apply` at the middle node with the
    /// window ending at 60% of the horizon.
    ///
    /// # Panics
    ///
    /// Panics if the transformation rejects the run or produces an
    /// invalid execution (a `gcs-core` bug).
    #[must_use]
    pub fn bounded_increase_line(
        n: usize,
        horizon: f64,
    ) -> SpeedUpOutcome<gcs_algorithms::SyncMsg> {
        let rho = lower_bound_rho();
        let schedules = (0..n)
            .map(|i| RateSchedule::constant(1.0 + rho.rho() / 2.0 * (i as f64 / (n - 1) as f64)))
            .collect();
        let alpha = SimulationBuilder::new(Topology::line(n))
            .schedules(schedules)
            .build_with(|id, nn| AlgorithmKind::Max { period: 1.0 }.build(id, nn))
            .unwrap()
            .execute_until(horizon);
        let outcome = SpeedUp::new(rho)
            .apply(&alpha, n / 2, (horizon * 0.6).max(rho.tau()))
            .expect("the run meets Lemma 7.1's preconditions");
        assert!(
            outcome.report.validation.is_valid(),
            "the sped-up execution left the model"
        );
        outcome
    }

    /// A nominal-rate max-sync run on a churning ring (one edge flapping)
    /// — the dynamic retiming workload's source execution.
    #[must_use]
    pub fn nominal_churned_ring_run(n: usize, horizon: f64) -> Execution<gcs_algorithms::SyncMsg> {
        let view = DynamicTopology::new(
            Topology::ring(n),
            ChurnSchedule::periodic_flap(0, 1, 10.0, horizon),
        )
        .expect("valid churn");
        SimulationBuilder::new_dynamic(view)
            .schedules(vec![RateSchedule::constant(1.0); n])
            .build_with(|id, nn| AlgorithmKind::Max { period: 1.0 }.build(id, nn))
            .unwrap()
            .execute_until(horizon)
    }

    /// Applies a mild late-run speed-up retiming to a static execution and
    /// validates the transform — the static `Retiming::apply` +
    /// `Retiming::validate` hot path the CI gate tracks.
    #[must_use]
    pub fn static_retiming_apply_validate(
        exec: &Execution<gcs_algorithms::SyncMsg>,
    ) -> (usize, RetimingReport) {
        let n = exec.node_count();
        let horizon = exec.horizon();
        let schedules = (0..n)
            .map(|k| {
                if k % 2 == 0 {
                    RateSchedule::builder(1.0)
                        .rate_from(horizon * 0.75, 1.01)
                        .build()
                } else {
                    RateSchedule::constant(1.0)
                }
            })
            .collect();
        let retiming = Retiming::new(schedules, horizon);
        let transformed = retiming.apply(exec);
        let topo = exec.topology();
        let report =
            retiming.validate(&transformed, DriftBound::new(0.05).expect("rho"), |i, j| {
                (0.0, topo.distance(i, j))
            });
        (transformed.events().len(), report)
    }

    /// Applies a uniform churn-aware speed-up (schedules at γ, churn
    /// timeline warped by 1/γ) to a dynamic execution and validates it —
    /// the dynamic `apply` + `validate` hot path, exercising the warp,
    /// the per-run k-way merge, the link-liveness scan, and the
    /// change-endpoint synchronization check.
    #[must_use]
    pub fn dynamic_retiming_apply_validate(
        exec: &Execution<gcs_algorithms::SyncMsg>,
    ) -> (usize, RetimingReport) {
        let n = exec.node_count();
        let gamma = 1.02;
        let retiming = Retiming::new(
            vec![RateSchedule::constant(gamma); n],
            exec.horizon() / gamma,
        )
        .with_warp(TimeWarp::uniform(1.0 / gamma));
        let transformed = retiming.apply(exec);
        let topo = exec.topology();
        let report =
            retiming.validate(&transformed, DriftBound::new(0.05).expect("rho"), |i, j| {
                (0.0, topo.distance(i, j))
            });
        (transformed.events().len(), report)
    }

    /// A 200-segment schedule for the schedule-arithmetic workloads.
    #[must_use]
    pub fn dense_schedule() -> RateSchedule {
        let mut b = RateSchedule::builder(1.0);
        for k in 1..200 {
            b = b.rate_from(k as f64, 1.0 + 0.001 * (k % 7) as f64);
        }
        b.build()
    }

    /// A batch of exact schedule evaluations + inversions (the engine's
    /// innermost arithmetic). Returns a checksum so the optimizer cannot
    /// discard the work.
    #[must_use]
    pub fn schedule_math_batch(schedule: &RateSchedule, evals: usize) -> f64 {
        let mut acc = 0.0;
        for k in 0..evals {
            let t = (k % 199) as f64 + 0.5;
            let v = schedule.value_at(t);
            acc += schedule.time_at_value(v);
        }
        acc
    }

    /// An in-process serving run: a [`TimeService`] over a gradient ring,
    /// sealing one epoch per simulated second up to `horizon` — the
    /// snapshot-sealing hot path (probe sampling, radius budgeting, the
    /// Marzullo intersection, watermarking). Returns the seal count and
    /// the final snapshot's canonical encoding.
    #[must_use]
    pub fn serving_seal_run(n: usize, horizon: f64) -> (u64, Vec<u8>) {
        let mut svc = TimeService::with_sim(
            gradient_ring(n, horizon, false),
            TimedParams {
                seal_every: 1.0,
                rho: 0.02,
                ..TimedParams::default()
            },
        );
        svc.advance_to(horizon);
        (svc.stats().seals, svc.snapshot().encode())
    }

    /// A batch of serving read-path iterations against a sealed snapshot:
    /// template copy, 8-byte `req_id` patch, frame decode, payload decode
    /// — the daemon's per-request work without the kernel in the way.
    /// Returns a checksum so the optimizer cannot discard the work.
    ///
    /// # Panics
    ///
    /// Panics if the hand-built snapshot fails to seal (a `gcs-timed`
    /// bug: all samples overlap, so quorum coverage is guaranteed).
    #[must_use]
    pub fn serving_frame_batch(n: usize, reads: usize) -> u64 {
        let genesis = Snapshot::genesis(n);
        let samples = (0..n)
            .map(|node| ClockSample {
                node,
                reading: 100.0 + node as f64 * 1e-3,
                radius: 0.05,
            })
            .collect();
        let snap = Snapshot::seal(1, 100.0, n / 2 + 1, samples, &genesis).expect("samples overlap");
        let mut template = Vec::new();
        wire::encode_frame(
            wire::op::READ_INTERVAL,
            0,
            &wire::interval_payload(&snap),
            &mut template,
        );
        let mut buf = Vec::with_capacity(template.len());
        let mut acc = 0u64;
        for req in 0..reads {
            buf.clear();
            buf.extend_from_slice(&template);
            wire::patch_req_id(&mut buf, 0, req as u64);
            let wire::Decoded::Frame(frame) = wire::decode_frame(&buf) else {
                unreachable!("template frames always decode")
            };
            let read = wire::decode_interval(frame.payload).expect("interval payload");
            acc = acc.wrapping_add(frame.req_id ^ read.epoch);
        }
        acc
    }

    /// Spawns a loopback `gcs-timed` daemon and runs the closed-loop
    /// load generator against it — the end-to-end serving workload
    /// behind the `serving/loopback_*` bench rows (requests/sec and tail
    /// latency over real TCP).
    ///
    /// # Panics
    ///
    /// Panics if the daemon cannot bind loopback, or if the load run
    /// sees request errors, monotonicity violations, or zero completed
    /// requests — a noisy number is tolerable, a wrong one is not.
    #[must_use]
    pub fn loopback_loadgen(clients: usize, duration: std::time::Duration) -> LoadGenReport {
        let horizon = 300.0;
        let handle = TimedServer::spawn(
            "127.0.0.1:0",
            ServerConfig {
                pace: 200.0,
                horizon,
                ..ServerConfig::default()
            },
            move || {
                TimeService::with_sim(
                    gradient_ring(8, horizon, false),
                    TimedParams {
                        rho: 0.02,
                        ..TimedParams::default()
                    },
                )
            },
        )
        .expect("bind loopback");
        let report = LoadGen {
            addr: handle.addr().to_string(),
            clients,
            duration,
        }
        .run();
        let server = handle.shutdown();
        assert!(
            report.requests > 0,
            "loopback load run completed no request"
        );
        assert_eq!(report.errors, 0, "loopback load run saw request errors");
        assert_eq!(report.monotonicity_violations, 0, "reads went backward");
        assert_eq!(server.errors, 0, "daemon observed protocol errors");
        report
    }
}

pub mod tracked {
    //! The benchmark subset the CI performance gate tracks.

    use super::workloads;

    /// A named benchmark the gate tracks: `run` performs one complete
    /// iteration of the workload.
    pub struct TrackedBench {
        /// Stable identifier (`suite/name`), the JSON key.
        pub id: &'static str,
        /// One iteration of the workload, returning the count the row's
        /// time is divided by: the dispatched events for an
        /// `_ns_per_event` row, 1 for every other row.
        pub run: fn() -> u64,
    }

    /// Every tracked benchmark, in reporting order. Keep ids stable:
    /// they key `BENCH_baseline.json`, and renaming one silently drops
    /// it from the gate until the baseline is re-blessed.
    #[must_use]
    pub fn all() -> Vec<TrackedBench> {
        vec![
            TrackedBench {
                id: "substrate/engine_line64_max_100t",
                run: || {
                    std::hint::black_box(workloads::line_max_run(64, 100.0));
                    1
                },
            },
            TrackedBench {
                id: "substrate/schedule_math_10k",
                run: || {
                    let schedule = workloads::dense_schedule();
                    std::hint::black_box(workloads::schedule_math_batch(&schedule, 10_000));
                    1
                },
            },
            TrackedBench {
                id: "engine/singleheap_ring64_100t",
                run: || {
                    std::hint::black_box(workloads::singleheap_ring_run(64, 100.0));
                    1
                },
            },
            TrackedBench {
                id: "engine/singleheap_rgg1k_ns_per_event",
                run: || workloads::singleheap_rgg_run(1_000),
            },
            TrackedBench {
                id: "engine/singleheap_rgg10k_ns_per_event",
                run: || workloads::singleheap_rgg_run(10_000),
            },
            TrackedBench {
                id: "engine/sharded_ring64_k4_100t",
                run: || {
                    std::hint::black_box(workloads::sharded_ring_run(64, 100.0, 4));
                    1
                },
            },
            TrackedBench {
                id: "algorithms/dynamic_gradient_sparse_ring64_200t",
                run: || {
                    std::hint::black_box(workloads::dynamic_gradient_sparse_run(64, 200.0));
                    1
                },
            },
            TrackedBench {
                id: "observers/streaming_ring32_200t",
                run: || {
                    std::hint::black_box(workloads::streaming_ring_metrics(32, 200.0));
                    1
                },
            },
            TrackedBench {
                id: "observers/recorded_posthoc_ring32_200t",
                run: || {
                    std::hint::black_box(workloads::recorded_ring_metrics(32, 200.0));
                    1
                },
            },
            TrackedBench {
                id: "dynamic/ring16_churned_100t",
                run: || {
                    let churn = gcs_dynamic::ChurnSchedule::random_churn(
                        &gcs_net::Topology::ring(16).neighbor_edges(),
                        0.2,
                        100.0,
                        7,
                    );
                    std::hint::black_box(workloads::dynamic_ring_run(16, 100.0, Some(churn)));
                    1
                },
            },
            TrackedBench {
                id: "clocks/lazy_streaming_ring16_1000t",
                run: || {
                    std::hint::black_box(workloads::lazy_streaming_ring(16, 1000.0));
                    1
                },
            },
            TrackedBench {
                id: "clocks/eager_streaming_ring16_1000t",
                run: || {
                    std::hint::black_box(workloads::eager_streaming_ring(16, 1000.0));
                    1
                },
            },
            TrackedBench {
                id: "core/main_theorem_line65",
                run: || {
                    std::hint::black_box(workloads::main_theorem_run(65));
                    1
                },
            },
            TrackedBench {
                id: "core/add_skew_line64",
                run: || {
                    std::hint::black_box(workloads::add_skew_line(64));
                    1
                },
            },
            TrackedBench {
                id: "core/bounded_increase_line32_120t",
                run: || {
                    std::hint::black_box(workloads::bounded_increase_line(32, 120.0));
                    1
                },
            },
            TrackedBench {
                id: "core/replay_extend_line32",
                run: || {
                    std::hint::black_box(workloads::replay_extend_line(32));
                    1
                },
            },
            TrackedBench {
                id: "retiming/static_apply_validate_line32_200t",
                run: || {
                    let exec = workloads::nominal_line_run(32, 200.0);
                    std::hint::black_box(workloads::static_retiming_apply_validate(&exec));
                    1
                },
            },
            TrackedBench {
                id: "retiming/dynamic_apply_validate_ring16_200t",
                run: || {
                    let exec = workloads::nominal_churned_ring_run(16, 200.0);
                    std::hint::black_box(workloads::dynamic_retiming_apply_validate(&exec));
                    1
                },
            },
            TrackedBench {
                id: "serving/seal_ring16_200t",
                run: || {
                    std::hint::black_box(workloads::serving_seal_run(16, 200.0));
                    1
                },
            },
            TrackedBench {
                id: "serving/wire_roundtrip_100k",
                run: || {
                    std::hint::black_box(workloads::serving_frame_batch(16, 100_000));
                    1
                },
            },
        ]
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn tracked_ids_are_unique_and_stable_shaped() {
            let benches = all();
            let mut ids: Vec<&str> = benches.iter().map(|b| b.id).collect();
            assert!(ids.iter().all(|id| id.contains('/')));
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), benches.len(), "duplicate tracked bench id");
        }

        #[test]
        fn paper_pipeline_workloads_hold_at_small_scale() {
            let outcome = workloads::add_skew_line(8);
            assert!(outcome.report.validation.is_valid());
            assert!(outcome.report.gain >= outcome.report.guaranteed_gain - 1e-9);
            let replayed = workloads::replay_extend_line(8);
            assert!(replayed.horizon() > outcome.transformed.horizon());
            let sped = workloads::bounded_increase_line(8, 40.0);
            assert!(sped.report.logical_advance > 0.0);
        }

        #[test]
        fn per_event_rows_count_dispatched_events() {
            let row = all()
                .into_iter()
                .find(|b| b.id == "engine/singleheap_rgg1k_ns_per_event")
                .expect("the 1k scale row is tracked");
            assert!((row.run)() > 1_000, "fewer than one event per node");
        }
    }
}
