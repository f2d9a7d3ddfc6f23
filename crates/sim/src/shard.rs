//! The sharded parallel engine: conservative-window dispatch over
//! partitioned topology shards.
//!
//! # The window protocol
//!
//! The topology is partitioned into `k` contiguous shards. Each shard is
//! a dispatch [`Core`] — the same one the single-heap engine runs —
//! holding its nodes' events in a [`CalendarQueue`], with a forked clock
//! source and a forked delay policy. Let `L` be the delay policy's
//! [`DelayPolicy::min_delay_bound`] — the *lookahead*: every message
//! takes at least `L` real time. Each window the coordinator computes the
//! globally earliest pending event time `t_min` and the window boundary
//! `W = t_min + L`; every event strictly before `W` (and at or before
//! the run horizon) is then dispatched, shard-parallel, inside one
//! `thread::scope`. This is safe — no cross-shard message sent inside the
//! window can arrive inside it — because a send at `s ≥ t_min` arrives at
//! `s + delay ≥ t_min + L`, and rounding-to-nearest is monotone, so the
//! floating-point arrival is `≥ W` exactly as computed (the join asserts
//! this invariant for every handoff).
//!
//! # The window join
//!
//! The scope joins the shards in shard order, re-raising the first panic
//! payload and returning the first [`SimError`], both in shard order. The
//! join then drains the outboxes, sorted by `(arrival, from, to, seq)`,
//! into the receiving shards (whose queue entries reference an inbox
//! slot, not the payload); writes back the status of messages resolved
//! on another shard than their sender's; and merges the window's records
//! by `(time, tie_key)` into the event log, checking the global event cap
//! and replaying the records through observers with probes interleaved.
//!
//! Simultaneous events are ordered by the canonical
//! [`crate::EventKind::tie_key`], unique among distinct simultaneous
//! events, so neither the handoff order nor the partition can influence
//! dispatch order: executions are bit-identical for every shard count.
//! Per-shard message logs are merged at finalization by `(send_time,
//! sender event tie_key, intra-event index)` — the single heap's append
//! order.
//!
//! The event cap bounds the global count. Inside a window each shard may
//! dispatch what the cap leaves after every other shard's count so far
//! plus one; a shard that counts past that stops. Its one extra record
//! guarantees the merged window holds the globally first event past the
//! cap, so the panic names the same instant the single heap would.
//!
//! # Why `shards(1)` is not the single heap
//!
//! One shard runs the whole horizon as one unbounded window, but it
//! still pays for the sharded bookkeeping: a calendar queue, message-log
//! merge keys, and a window's worth of buffered event records that
//! observers only see at the join. It is slower per event than the
//! single heap and holds more memory, so [`crate::Simulation`] stays the
//! engine for serial runs; one shard is what a zero-lookahead policy
//! falls back to, since such a policy cannot overlap shards.
//!
//! # What sharded runs do not support
//!
//! Tracers and profiling observe the live global interleaving, which
//! sharded dispatch does not produce — attaching either is a
//! [`SimError::ShardUnsupported`]. Clock sources and delay policies must
//! support [`ClockSource::fork`] / [`DelayPolicy::fork`]. Observer
//! `on_event` views are evaluated at the join: when several events hit
//! the *same node* at the *same timestamp*, intermediate views reflect
//! that instant's final state (probe views are always exact).

use std::fmt;
use std::panic::resume_unwind;

use gcs_clocks::{ClockSource, PiecewiseLinear};
use gcs_net::DelayPolicy;

use crate::calendar::CalendarQueue;
use crate::core::{
    check_horizon, event_cap_exceeded, resolve, Core, Dispatch, Env, EventQueue, Handoff, MsgKey,
    Parts, Queued, Run, StatusUpdate,
};
use crate::engine::{SimError, SimulationBuilder};
use crate::event::{EventRecord, MessageRecord};
use crate::execution::Execution;
use crate::node::Node;
use crate::observer::Observer;
use crate::trace::{TraceEvent, Tracer};
use crate::NodeId;

/// A shard's [`Core`] parts: a calendar queue, `Send` nodes and forks,
/// and no tracer.
struct ShardParts;

/// The tracer type of a shard: uninhabited, so the core's trace hooks
/// compile away.
enum Untraced {}

impl Tracer for Untraced {
    fn record(&mut self, _event: &TraceEvent) {
        match *self {}
    }
}

impl<M> Parts<M> for ShardParts {
    type Queue = CalendarQueue<Queued>;
    type Node = dyn Node<M> + Send;
    type Clock = dyn ClockSource + Send;
    type Delay = dyn DelayPolicy + Send;
    type Tracer = Untraced;
}

/// One shard: its core and the records it dispatched this window.
struct Shard<M> {
    core: Core<M, ShardParts>,
    records: Vec<EventRecord>,
}

impl<M: Clone> Shard<M> {
    /// Dispatches every event strictly before `end` and at or before
    /// `horizon`, buffering the records for the join. Stops after an
    /// event past the core's dispatch limit.
    fn run_window(
        &mut self,
        env: &Env,
        end: f64,
        horizon: f64,
        trajectories: &mut [PiecewiseLinear],
    ) -> Result<(), SimError> {
        let core = &mut self.core;
        if !env.record_events {
            // No query in this or any later window reaches behind the
            // window start; a windowing clock fork can drop the past.
            if let Some(t) = core.queue.next_time() {
                core.clock.compact_before(t);
            }
        }
        while core
            .queue
            .next_time()
            .is_some_and(|t| t < end && t <= horizon)
        {
            let ev = core.queue.pop().expect("peeked above");
            match core.dispatch(ev, env, trajectories)? {
                Dispatch::Ran(record) => self.records.push(record),
                Dispatch::Dropped => {}
                Dispatch::OverCap(record) => {
                    self.records.push(record);
                    break;
                }
            }
        }
        Ok(())
    }
}

impl SimulationBuilder {
    /// Builds a sharded simulation (see [`crate::ShardedSimulation`]),
    /// constructing one node per topology entry with `make(node_id,
    /// node_count)`. The shard count comes from
    /// [`SimulationBuilder::shards`].
    ///
    /// # Errors
    ///
    /// As [`SimulationBuilder::build_with`], plus
    /// [`SimError::ShardUnsupported`] when a tracer or profiling is
    /// attached, or the clock source / delay policy cannot be forked
    /// across threads.
    pub fn build_sharded_with<M, N, F>(self, mut make: F) -> Result<ShardedSimulation<M>, SimError>
    where
        M: Clone + fmt::Debug + Send + 'static,
        N: Node<M> + Send + 'static,
        F: FnMut(NodeId, usize) -> N,
    {
        let n = self.topology.len();
        let nodes = (0..n)
            .map(|i| Box::new(make(i, n)) as Box<dyn Node<M> + Send>)
            .collect();
        self.build_sharded_boxed(nodes)
    }

    /// As [`SimulationBuilder::build_sharded_with`], from pre-boxed
    /// `Send` nodes.
    ///
    /// # Errors
    ///
    /// As [`SimulationBuilder::build_sharded_with`].
    pub fn build_sharded_boxed<M>(
        self,
        nodes: Vec<Box<dyn Node<M> + Send>>,
    ) -> Result<ShardedSimulation<M>, SimError>
    where
        M: Clone + fmt::Debug + Send + 'static,
    {
        let unsupported = |reason: &str| SimError::ShardUnsupported {
            reason: reason.into(),
        };
        if self.tracer.is_some() {
            return Err(unsupported(
                "a tracer is attached (tracing observes the live global \
                 interleaving; use the single-heap engine)",
            ));
        }
        if self.profile {
            return Err(unsupported(
                "profiling is armed (use the single-heap engine)",
            ));
        }
        let requested = self.shards;
        let (run, clock, delay) = resolve(self, nodes.len())?;
        let n = nodes.len();

        // Zero lookahead cannot overlap shards: fall back to one shard,
        // whose window is unbounded (exact, calendar-queued, serial).
        let lookahead = delay.min_delay_bound();
        assert!(
            lookahead >= 0.0,
            "delay policy reported a negative lookahead {lookahead}"
        );
        let k = if lookahead > 0.0 {
            requested.min(n.max(1))
        } else {
            1
        };

        let mut nodes = nodes.into_iter();
        let mut shards = Vec::with_capacity(k);
        for index in 0..k {
            let clock = clock
                .fork()
                .ok_or_else(|| unsupported("the clock source does not support fork()"))?;
            let delay = delay
                .fork()
                .ok_or_else(|| unsupported("the delay policy does not support fork()"))?;
            let (lo, env) = (index * n / k, &run.env);
            let owned = nodes.by_ref().take((index + 1) * n / k - lo).collect();
            let core = Core::new(index, lo, owned, clock, delay, env, env.record_events);
            shards.push(Shard {
                core,
                records: Vec::new(),
            });
        }

        Ok(ShardedSimulation {
            run,
            clock,
            lookahead: if k == 1 { f64::INFINITY } else { lookahead },
            shards,
            dispatched: 0,
        })
    }
}

/// A sharded simulation: the conservative-window parallel counterpart of
/// [`crate::Simulation`], built by
/// [`SimulationBuilder::build_sharded_with`] /
/// [`SimulationBuilder::build_sharded_boxed`] with the shard count from
/// [`SimulationBuilder::shards`].
///
/// For every shard count `k ≥ 1` the produced [`Execution`] is
/// bit-identical to the single-heap engine's — the invariant the
/// `shard-determinism` CI job pins. The module-level documentation at the
/// top of `shard.rs` describes the window protocol.
pub struct ShardedSimulation<M> {
    run: Run,
    /// Coordinator clock: probe views, streaming compaction, and final
    /// schedule materialization. Bit-answer-identical to every shard
    /// fork.
    clock: Box<dyn ClockSource>,
    /// The delay policy's lookahead `L` (`∞` when running one shard).
    lookahead: f64,
    shards: Vec<Shard<M>>,
    dispatched: u64,
}

impl<M> fmt::Debug for ShardedSimulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSimulation")
            .field("topology", &self.run.env.topology)
            .field("shards", &self.shards.len())
            .field("lookahead", &self.lookahead)
            .finish_non_exhaustive()
    }
}

impl<M: Clone + fmt::Debug + Send + 'static> ShardedSimulation<M> {
    /// The number of simulated nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.run.trajectories.len()
    }

    /// The actual shard count (after clamping to the node count and the
    /// zero-lookahead fallback).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The lookahead window `L` (`∞` when running one shard).
    #[must_use]
    pub fn lookahead(&self) -> f64 {
        self.lookahead
    }

    /// The furthest simulated time this run has been driven to.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.run.ran_to
    }

    /// Events dispatched so far.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Configures observer probes — identical semantics to
    /// [`crate::Simulation::set_probe_schedule`].
    ///
    /// # Panics
    ///
    /// Panics unless `every` is finite and strictly positive and `from`
    /// is finite and nonnegative.
    pub fn set_probe_schedule(&mut self, from: f64, every: f64) {
        self.run.set_probes(from, every);
    }

    /// Runs through `horizon`, consumes the simulation, and returns the
    /// recorded execution — the sharded counterpart of
    /// [`crate::Simulation::execute_until`].
    ///
    /// # Panics
    ///
    /// As [`crate::Simulation::execute_until`].
    #[must_use]
    pub fn execute_until(mut self, horizon: f64) -> Execution<M> {
        self.run_until(horizon);
        self.into_execution()
    }

    /// Non-panicking [`ShardedSimulation::execute_until`].
    ///
    /// # Errors
    ///
    /// As [`crate::Simulation::try_execute_until`]. On error the
    /// partially-advanced simulation is consumed; its state is not a
    /// coherent execution.
    pub fn try_execute_until(mut self, horizon: f64) -> Result<Execution<M>, SimError> {
        self.try_run_until(horizon)?;
        Ok(self.into_execution())
    }

    /// Advances through every event at time ≤ `horizon` without
    /// consuming the simulation; callable repeatedly with growing
    /// horizons.
    ///
    /// # Panics
    ///
    /// As [`crate::Simulation::execute_until`].
    pub fn run_until(&mut self, horizon: f64) {
        self.run_until_observed(horizon, &mut []);
    }

    /// Non-panicking [`ShardedSimulation::run_until`].
    ///
    /// # Errors
    ///
    /// As [`crate::Simulation::try_run_until`]; the simulation is
    /// poisoned on error.
    pub fn try_run_until(&mut self, horizon: f64) -> Result<(), SimError> {
        self.try_run_until_observed(horizon, &mut [])
    }

    /// [`ShardedSimulation::run_until`], streaming every dispatched
    /// event (at window joins) and every due probe through `observers`.
    ///
    /// # Panics
    ///
    /// As [`crate::Simulation::execute_until`].
    pub fn run_until_observed(&mut self, horizon: f64, observers: &mut [&mut dyn Observer]) {
        self.try_run_until_observed(horizon, observers)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`ShardedSimulation::run_until_observed`].
    ///
    /// # Errors
    ///
    /// As [`crate::Simulation::try_run_until`]; the simulation is
    /// poisoned on error.
    pub fn try_run_until_observed(
        &mut self,
        horizon: f64,
        observers: &mut [&mut dyn Observer],
    ) -> Result<(), SimError> {
        check_horizon(horizon)?;
        if self.run.start() {
            for shard in &mut self.shards {
                shard.core.enqueue_start(&self.run.env);
            }
        }
        while let Some(t_min) = self
            .shards
            .iter_mut()
            .filter_map(|s| s.core.queue.next_time())
            .min_by(f64::total_cmp)
            .filter(|&t| t <= horizon)
        {
            self.run
                .emit_probes(t_min, false, &*self.clock, None, observers);
            // Every event strictly before `t_min + L` is safe to dispatch
            // in parallel. Computed with the same float addition the
            // arrival times use, so the handoff assertion is exact
            // (rounding is monotone).
            let end = t_min + self.lookahead;
            self.run_window(end, horizon)?;
            self.join_window(end, observers);
        }
        self.run
            .emit_probes(horizon, true, &*self.clock, None, observers);
        self.run.ran_to = self.run.ran_to.max(horizon);
        Ok(())
    }

    /// Runs one window on every shard inside a single thread scope: shard
    /// 0 on the calling thread, the rest on scoped threads, joined in
    /// shard order. On `Err` or a re-raised panic the simulation is
    /// poisoned.
    fn run_window(&mut self, end: f64, horizon: f64) -> Result<(), SimError> {
        let env = &self.run.env;
        // Each shard may reach the cap alone, given every other shard's
        // count so far; the join checks the global total.
        let budget = env.event_cap - self.dispatched;
        let mut rest: &mut [PiecewiseLinear] = &mut self.run.trajectories;
        let mut work = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            let (owned, tail) = std::mem::take(&mut rest).split_at_mut(shard.core.len());
            rest = tail;
            shard.core.limit = shard.core.dispatched + budget;
            work.push((shard, owned));
        }
        std::thread::scope(|scope| {
            let mut work = work.into_iter();
            let (first, first_owned) = work.next().expect("at least one shard");
            let spawned: Vec<_> = work
                .map(|(shard, owned)| {
                    scope.spawn(move || shard.run_window(env, end, horizon, owned))
                })
                .collect();
            let first = first.run_window(env, end, horizon, first_owned);
            spawned.into_iter().fold(first, |result, handle| {
                let joined = handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload));
                result.and(joined)
            })
        })
    }

    /// The window join: routes handoffs, writes back foreign message
    /// statuses, merges the records, enforces the global event cap, and
    /// replays the records through the observers.
    fn join_window(&mut self, end: f64, observers: &mut [&mut dyn Observer]) {
        let mut handoffs: Vec<Handoff<M>> = Vec::new();
        let mut updates: Vec<StatusUpdate> = Vec::new();
        let mut merged: Vec<EventRecord> = Vec::new();
        for shard in &mut self.shards {
            handoffs.append(&mut shard.core.outbox);
            updates.append(&mut shard.core.status_updates);
            merged.append(&mut shard.records);
        }

        // Routing order is free: a queue entry's order is fixed by its
        // own `(time, tie_key)`, not by when it was pushed.
        for h in handoffs {
            assert!(
                h.arrival_time >= end,
                "conservative-window violation: cross-shard arrival at {} before the \
                 window boundary {end} ({} -> {}); the delay policy's min_delay_bound() \
                 is wrong",
                h.arrival_time,
                h.from,
                h.to
            );
            let dest = self.shards.partition_point(|s| s.core.lo <= h.to) - 1;
            self.shards[dest].core.accept(h);
        }
        for (owner, slot, delivered) in updates {
            self.shards[owner]
                .core
                .settle_remote(slot, delivered, &self.run.env);
        }

        // Probe and event views evaluated after the scope are exact
        // because trajectory and clock queries are past-stable.
        merged.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then_with(|| a.kind.tie_key(a.node).cmp(&b.kind.tie_key(b.node)))
        });
        // The record at the remaining budget is the first past the cap.
        let cap = self.run.env.event_cap;
        let budget = usize::try_from(cap - self.dispatched).ok();
        if let Some(over) = budget.and_then(|b| merged.get(b)) {
            event_cap_exceeded(cap, over.time);
        }
        self.dispatched += merged.len() as u64;
        for record in &merged {
            self.run
                .emit_probes(record.time, false, &*self.clock, None, observers);
            self.run.observe(record, &*self.clock, observers);
        }
    }

    /// Finalizes the run into the recorded [`Execution`] — bit-identical
    /// to [`crate::Simulation::into_execution`] on the same scenario.
    #[must_use]
    pub fn into_execution(mut self) -> Execution<M> {
        // Merge the per-shard message logs back into the single-heap
        // engine's append order.
        let mut tagged: Vec<(MsgKey, MessageRecord<M>)> = Vec::new();
        for shard in &mut self.shards {
            if let Some(keys) = shard.core.msg_keys.take() {
                let records = std::mem::take(&mut shard.core.messages);
                tagged.extend(keys.into_iter().zip(records));
            }
        }
        tagged.sort_by(|a, b| a.0.cmp(&b.0));
        let messages = tagged.into_iter().map(|(_, m)| m).collect();
        self.run.finish(&*self.clock, messages)
    }
}
