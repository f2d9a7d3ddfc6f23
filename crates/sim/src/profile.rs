//! Wall-clock phase profiling for the engine (opt-in, off by default).
//!
//! [`crate::SimulationBuilder::profile`]`(true)` arms cheap per-phase
//! accumulators around the dispatch loop: node-callback dispatch,
//! observer notification, probe emission (including streaming
//! compaction), and — via a timing decorator wrapped around the
//! [`ClockSource`] — hardware-clock math. The result is a
//! [`SimProfile`] from [`crate::Simulation::profile_report`].
//!
//! Profiling measures *wall-clock* time and therefore lives strictly
//! outside the deterministic surface: it never touches event order,
//! recorded data, or traces, and the unprofiled path costs one
//! `Option` branch per event. `bench_json` reports these numbers as
//! the `profile/streaming_ring32_200t/*` rows, which the committed
//! baseline gates like any other row, so optimization work starts from
//! a measured profile.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use gcs_clocks::{ClockSource, RateSchedule};

/// Wall-clock nanoseconds spent per engine phase, from
/// [`crate::Simulation::profile_report`].
///
/// The phases are disjoint except that `clock_ns` (accumulated inside
/// the clock-source decorator) overlaps whichever phase issued the
/// query; `run_ns` covers the whole advancing call, so
/// `run_ns − dispatch_ns − observer_ns − probe_ns` approximates queue
/// operations and loop overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// Total time inside the advancing calls (`run_until*` /
    /// `step*`), including everything below.
    pub run_ns: u64,
    /// Time dispatching events: node callbacks plus send/timer action
    /// processing.
    pub dispatch_ns: u64,
    /// Time notifying observers of dispatched events.
    pub observer_ns: u64,
    /// Time emitting probes: streaming compaction plus observer
    /// `on_probe` callbacks.
    pub probe_ns: u64,
    /// Time inside [`ClockSource`] queries (rate/value/inverse/
    /// compaction), attributed to whichever phase issued them.
    pub clock_ns: u64,
    /// Events dispatched while profiling, for per-event rates.
    pub dispatched: u64,
}

/// Engine-internal accumulator state behind the `profile(true)` switch.
#[derive(Debug)]
pub(crate) struct ProfileState {
    pub(crate) run_ns: u64,
    pub(crate) dispatch_ns: u64,
    pub(crate) observer_ns: u64,
    pub(crate) probe_ns: u64,
    /// Shared with the [`ProfiledClock`] decorator.
    pub(crate) clock_ns: Rc<Cell<u64>>,
}

impl ProfileState {
    pub(crate) fn new(clock_ns: Rc<Cell<u64>>) -> Self {
        Self {
            run_ns: 0,
            dispatch_ns: 0,
            observer_ns: 0,
            probe_ns: 0,
            clock_ns,
        }
    }

    pub(crate) fn report(&self, dispatched: u64) -> SimProfile {
        SimProfile {
            run_ns: self.run_ns,
            dispatch_ns: self.dispatch_ns,
            observer_ns: self.observer_ns,
            probe_ns: self.probe_ns,
            clock_ns: self.clock_ns.get(),
            dispatched,
        }
    }
}

/// A [`ClockSource`] decorator that accumulates wall-clock time spent
/// in the inner source. Purely observational: every query delegates
/// unchanged, so profiled runs stay bit-identical to unprofiled ones.
pub(crate) struct ProfiledClock {
    inner: Box<dyn ClockSource>,
    ns: Rc<Cell<u64>>,
}

impl ProfiledClock {
    pub(crate) fn new(inner: Box<dyn ClockSource>, ns: Rc<Cell<u64>>) -> Self {
        Self { inner, ns }
    }

    fn timed<R>(&self, f: impl FnOnce(&dyn ClockSource) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner.as_ref());
        self.ns
            .set(self.ns.get() + u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        r
    }
}

impl ClockSource for ProfiledClock {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn rate_at(&self, node: usize, t: f64) -> f64 {
        self.timed(|c| c.rate_at(node, t))
    }

    fn value_at(&self, node: usize, t: f64) -> f64 {
        self.timed(|c| c.value_at(node, t))
    }

    fn time_at_value(&self, node: usize, value: f64) -> f64 {
        self.timed(|c| c.time_at_value(node, value))
    }

    fn compact_before(&self, t: f64) {
        self.timed(|c| c.compact_before(t));
    }

    fn live_segments(&self) -> usize {
        self.inner.live_segments()
    }

    fn materialize_prefix(&self, horizon: f64) -> Vec<RateSchedule> {
        self.timed(|c| c.materialize_prefix(horizon))
    }

    fn find_non_finite(&self) -> Option<usize> {
        self.inner.find_non_finite()
    }
}

/// Elapsed-nanosecond helper: `None` start (profiling off) adds
/// nothing.
pub(crate) fn add_elapsed(acc: &mut u64, started: Option<Instant>) {
    if let Some(t0) = started {
        *acc += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
}
