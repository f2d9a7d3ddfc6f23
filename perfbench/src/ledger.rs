//! Outside-in layer accounting.
//!
//! Every layer is measured through the public extension trait the engine
//! calls it by: [`Node`], [`ClockSource`], [`DelayPolicy`], [`Observer`]
//! and [`Tracer`]. A decorator forwards every method unchanged, counts
//! every call exactly, and times a pseudo-random 1-in-N sample of them
//! with the calibrated cost of an empty timer subtracted. A layer's time
//! is then `calls × mean sampled self time`, per call kind.
//!
//! Calls nest: an observer's probe reads clocks. While a sampled call is
//! open on a thread, every decorated call beneath it is timed too, and
//! the parent's sample excludes its children, so each nanosecond lands
//! in exactly one layer.
//!
//! Counters live in the decorator and are flushed into a shared
//! [`Layer`] when the decorator is dropped, so sharded runs pay no
//! atomic traffic per call; drop the simulation before reading totals.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use gcs_clocks::{ClockSource, RateSchedule};
use gcs_net::{DelayOutcome, DelayPolicy, Topology};
use gcs_sim::{Context, EventRecord, Node, NodeId, Observer, Probe, TimerId, TraceEvent, Tracer};

use crate::Report;

/// One in this many calls of a hot method is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// One in this many observer probes is timed: probes are rare but each
/// reads every clock, and every read inside a timed call is timed too.
const PROBE_SAMPLE_EVERY: u64 = 8;

/// Call kinds a layer distinguishes (at most four per layer).
const KINDS: usize = 4;

thread_local! {
    /// True while a timed call is open on this thread.
    static TIMING: Cell<bool> = const { Cell::new(false) };
    /// Raw nanoseconds of direct children of the open timed call.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
    /// Number of direct children timed inside the open call.
    static CHILD_SPANS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds one empty timed span reads, measured once per process.
pub fn timer_cost_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut batches: Vec<f64> = (0..9)
            .map(|_| {
                let reps = 20_000u32;
                let mut total = 0u64;
                for _ in 0..reps {
                    let t0 = Instant::now();
                    total += nanos(t0);
                }
                total as f64 / f64::from(reps)
            })
            .collect();
        batches.sort_by(f64::total_cmp);
        batches[batches.len() / 2]
    })
}

/// Nanoseconds since `t0`.
pub fn nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Shared totals of one layer.
#[derive(Default)]
pub struct Layer {
    calls: [AtomicU64; KINDS],
    samples: [AtomicU64; KINDS],
    raw_ns: [AtomicU64; KINDS],
    child_ns: [AtomicU64; KINDS],
    spans: [AtomicU64; KINDS],
}

impl Layer {
    /// Exact number of calls of `kind`.
    pub fn calls(&self, kind: usize) -> u64 {
        self.calls[kind].load(Relaxed)
    }

    /// Exact number of calls of every kind.
    pub fn total_calls(&self) -> u64 {
        (0..KINDS).map(|k| self.calls(k)).sum()
    }

    /// Estimated self nanoseconds per call of `kind` (0 if never called).
    pub fn ns_per_call(&self, kind: usize) -> f64 {
        let samples = self.samples[kind].load(Relaxed);
        if samples == 0 {
            return 0.0;
        }
        let raw = self.raw_ns[kind].load(Relaxed) as f64;
        let child = self.child_ns[kind].load(Relaxed) as f64;
        let spans = self.spans[kind].load(Relaxed);
        let own = raw - child - (samples + spans) as f64 * timer_cost_ns();
        (own / samples as f64).max(0.0)
    }

    /// Estimated self nanoseconds over every call.
    pub fn total_ns(&self) -> f64 {
        (0..KINDS)
            .map(|k| self.calls(k) as f64 * self.ns_per_call(k))
            .sum()
    }

    /// Estimated self nanoseconds per call, over every call.
    pub fn mean_ns(&self) -> f64 {
        let calls = self.total_calls();
        if calls == 0 {
            0.0
        } else {
            self.total_ns() / calls as f64
        }
    }
}

/// A decorator's private counters, flushed into its [`Layer`] on drop.
struct Local {
    layer: Arc<Layer>,
    /// `1` times every call; otherwise one in `every` (a power of two).
    every: [u64; KINDS],
    /// Also time the first call of each kind, so a rare kind (a handful
    /// of probes) still gets a measured cost.
    time_first: bool,
    rng: u64,
    calls: [u64; KINDS],
    samples: [u64; KINDS],
    raw_ns: [u64; KINDS],
    child_ns: [u64; KINDS],
    spans: [u64; KINDS],
}

impl Local {
    fn new(layer: &Arc<Layer>, every: [u64; KINDS], salt: u64) -> Self {
        Local {
            layer: Arc::clone(layer),
            every,
            time_first: false,
            rng: salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            calls: [0; KINDS],
            samples: [0; KINDS],
            raw_ns: [0; KINDS],
            child_ns: [0; KINDS],
            spans: [0; KINDS],
        }
    }

    fn timing_first(mut self) -> Self {
        self.time_first = true;
        self
    }

    fn sampled(&mut self, kind: usize) -> bool {
        if self.time_first && self.calls[kind] == 1 {
            return true;
        }
        // xorshift64: a stride-free draw, so periodic call patterns
        // cannot alias with the sampling period.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x & (self.every[kind] - 1) == 0
    }

    /// Forwards `f`, counting it as a call of `kind` and timing it when
    /// sampled or when an enclosing call is being timed.
    fn call<R>(&mut self, kind: usize, f: impl FnOnce() -> R) -> R {
        self.calls[kind] += 1;
        let sampled = self.sampled(kind);
        let nested = TIMING.get();
        if !sampled && !nested {
            return f();
        }
        let (outer_ns, outer_spans) = (CHILD_NS.replace(0), CHILD_SPANS.replace(0));
        TIMING.set(true);
        let t0 = Instant::now();
        let r = f();
        let raw = nanos(t0);
        let (child, spans) = (CHILD_NS.get(), CHILD_SPANS.get());
        TIMING.set(nested);
        if nested {
            CHILD_NS.set(outer_ns + raw);
            CHILD_SPANS.set(outer_spans + 1);
        } else {
            CHILD_NS.set(outer_ns);
            CHILD_SPANS.set(outer_spans);
        }
        if sampled {
            self.samples[kind] += 1;
            self.raw_ns[kind] += raw;
            self.child_ns[kind] += child;
            self.spans[kind] += spans;
        }
        r
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        for k in 0..KINDS {
            self.layer.calls[k].fetch_add(self.calls[k], Relaxed);
            self.layer.samples[k].fetch_add(self.samples[k], Relaxed);
            self.layer.raw_ns[k].fetch_add(self.raw_ns[k], Relaxed);
            self.layer.child_ns[k].fetch_add(self.child_ns[k], Relaxed);
            self.layer.spans[k].fetch_add(self.spans[k], Relaxed);
        }
    }
}

/// Node call kinds.
pub const START: usize = 0;
/// See [`START`].
pub const MESSAGE: usize = 1;
/// See [`START`].
pub const TIMER: usize = 2;
/// See [`START`].
pub const TOPOLOGY: usize = 3;

/// A [`Node`] that forwards to `inner` and accounts to a layer.
pub struct TracedNode<N> {
    inner: N,
    local: Local,
}

impl<N> TracedNode<N> {
    /// Wraps node `id`'s implementation.
    pub fn new(inner: N, layer: &Arc<Layer>, id: NodeId) -> Self {
        TracedNode {
            inner,
            local: Local::new(layer, [SAMPLE_EVERY; KINDS], id as u64 + 1),
        }
    }
}

impl<M, N: Node<M>> Node<M> for TracedNode<N> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let inner = &mut self.inner;
        self.local.call(START, || inner.on_start(ctx));
    }
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: &M) {
        let inner = &mut self.inner;
        self.local
            .call(MESSAGE, || inner.on_message(ctx, from, msg));
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: TimerId) {
        let inner = &mut self.inner;
        self.local.call(TIMER, || inner.on_timer(ctx, timer));
    }
    fn on_topology_change(&mut self, ctx: &mut Context<'_, M>, peer: NodeId, up: bool) {
        let inner = &mut self.inner;
        self.local
            .call(TOPOLOGY, || inner.on_topology_change(ctx, peer, up));
    }
}

/// A [`ClockSource`] that forwards to `inner` and accounts its queries
/// (`rate_at`, `value_at`, `time_at_value`) to a layer. Every other
/// method, `fork` and `compact_before` included, is forwarded as is.
pub struct TracedClock {
    inner: Box<dyn ClockSource + Send>,
    local: RefCell<Local>,
    peak_live: Arc<AtomicU64>,
}

impl TracedClock {
    /// Wraps a clock source.
    pub fn new(
        inner: Box<dyn ClockSource + Send>,
        layer: &Arc<Layer>,
        peak_live: &Arc<AtomicU64>,
    ) -> Self {
        TracedClock {
            inner,
            local: RefCell::new(Local::new(layer, [SAMPLE_EVERY; KINDS], 0xC10C)),
            peak_live: Arc::clone(peak_live),
        }
    }

    fn query<R>(&self, f: impl FnOnce(&dyn ClockSource) -> R) -> R {
        let inner = &*self.inner;
        self.local.borrow_mut().call(0, || f(inner))
    }
}

impl ClockSource for TracedClock {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn rate_at(&self, node: usize, t: f64) -> f64 {
        self.query(|c| c.rate_at(node, t))
    }
    fn value_at(&self, node: usize, t: f64) -> f64 {
        self.query(|c| c.value_at(node, t))
    }
    fn time_at_value(&self, node: usize, value: f64) -> f64 {
        self.query(|c| c.time_at_value(node, value))
    }
    fn compact_before(&self, t: f64) {
        // The live window peaks just before it is compacted.
        self.peak_live
            .fetch_max(self.inner.live_segments() as u64, Relaxed);
        self.inner.compact_before(t);
    }
    fn live_segments(&self) -> usize {
        self.inner.live_segments()
    }
    fn materialize_prefix(&self, horizon: f64) -> Vec<RateSchedule> {
        self.inner.materialize_prefix(horizon)
    }
    fn find_non_finite(&self) -> Option<usize> {
        self.inner.find_non_finite()
    }
    fn fork(&self) -> Option<Box<dyn ClockSource + Send>> {
        let inner = self.inner.fork()?;
        let layer = Arc::clone(&self.local.borrow().layer);
        Some(Box::new(TracedClock::new(inner, &layer, &self.peak_live)))
    }
}

/// A [`DelayPolicy`] that forwards to `inner` and accounts `decide` to a
/// layer. `bind_topology`, `min_delay_bound` and `fork` are forwarded, so
/// the sharded engine sees the same lookahead.
pub struct TracedDelay {
    inner: Box<dyn DelayPolicy + Send>,
    local: Local,
}

impl TracedDelay {
    /// Wraps a delay policy.
    pub fn new(inner: Box<dyn DelayPolicy + Send>, layer: &Arc<Layer>) -> Self {
        TracedDelay {
            inner,
            local: Local::new(layer, [SAMPLE_EVERY; KINDS], 0xDE1A),
        }
    }
}

impl fmt::Debug for TracedDelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TracedDelay").field(&self.inner).finish()
    }
}

impl DelayPolicy for TracedDelay {
    fn decide(&mut self, from: usize, to: usize, seq: u64, send_time: f64) -> DelayOutcome {
        let inner = &mut self.inner;
        self.local
            .call(0, || inner.decide(from, to, seq, send_time))
    }
    fn bind_topology(&mut self, topology: &Topology) {
        self.inner.bind_topology(topology);
    }
    fn min_delay_bound(&self) -> f64 {
        self.inner.min_delay_bound()
    }
    fn fork(&self) -> Option<Box<dyn DelayPolicy + Send>> {
        let inner = self.inner.fork()?;
        Some(Box::new(TracedDelay::new(inner, &self.local.layer)))
    }
}

/// Observer call kinds.
pub const ON_EVENT: usize = 0;
/// See [`ON_EVENT`].
pub const ON_PROBE: usize = 1;

/// An [`Observer`] that forwards to `inner` and accounts to a layer.
pub struct TracedObserver<'a> {
    inner: &'a mut dyn Observer,
    local: Local,
}

impl<'a> TracedObserver<'a> {
    /// Wraps an observer.
    pub fn new(inner: &'a mut dyn Observer, layer: &Arc<Layer>, salt: u64) -> Self {
        TracedObserver {
            inner,
            local: Local::new(layer, [SAMPLE_EVERY, PROBE_SAMPLE_EVERY, 1, 1], salt).timing_first(),
        }
    }
}

impl Observer for TracedObserver<'_> {
    fn on_event(&mut self, view: &Probe<'_>, event: &EventRecord) {
        let inner = &mut *self.inner;
        self.local.call(ON_EVENT, || inner.on_event(view, event));
    }
    fn on_probe(&mut self, view: &Probe<'_>) {
        let inner = &mut *self.inner;
        self.local.call(ON_PROBE, || inner.on_probe(view));
    }
    fn finish(&mut self, at: f64) {
        let inner = &mut *self.inner;
        self.local.call(2, || inner.finish(at));
    }
}

/// A [`Tracer`] that forwards to `inner` and accounts to a layer.
pub struct TracedTracer<T> {
    inner: T,
    local: Local,
}

impl<T: Tracer> TracedTracer<T> {
    /// Wraps a tracer.
    pub fn new(inner: T, layer: &Arc<Layer>) -> Self {
        TracedTracer {
            inner,
            local: Local::new(layer, [SAMPLE_EVERY; KINDS], 0x7E1E),
        }
    }
}

impl<T: Tracer> Tracer for TracedTracer<T> {
    fn record(&mut self, event: &TraceEvent) {
        let inner = &mut self.inner;
        self.local.call(0, || inner.record(event));
    }
}

/// The layers a traced simulation run accounts to.
#[derive(Clone, Default)]
pub struct Layers {
    /// `gcs_algorithms` nodes.
    pub algorithms: Arc<Layer>,
    /// `gcs_clocks` sources.
    pub clocks: Arc<Layer>,
    /// `gcs_net` delay policies.
    pub net: Arc<Layer>,
    /// Observers (`gcs_sim::observer`, `gcs_telemetry::RunMetrics`).
    pub observers: Arc<Layer>,
    /// `gcs_telemetry` tracers.
    pub telemetry: Arc<Layer>,
    /// Largest live schedule-segment count seen before a compaction.
    pub peak_live_segments: Arc<AtomicU64>,
}

impl Layers {
    /// Wraps node `id`.
    pub fn node<N>(&self, inner: N, id: NodeId) -> TracedNode<N> {
        TracedNode::new(inner, &self.algorithms, id)
    }

    /// Wraps a clock source.
    pub fn clock(&self, inner: impl ClockSource + Send + 'static) -> TracedClock {
        TracedClock::new(Box::new(inner), &self.clocks, &self.peak_live_segments)
    }

    /// Wraps a delay policy.
    pub fn delay(&self, inner: impl DelayPolicy + Send + 'static) -> TracedDelay {
        TracedDelay::new(Box::new(inner), &self.net)
    }

    /// Wraps observer number `k`.
    pub fn observer<'a>(&self, inner: &'a mut dyn Observer, k: u64) -> TracedObserver<'a> {
        TracedObserver::new(inner, &self.observers, 0x0B5E + k)
    }

    /// Wraps a tracer.
    pub fn tracer<T: Tracer>(&self, inner: T) -> TracedTracer<T> {
        TracedTracer::new(inner, &self.telemetry)
    }

    /// Sets the per-layer metrics of the wrapped simulation layers;
    /// `events` is the run's dispatched event count.
    pub fn report_sim_layers(&self, report: &mut Report, events: f64) {
        let a = &self.algorithms;
        report.set("algorithms.calls.start", a.calls(START) as f64);
        report.set("algorithms.calls.message", a.calls(MESSAGE) as f64);
        report.set("algorithms.calls.timer", a.calls(TIMER) as f64);
        report.set("algorithms.calls.topology", a.calls(TOPOLOGY) as f64);
        report.set("algorithms.ns_per_call", a.mean_ns());
        report.set(
            "clocks.calls_per_event",
            self.clocks.total_calls() as f64 / events,
        );
        report.set("clocks.ns_per_call", self.clocks.mean_ns());
        report.set(
            "clocks.peak_live_segments",
            self.peak_live_segments.load(Relaxed) as f64,
        );
        report.set("net.decide_calls", self.net.total_calls() as f64);
        report.set("net.ns_per_decide", self.net.mean_ns());
        report.set("observers.probes", self.observers.calls(ON_PROBE) as f64);
        report.set(
            "observers.ns_per_probe",
            self.observers.ns_per_call(ON_PROBE),
        );
        report.set(
            "observers.ns_per_event",
            self.observers.ns_per_call(ON_EVENT),
        );
        report.set("telemetry.records", self.telemetry.total_calls() as f64);
        report.set("telemetry.ns_per_record", self.telemetry.mean_ns());
    }

    /// The wrapped layers' estimated self seconds as ledger rows, named
    /// `prefix` + layer and scaled by `scale`.
    pub fn rows(&self, prefix: &str, scale: f64) -> Vec<(String, f64)> {
        [
            ("algorithms", &self.algorithms),
            ("clocks", &self.clocks),
            ("net", &self.net),
            ("observers", &self.observers),
            ("telemetry", &self.telemetry),
        ]
        .into_iter()
        .map(|(name, layer)| (format!("{prefix}{name}"), layer.total_ns() * 1e-9 * scale))
        .collect()
    }
}

/// Time spans that must add back up to a measured total.
pub struct Ledger {
    title: String,
    total_s: f64,
    rows: Vec<(String, f64)>,
}

/// How far the attributed rows may overshoot the measured total before
/// the ledger counts as not reconciling (sampling error).
pub const RECONCILE_TOLERANCE: f64 = 0.05;

impl Ledger {
    /// A ledger for a span of `total_s` seconds.
    pub fn new(title: impl Into<String>, total_s: f64) -> Self {
        Ledger {
            title: title.into(),
            total_s,
            rows: Vec::new(),
        }
    }

    /// Adds an attributed row.
    pub fn row(&mut self, name: impl Into<String>, seconds: f64) {
        self.rows.push((name.into(), seconds));
    }

    /// Adds `rows`, then the engine's self time: the rest of `span_s`,
    /// the wall time of the run call that contains them.
    pub fn run_rows(&mut self, engine: &str, span_s: f64, rows: Vec<(String, f64)>) -> f64 {
        let nested: f64 = rows.iter().map(|r| r.1).sum();
        self.rows.extend(rows);
        let engine_self = span_s - nested;
        self.row(engine, engine_self);
        engine_self
    }

    /// Share of the total no row accounts for.
    pub fn unattributed_frac(&self) -> f64 {
        let attributed: f64 = self.rows.iter().map(|r| r.1).sum();
        (self.total_s - attributed) / self.total_s
    }

    /// True when no row is negative beyond the tolerance and the rows
    /// neither overshoot nor fall short of the total by more than it.
    pub fn reconciles(&self) -> bool {
        let tol = RECONCILE_TOLERANCE * self.total_s;
        self.rows.iter().all(|r| r.1 >= -tol)
            && self.unattributed_frac().abs() <= RECONCILE_TOLERANCE
    }

    /// The ledger as a printable table.
    pub fn render(&self) -> String {
        let mut out = format!("ledger {} (total {:.4} s)\n", self.title, self.total_s);
        for (name, s) in &self.rows {
            out.push_str(&format!(
                "  {name:<22} {s:>10.4} s {:>6.1}%\n",
                100.0 * s / self.total_s
            ));
        }
        out.push_str(&format!(
            "  {:<22} {:>10.4} s {:>6.1}%  reconciles: {}\n",
            "unattributed",
            self.total_s * self.unattributed_frac(),
            100.0 * self.unattributed_frac(),
            self.reconciles()
        ));
        out
    }
}
