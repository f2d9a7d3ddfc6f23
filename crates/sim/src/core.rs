//! The dispatch core both engines run on.
//!
//! A [`Core`] owns one event queue and everything a dispatched event
//! touches: the nodes of a contiguous id range with their live neighbor
//! sets, timer counters and per-receiver send sequence counters, the
//! clock and delay handles, and the message log. The single-heap engine
//! ([`crate::Simulation`]) runs one core over every node on a
//! `BinaryHeap`; the sharded engine ([`crate::ShardedSimulation`]) runs
//! one core per shard on a [`CalendarQueue`], with forked clock and delay
//! handles. [`Parts`] fixes the queue, the boxed node/clock/delay types
//! and the tracer at compile time, so the per-event path calls through
//! no trait object beyond the node, clock and delay ones it always had.
//!
//! Queue entries are 32-byte `Copy` [`Queued`] values that decide their
//! `(time, tie_key)` order from their own fields. Payloads and arrival
//! readings stay in the message log, or in the inbox for a cross-shard
//! delivery, and dispatch reads them from there: a heap with millions of
//! entries moves four words per sift step.
//!
//! The module also holds what both engines' coordinators share in
//! [`Run`]: build validation ([`resolve`]), the probe grid with its
//! streaming compaction, observer notification, and finalization with
//! in-flight reconciliation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gcs_clocks::{ClockSource, EagerSchedule, PiecewiseLinear, RateSchedule};
use gcs_dynamic::DynamicTopology;
use gcs_net::{DelayOutcome, DelayPolicy, FixedFractionDelay, Topology};

use crate::calendar::{CalendarItem, CalendarQueue};
use crate::engine::{SimError, SimulationBuilder};
use crate::event::{EventKind, EventRecord, MessageRecord, MessageStatus};
use crate::execution::Execution;
use crate::node::{Actions, Context, Node};
use crate::observer::{Observer, Probe};
use crate::trace::{DropReason, TraceEvent, Tracer};
use crate::{NodeId, TimerId};

/// Run-wide configuration every core of a run reads.
pub(crate) struct Env {
    pub(crate) topology: Topology,
    pub(crate) dynamic: Option<DynamicTopology>,
    pub(crate) drop_on_link_down: bool,
    pub(crate) record_events: bool,
    pub(crate) event_cap: u64,
}

impl Env {
    /// Whether a message `from → to` sent at `sent` is lost to a link
    /// outage by `until`. In dynamic mode a message only crosses a
    /// *tracked* link that stays up from send to arrival; the churn
    /// timeline is known in advance, so the drop resolves
    /// deterministically. Untracked pairs (direct sends outside the
    /// communication graph, e.g. tree-sync probes to a distant source)
    /// keep the static always-deliver semantics. One pair lookup per
    /// call: this runs on every due delivery.
    fn link_drops(&self, from: NodeId, to: NodeId, sent: f64, until: f64) -> bool {
        match &self.dynamic {
            Some(view) if self.drop_on_link_down => {
                view.tracked_link_uninterrupted(from, to, sent, until) == Some(false)
            }
            _ => false,
        }
    }
}

/// A validated build: the run, its clock source and its delay policy.
type Resolved = (Run, Box<dyn ClockSource>, Box<dyn DelayPolicy>);

/// Validates a builder against `nodes` node implementations and resolves
/// its defaults: perfect rate-1 clocks and the nominal half-distance
/// delay policy, bound to the topology.
pub(crate) fn resolve(builder: SimulationBuilder, nodes: usize) -> Result<Resolved, SimError> {
    let n = builder.topology.len();
    check_node_count(n)?;
    if nodes != n {
        return Err(SimError::NodeCount {
            expected: n,
            got: nodes,
        });
    }
    let clock = builder
        .clock
        .unwrap_or_else(|| Box::new(EagerSchedule::new(vec![RateSchedule::default(); n])));
    if clock.node_count() != n {
        return Err(SimError::ScheduleCount {
            expected: n,
            got: clock.node_count(),
        });
    }
    // Defensive finiteness gate: `RateSchedule` already rejects
    // non-finite rates structurally, but a hand-rolled `ClockSource` is
    // only bound by its trait contract — catch a NaN clock here, at
    // build, instead of deep inside dispatch.
    if let Some(node) = clock.find_non_finite() {
        return Err(SimError::NonFiniteRate { node });
    }
    let mut delay = builder
        .delay
        .unwrap_or_else(|| Box::new(FixedFractionDelay::for_topology(&builder.topology, 0.5)));
    delay.bind_topology(&builder.topology);
    let run = Run {
        trajectories: (0..n)
            .map(|_| PiecewiseLinear::new(0.0, 0.0, 1.0))
            .collect(),
        env: Env {
            topology: builder.topology,
            dynamic: builder.dynamic,
            drop_on_link_down: builder.drop_on_link_down,
            record_events: builder.record_events,
            event_cap: builder.event_cap,
        },
        events: Vec::new(),
        started: false,
        ran_to: 0.0,
        probe_from: builder.probe_from,
        probe_every: builder.probe_every,
        next_probe: 0,
        peak_breakpoints: 0,
    };
    Ok((run, clock, delay))
}

/// Panics with the event-cap message both engines share.
pub(crate) fn event_cap_exceeded(cap: u64, time: f64) -> ! {
    panic!(
        "event cap of {cap} exceeded at t = {time}; the algorithm may be \
         generating an unbounded message storm"
    )
}

/// Node ids must stay below this bound: [`Queued`] packs a node and a
/// sender or peer id into 31 bits each.
pub(crate) const MAX_NODES: usize = 1 << 31;

/// Rejects a node count whose ids do not fit the packed queue entry.
pub(crate) fn check_node_count(nodes: usize) -> Result<(), SimError> {
    if nodes <= MAX_NODES {
        Ok(())
    } else {
        Err(SimError::TooManyNodes {
            nodes,
            max: MAX_NODES,
        })
    }
}

/// A queued (not yet dispatched) event, packed into 32 bytes.
///
/// The entry alone decides the dispatch order `(time, tie_key)`: `key`
/// and `sub` hold [`EventKind::tie_key`] in an order-preserving form, so
/// no comparison reads the message log. `body` carries what dispatch
/// needs beyond the order: a delivery's message slot, or a timer's
/// hardware target. A delivery's arrival reading is not stored; dispatch
/// reads it from the message record or the inbox. Distinct events never
/// share `(time, tie_key)` — a delivery is unique by `(from, seq)`, a
/// timer by its per-node id, a link change by `(peer, up)` — so no
/// insertion counter is needed.
#[derive(Clone, Copy)]
pub(crate) struct Queued {
    pub(crate) time: f64,
    /// `node << 33 | rank << 31 | x`, where `rank` is the tie key's kind
    /// rank and `x` the sender (delivery) or peer (link change), else 0.
    key: u64,
    /// The rest of the tie key: the sequence number (delivery), the timer
    /// id, or the `up` bit (link change); 0 for a start.
    sub: u64,
    /// `slot << 1 | handoff` for a delivery, the target reading's bits
    /// for a timer, 0 otherwise.
    body: u64,
}

/// The decoded form of a [`Queued`] entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum QueuedKind {
    Start,
    /// Delivery of a message held in this core's log.
    Deliver {
        from: NodeId,
        seq: u64,
        msg_index: usize,
    },
    /// Delivery of a message sent from another shard, held in this
    /// core's inbox.
    Handoff {
        from: NodeId,
        seq: u64,
        slot: usize,
    },
    /// A timer firing when the node's hardware clock reads `hw`.
    Timer {
        id: TimerId,
        hw: f64,
    },
    TopoChange {
        peer: NodeId,
        up: bool,
    },
}

impl QueuedKind {
    /// The [`EventKind`] this queued event is recorded as.
    fn record_kind(self) -> EventKind {
        match self {
            QueuedKind::Start => EventKind::Start,
            QueuedKind::Deliver { from, seq, .. } | QueuedKind::Handoff { from, seq, .. } => {
                EventKind::Deliver { from, seq }
            }
            QueuedKind::Timer { id, .. } => EventKind::Timer { id },
            QueuedKind::TopoChange { peer, up } => EventKind::TopologyChange { peer, up },
        }
    }
}

/// The low 31 bits of [`Queued::key`]: a sender or peer id.
const ID_MASK: u64 = (1 << 31) - 1;

impl Queued {
    /// Packs an event at `node`. Node, sender and peer ids must be below
    /// [`MAX_NODES`], which [`resolve`] checks at build.
    pub(crate) fn new(time: f64, node: NodeId, kind: QueuedKind) -> Self {
        debug_assert!(node < MAX_NODES);
        let (rank, x, sub, body) = match kind {
            QueuedKind::Start => (0, 0, 0, 0),
            QueuedKind::Deliver {
                from,
                seq,
                msg_index,
            } => (1, from, seq, (msg_index as u64) << 1),
            QueuedKind::Handoff { from, seq, slot } => (1, from, seq, (slot as u64) << 1 | 1),
            QueuedKind::Timer { id, hw } => (2, 0, id, hw.to_bits()),
            QueuedKind::TopoChange { peer, up } => (3, peer, u64::from(up), 0),
        };
        debug_assert!(x < MAX_NODES);
        Self {
            time,
            key: (node as u64) << 33 | rank << 31 | x as u64,
            sub,
            body,
        }
    }

    /// The node the event happens at.
    pub(crate) fn node(&self) -> NodeId {
        (self.key >> 33) as NodeId
    }

    /// Decodes the event.
    pub(crate) fn kind(&self) -> QueuedKind {
        let x = (self.key & ID_MASK) as NodeId;
        match (self.key >> 31) & 3 {
            0 => QueuedKind::Start,
            1 if self.body & 1 == 0 => QueuedKind::Deliver {
                from: x,
                seq: self.sub,
                msg_index: (self.body >> 1) as usize,
            },
            1 => QueuedKind::Handoff {
                from: x,
                seq: self.sub,
                slot: (self.body >> 1) as usize,
            },
            2 => QueuedKind::Timer {
                id: self.sub,
                hw: f64::from_bits(self.body),
            },
            _ => QueuedKind::TopoChange {
                peer: x,
                up: self.sub != 0,
            },
        }
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: both queues are max-first, we want earliest-first.
        // Event times are validated finite before they enter the queue,
        // but the ordering stays total anyway (IEEE total order as the
        // fallback): a stray NaN must surface as a typed error at its
        // source, never as a corrupted heap invariant here.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or_else(|| other.time.total_cmp(&self.time))
            .then_with(|| (other.key, other.sub).cmp(&(self.key, self.sub)))
    }
}

impl CalendarItem for Queued {
    fn axis(&self) -> f64 {
        self.time
    }
}

/// The event queue a [`Core`] runs on.
pub(crate) trait EventQueue: Default {
    fn push(&mut self, ev: Queued);
    /// Time of the next event.
    fn next_time(&mut self) -> Option<f64>;
    fn len(&self) -> usize;
}

impl EventQueue for BinaryHeap<Queued> {
    fn push(&mut self, ev: Queued) {
        BinaryHeap::push(self, ev);
    }
    fn next_time(&mut self) -> Option<f64> {
        self.peek().map(|ev| ev.time)
    }
    fn len(&self) -> usize {
        BinaryHeap::len(self)
    }
}

impl EventQueue for CalendarQueue<Queued> {
    fn push(&mut self, ev: Queued) {
        CalendarQueue::push(self, ev);
    }
    fn next_time(&mut self) -> Option<f64> {
        self.peek().map(|ev| ev.time)
    }
    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }
}

/// The types a [`Core`] is built from, fixed per engine at compile time.
pub(crate) trait Parts<M> {
    type Queue: EventQueue;
    type Node: Node<M> + ?Sized;
    type Clock: ClockSource + ?Sized;
    type Delay: DelayPolicy + ?Sized;
    type Tracer: Tracer;
}

/// A cross-shard message in transit at a window join: its delivery
/// event and the entry it takes in the receiving core's inbox.
pub(crate) struct Handoff<M> {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    seq: u64,
    pub(crate) arrival_time: f64,
    message: Inbound<M>,
}

/// A cross-shard message waiting in the receiving core's inbox.
struct Inbound<M> {
    send_time: f64,
    arrival_hw: f64,
    /// `(shard index, message slot)` in the sender's log.
    owner: (usize, usize),
    payload: M,
}

/// A status write-back for a message owned by another shard's log:
/// `(owner shard, slot, delivered?)`. `delivered == false` means the
/// message was dropped by a link outage.
pub(crate) type StatusUpdate = (usize, usize, bool);

/// Merge key reproducing the single-heap engine's message-log append
/// order: sends are appended per dispatched event (events are totally
/// ordered by `(time, tie_key)`), in action order within one event.
#[derive(Clone, Copy)]
pub(crate) struct MsgKey {
    send_time: f64,
    sender_key: (NodeId, u8, u64, u64),
    action_index: usize,
}

impl MsgKey {
    pub(crate) fn cmp(&self, other: &Self) -> Ordering {
        let rest = |k: &Self| (k.sender_key, k.action_index);
        self.send_time
            .total_cmp(&other.send_time)
            .then(rest(self).cmp(&rest(other)))
    }
}

/// What [`Core::dispatch`] did with an event.
pub(crate) enum Dispatch {
    /// The node's callback ran.
    Ran(EventRecord),
    /// A delivery whose tracked link went down in flight: the message was
    /// dropped and no callback ran.
    Dropped,
    /// The event counted past the core's dispatch limit; no callback ran.
    OverCap(EventRecord),
}

/// Marks a message delivered, or dropped with no arrival.
fn settle<M>(m: &mut MessageRecord<M>, delivered: bool) {
    if delivered {
        m.status = MessageStatus::Delivered;
    } else {
        m.status = MessageStatus::Dropped;
        m.arrival_time = None;
        m.arrival_hw = None;
    }
}

/// Stores `item` in a recycled slot of `slab`, or at its end, returning
/// the index.
fn place<T>(slab: &mut Vec<T>, free: &mut Vec<usize>, item: T) -> usize {
    match free.pop() {
        Some(slot) => {
            slab[slot] = item;
            slot
        }
        None => {
            slab.push(item);
            slab.len() - 1
        }
    }
}

/// One event queue and the state its events touch. See the module docs.
pub(crate) struct Core<M, P: Parts<M>> {
    /// Shard index (0 on the single heap): the owner tag of handoffs.
    index: usize,
    /// First owned node id; the core owns `lo..lo + nodes.len()`.
    pub(crate) lo: usize,
    nodes: Vec<Box<P::Node>>,
    neighbors: Vec<Vec<NodeId>>,
    next_timer: Vec<TimerId>,
    pub(crate) queue: P::Queue,
    pub(crate) clock: Box<P::Clock>,
    delay: Box<P::Delay>,
    /// Per owned sender, `(receiver, next sequence number)` for every
    /// receiver it has sent to, sorted by receiver: O(degree) per node,
    /// and sends outside the neighbor lists take the same path.
    send_seq: Vec<Vec<(NodeId, u64)>>,
    pub(crate) messages: Vec<MessageRecord<M>>,
    /// Recycled message slots (streaming mode): a delivered or dropped
    /// message's slot is reused by a later send, bounding the log by the
    /// peak in-flight count instead of the total sent.
    pub(crate) free_slots: Vec<usize>,
    /// Merge keys parallel to `messages`, kept by sharded recording runs
    /// to restore the single-heap log order at finalization.
    pub(crate) msg_keys: Option<Vec<MsgKey>>,
    inbox: Vec<Option<Inbound<M>>>,
    inbox_free: Vec<usize>,
    /// Sends to nodes this core does not own, drained at the window join.
    pub(crate) outbox: Vec<Handoff<M>>,
    /// Write-backs for foreign-owned messages, drained at the window join.
    pub(crate) status_updates: Vec<StatusUpdate>,
    /// Long-lived send/timer buffers reused across dispatches.
    actions: Actions<M>,
    /// Structured trace sink (see [`crate::trace`]); `None` costs one
    /// branch per hook.
    pub(crate) tracer: Option<P::Tracer>,
    /// Events this core dispatched.
    pub(crate) dispatched: u64,
    /// The `dispatched` count past which an event is [`Dispatch::OverCap`].
    pub(crate) limit: u64,
    pub(crate) peak_queued_events: usize,
    pub(crate) peak_message_slots: usize,
    pub(crate) dropped_loss: u64,
    pub(crate) dropped_link_down: u64,
}

impl<M, P: Parts<M>> Core<M, P> {
    /// A core owning `nodes`, whose ids start at `lo`. `keyed` keeps the
    /// message-log merge keys.
    pub(crate) fn new(
        index: usize,
        lo: usize,
        nodes: Vec<Box<P::Node>>,
        clock: Box<P::Clock>,
        delay: Box<P::Delay>,
        env: &Env,
        keyed: bool,
    ) -> Self {
        // In dynamic mode the live neighbor sets start from the view's
        // time-zero epoch and are updated as TopoChange events dispatch.
        let neighbors = (lo..lo + nodes.len())
            .map(|i| match &env.dynamic {
                Some(view) => view.neighbors_at(i, 0.0).to_vec(),
                None => env.topology.neighbors(i),
            })
            .collect();
        Self {
            index,
            lo,
            next_timer: vec![0; nodes.len()],
            send_seq: vec![Vec::new(); nodes.len()],
            nodes,
            neighbors,
            queue: P::Queue::default(),
            clock,
            delay,
            messages: Vec::new(),
            free_slots: Vec::new(),
            msg_keys: keyed.then(Vec::new),
            inbox: Vec::new(),
            inbox_free: Vec::new(),
            outbox: Vec::new(),
            status_updates: Vec::new(),
            actions: Actions::default(),
            tracer: None,
            dispatched: 0,
            limit: env.event_cap,
            peak_queued_events: 0,
            peak_message_slots: 0,
            dropped_loss: 0,
            dropped_link_down: 0,
        }
    }

    /// The number of owned nodes.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    fn owns(&self, node: NodeId) -> bool {
        node.wrapping_sub(self.lo) < self.nodes.len()
    }

    /// Enqueues an event, maintaining the queue-depth high-water mark.
    fn push(&mut self, time: f64, node: NodeId, kind: QueuedKind) {
        self.queue.push(Queued::new(time, node, kind));
        self.peak_queued_events = self.peak_queued_events.max(self.queue.len());
    }

    /// Enqueues the owned nodes' start events and, in dynamic mode, every
    /// scheduled link change notifying them. All changes are enqueued up
    /// front — a run has no final horizon; changes beyond wherever it
    /// stops simply never dispatch.
    pub(crate) fn enqueue_start(&mut self, env: &Env) {
        for node in self.lo..self.lo + self.len() {
            self.push(0.0, node, QueuedKind::Start);
        }
        // The hardware reading of a link change is computed at dispatch,
        // so enqueuing the whole churn timeline does not force a lazy
        // clock source to materialize its walk out to the last change.
        let changes = env.dynamic.iter().flat_map(DynamicTopology::edge_changes);
        for c in changes {
            for (node, peer, up) in [(c.a, c.b, c.up), (c.b, c.a, c.up)] {
                if self.owns(node) {
                    self.push(c.time, node, QueuedKind::TopoChange { peer, up });
                }
            }
        }
    }

    /// Applies a write-back from the shard that resolved one of this
    /// core's messages. Deferring it to the window join is safe: nothing
    /// reads a message's status before finalization, and a foreign-owned
    /// slot is only recycled *by* this write-back.
    pub(crate) fn settle_remote(&mut self, slot: usize, delivered: bool, env: &Env) {
        settle(&mut self.messages[slot], delivered);
        if !env.record_events {
            self.free_slots.push(slot);
        }
    }

    /// Enqueues a cross-shard delivery addressed to an owned node.
    pub(crate) fn accept(&mut self, h: Handoff<M>) {
        let slot = place(&mut self.inbox, &mut self.inbox_free, Some(h.message));
        let kind = QueuedKind::Handoff {
            from: h.from,
            seq: h.seq,
            slot,
        };
        self.push(h.arrival_time, h.to, kind);
    }
}

impl<M: Clone, P: Parts<M>> Core<M, P> {
    /// Dispatches one popped event against the owned nodes, whose logical
    /// trajectories are `trajectories` (indexed from `lo`). A non-finite
    /// delay or timer target produced by the callback's actions is a
    /// typed error.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn dispatch(
        &mut self,
        ev: Queued,
        env: &Env,
        trajectories: &mut [PiecewiseLinear],
    ) -> Result<Dispatch, SimError> {
        let (time, node, kind) = (ev.time, ev.node(), ev.kind());
        let local = node - self.lo;
        // The hardware reading at the event: fixed at start, the target
        // of a timer, the arrival reading held with a delivery's message,
        // and read from the clock now for a link change (see
        // `enqueue_start`).
        let (sent, hw) = match kind {
            QueuedKind::Start => (f64::NAN, 0.0),
            QueuedKind::Deliver { msg_index, .. } => {
                let m = &self.messages[msg_index];
                (m.send_time, m.arrival_hw.unwrap_or(f64::NAN))
            }
            QueuedKind::Handoff { slot, .. } => self.inbox[slot]
                .as_ref()
                .map_or((f64::NAN, f64::NAN), |m| (m.send_time, m.arrival_hw)),
            QueuedKind::Timer { hw, .. } => (f64::NAN, hw),
            QueuedKind::TopoChange { .. } => (f64::NAN, self.clock.value_at(node, time)),
        };

        // A due delivery whose tracked link went down in flight is
        // dropped before any callback runs.
        if let QueuedKind::Deliver { from, seq, .. } | QueuedKind::Handoff { from, seq, .. } = kind
        {
            if env.link_drops(from, node, sent, time) {
                self.take_delivery(kind, false, env);
                self.dropped_link_down += 1;
                if let Some(tr) = &mut self.tracer {
                    tr.record(&TraceEvent::Drop {
                        time,
                        from,
                        to: node,
                        seq,
                        send_time: sent,
                        reason: DropReason::LinkDown,
                    });
                }
                return Ok(Dispatch::Dropped);
            }
        }

        let record = EventRecord {
            time,
            node,
            hw,
            kind: kind.record_kind(),
        };
        self.dispatched += 1;
        if self.dispatched > self.limit {
            return Ok(Dispatch::OverCap(record));
        }

        // Topology changes mutate the live neighbor set before the node's
        // callback runs, so `Context::neighbors` reflects the new graph.
        if let QueuedKind::TopoChange { peer, up } = kind {
            let list = &mut self.neighbors[local];
            if up {
                if let Err(pos) = list.binary_search(&peer) {
                    list.insert(pos, peer);
                }
            } else if let Ok(pos) = list.binary_search(&peer) {
                list.remove(pos);
            }
        }

        // The core-owned action buffers are moved out for the duration of
        // the callback (the borrow checker cannot see through `self`) and
        // moved back — drained, capacity intact — afterwards.
        let mut actions = std::mem::take(&mut self.actions);
        {
            let payload = match kind {
                QueuedKind::Deliver { .. } | QueuedKind::Handoff { .. } => {
                    self.take_delivery(kind, true, env)
                }
                _ => None,
            };
            let mut ctx = Context::new(
                node,
                env.topology.len(),
                hw,
                &self.neighbors[local],
                &env.topology,
                &mut trajectories[local],
                &mut self.next_timer[local],
                &mut actions,
            );
            let target = &mut self.nodes[local];
            match kind {
                QueuedKind::Start => target.on_start(&mut ctx),
                QueuedKind::Deliver { from, .. } | QueuedKind::Handoff { from, .. } => {
                    let payload = payload.expect("a delivery carries a payload");
                    target.on_message(&mut ctx, from, &payload);
                }
                QueuedKind::Timer { id, .. } => target.on_timer(&mut ctx, id),
                QueuedKind::TopoChange { peer, up } => {
                    target.on_topology_change(&mut ctx, peer, up);
                }
            }
        }

        // The dispatch trace event fires after the callback (so the
        // logical reading reflects any adoption) but before the send
        // drain, keeping every `Send` after its causing event.
        if let Some(tr) = &mut self.tracer {
            let logical = trajectories[local].value_at(hw);
            tr.record(&match kind {
                QueuedKind::Start => TraceEvent::NodeStarted {
                    time,
                    node,
                    hw,
                    logical,
                },
                QueuedKind::Deliver { from, seq, .. } | QueuedKind::Handoff { from, seq, .. } => {
                    TraceEvent::Deliver {
                        time,
                        from,
                        to: node,
                        seq,
                        send_time: sent,
                        hw,
                        logical,
                    }
                }
                QueuedKind::Timer { id, .. } => TraceEvent::TimerFired {
                    time,
                    node,
                    id,
                    hw,
                    logical,
                },
                QueuedKind::TopoChange { peer, up } => TraceEvent::LinkChanged {
                    time,
                    node,
                    peer,
                    up,
                    hw,
                },
            });
        }

        // Drain both buffers fully even if an action errors (the buffers
        // are long-lived and must come back empty), reporting the first
        // error once the buffers are restored.
        let sender_key = record.kind.tie_key(node);
        let mut err = None;
        for (action_index, (to, payload)) in actions.sends.drain(..).enumerate() {
            if err.is_none() {
                let key = MsgKey {
                    send_time: time,
                    sender_key,
                    action_index,
                };
                err = self.send(env, node, to, payload, time, hw, key).err();
            }
        }
        for (id, target_hw) in actions.timers.drain(..) {
            if err.is_some() {
                continue;
            }
            let fire_time = if target_hw.is_finite() {
                self.clock.time_at_value(node, target_hw)
            } else {
                f64::NAN
            };
            if fire_time.is_finite() {
                self.push(fire_time, node, QueuedKind::Timer { id, hw: target_hw });
            } else {
                err = Some(SimError::NonFiniteTimer { node, target_hw });
            }
        }
        self.actions = actions;
        match err {
            Some(e) => Err(e),
            None => Ok(Dispatch::Ran(record)),
        }
    }

    /// Resolves a due delivery as delivered or dropped, returning the
    /// payload of a delivered one. Streaming mode recycles the message
    /// slot at once: it is consumed by this delivery and immediately
    /// reusable by the callback's sends.
    fn take_delivery(&mut self, kind: QueuedKind, delivered: bool, env: &Env) -> Option<M> {
        match kind {
            QueuedKind::Deliver { msg_index, .. } => {
                let m = &mut self.messages[msg_index];
                settle(m, delivered);
                let payload = delivered.then(|| m.payload.clone());
                if !env.record_events {
                    self.free_slots.push(msg_index);
                }
                payload
            }
            QueuedKind::Handoff { slot, .. } => {
                let inbound = self.inbox[slot]
                    .take()
                    .expect("a queued handoff holds its slot");
                self.inbox_free.push(slot);
                let (owner, owner_slot) = inbound.owner;
                self.status_updates.push((owner, owner_slot, delivered));
                delivered.then_some(inbound.payload)
            }
            _ => None,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        env: &Env,
        from: NodeId,
        to: NodeId,
        payload: M,
        time: f64,
        hw: f64,
        key: MsgKey,
    ) -> Result<(), SimError> {
        let counters = &mut self.send_seq[from - self.lo];
        let seq = match counters.binary_search_by_key(&to, |&(peer, _)| peer) {
            Ok(i) => {
                let next = &mut counters[i].1;
                *next += 1;
                *next - 1
            }
            Err(i) => {
                counters.insert(i, (to, 1));
                0
            }
        };

        let d = env.topology.distance(from, to);
        let non_finite = || SimError::NonFiniteDelay {
            from,
            to,
            send_time: time,
        };
        // Non-finite outcomes are typed errors (bad input, reportable);
        // finite-but-out-of-range outcomes stay model-violation panics (a
        // broken delay policy is a programming error, not a scenario).
        let arrival = match self.delay.decide(from, to, seq, time) {
            DelayOutcome::Delay(delay) => {
                if !delay.is_finite() {
                    return Err(non_finite());
                }
                assert!(
                    (0.0..=d + 1e-9).contains(&delay),
                    "delay policy violated the model: delay {delay} for \
                     {from}->{to} with distance {d}"
                );
                let t = time + delay;
                Some((t, self.clock.value_at(to, t)))
            }
            DelayOutcome::ArriveAt(t) => {
                if !t.is_finite() {
                    return Err(non_finite());
                }
                assert!(
                    t >= time - 1e-9 && t <= time + d + 1e-9,
                    "delay policy violated the model: arrival {t} for \
                     {from}->{to} sent at {time} with distance {d}"
                );
                Some((t, self.clock.value_at(to, t)))
            }
            DelayOutcome::ArriveAtHw(h) => {
                let t = if h.is_finite() {
                    self.clock.time_at_value(to, h)
                } else {
                    f64::NAN
                };
                if !t.is_finite() {
                    return Err(non_finite());
                }
                assert!(
                    t >= time - 1e-9 && t <= time + d + 1e-9,
                    "delay policy violated the model: hw arrival {h} (real \
                     {t}) for {from}->{to} sent at {time} with distance {d}"
                );
                Some((t, h))
            }
            DelayOutcome::Drop => None,
        };

        // Trace and count before any mode-specific bookkeeping, so the
        // event stream is identical in recorded and streaming mode.
        if let Some(tr) = &mut self.tracer {
            tr.record(&TraceEvent::Send {
                time,
                from,
                to,
                seq,
                hw,
                arrival: arrival.map(|(t, _)| t),
            });
            if arrival.is_none() {
                tr.record(&TraceEvent::Drop {
                    time,
                    from,
                    to,
                    seq,
                    send_time: time,
                    reason: DropReason::Loss,
                });
            }
        }
        if arrival.is_none() {
            self.dropped_loss += 1;
            if !env.record_events {
                // Streaming mode keeps no record and schedules no
                // delivery: the message is gone.
                return Ok(());
            }
        }

        // Every message starts `InFlight`; delivery (or a link outage)
        // resolves it at dispatch time, and `finish` reconciles whatever
        // is still in flight at the final horizon — which is what lets a
        // run be extended past any horizon chosen up front.
        let handoff = arrival.filter(|_| !self.owns(to)).map(|_| payload.clone());
        let record = MessageRecord {
            from,
            to,
            seq,
            send_time: time,
            send_hw: hw,
            arrival_time: arrival.map(|(t, _)| t),
            arrival_hw: arrival.map(|(_, h)| h),
            status: if arrival.is_some() {
                MessageStatus::InFlight
            } else {
                MessageStatus::Dropped
            },
            payload,
        };
        let msg_index = place(&mut self.messages, &mut self.free_slots, record);
        if let Some(keys) = &mut self.msg_keys {
            keys.resize(self.messages.len(), key);
            keys[msg_index] = key;
        }
        self.peak_message_slots = self
            .peak_message_slots
            .max(self.messages.len() - self.free_slots.len());

        if let Some((t, h)) = arrival {
            match handoff {
                None => {
                    let kind = QueuedKind::Deliver {
                        from,
                        seq,
                        msg_index,
                    };
                    self.push(t, to, kind);
                }
                Some(payload) => self.outbox.push(Handoff {
                    from,
                    to,
                    seq,
                    arrival_time: t,
                    message: Inbound {
                        send_time: time,
                        arrival_hw: h,
                        owner: (self.index, msg_index),
                        payload,
                    },
                }),
            }
        }
        Ok(())
    }
}

/// Rejects a NaN, infinite or negative run horizon.
pub(crate) fn check_horizon(horizon: f64) -> Result<(), SimError> {
    if horizon.is_finite() && horizon >= 0.0 {
        Ok(())
    } else {
        Err(SimError::InvalidHorizon { horizon })
    }
}

/// What both engines keep around their cores: the run configuration,
/// every node's logical trajectory, the recorded events, the observer
/// probe grid, and how far the run has been driven.
pub(crate) struct Run {
    pub(crate) env: Env,
    pub(crate) trajectories: Vec<PiecewiseLinear>,
    pub(crate) events: Vec<EventRecord>,
    started: bool,
    /// The time the run has been driven to: the max `run_until` horizon
    /// and the latest stepped event time. This becomes the horizon of
    /// the final [`Execution`].
    pub(crate) ran_to: f64,
    /// Probe `k` fires at `probe_from + k · every`, strictly after all
    /// events at or before that instant.
    probe_from: f64,
    pub(crate) probe_every: Option<f64>,
    next_probe: u64,
    /// High-water mark of the total trajectory breakpoints, sampled at
    /// each probe before streaming compaction — the worst case a
    /// streaming run held between compactions.
    pub(crate) peak_breakpoints: usize,
}

impl Run {
    /// Whether this is the first advance, whose caller enqueues the
    /// start events.
    pub(crate) fn start(&mut self) -> bool {
        !std::mem::replace(&mut self.started, true)
    }

    /// Restarts the probe grid at `from` with cadence `every`.
    ///
    /// # Panics
    ///
    /// Panics unless `every` is finite and strictly positive and `from`
    /// is finite and nonnegative.
    pub(crate) fn set_probes(&mut self, from: f64, every: f64) {
        assert!(
            every.is_finite() && every > 0.0,
            "probe interval must be positive, got {every}"
        );
        assert!(
            from.is_finite() && from >= 0.0,
            "probe start must be finite and nonnegative, got {from}"
        );
        self.probe_from = from;
        self.probe_every = Some(every);
        self.next_probe = 0;
    }

    /// Fires every probe due at or before `limit` (strictly before unless
    /// `inclusive`). Streaming mode compacts trajectories and the clock
    /// behind each probe: nothing can query earlier state afterwards.
    pub(crate) fn emit_probes(
        &mut self,
        limit: f64,
        inclusive: bool,
        clock: &dyn ClockSource,
        mut tracer: Option<&mut dyn Tracer>,
        observers: &mut [&mut dyn Observer],
    ) {
        let Some(every) = self.probe_every else {
            return;
        };
        loop {
            let t = self.probe_from + (self.next_probe as f64) * every;
            let due = if inclusive { t <= limit } else { t < limit };
            if !due {
                return;
            }
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record(&TraceEvent::ProbeFired {
                    time: t,
                    index: self.next_probe,
                });
            }
            self.next_probe += 1;
            let breakpoints: usize = self
                .trajectories
                .iter()
                .map(|t| t.breakpoints().len())
                .sum();
            self.peak_breakpoints = self.peak_breakpoints.max(breakpoints);
            if !self.env.record_events {
                for (i, traj) in self.trajectories.iter_mut().enumerate() {
                    traj.compact_before(clock.value_at(i, t));
                }
                // A windowing clock source drops schedule segments behind
                // the frontier too (no-op for eager sources).
                clock.compact_before(t);
            }
            let view = Probe::new(t, &self.env.topology, clock, &self.trajectories);
            for obs in observers.iter_mut() {
                obs.on_probe(&view);
            }
        }
    }

    /// Streams one dispatched record through `observers` and keeps it
    /// when recording.
    pub(crate) fn observe(
        &mut self,
        record: &EventRecord,
        clock: &dyn ClockSource,
        observers: &mut [&mut dyn Observer],
    ) {
        if !observers.is_empty() {
            let view = Probe::new(record.time, &self.env.topology, clock, &self.trajectories);
            for obs in observers.iter_mut() {
                obs.on_event(&view, record);
            }
        }
        if self.env.record_events {
            self.events.push(record.clone());
        }
    }

    /// Finalizes the run into its recorded [`Execution`].
    ///
    /// In dynamic mode a message only crosses a tracked link that stays
    /// up from send to arrival. Deliveries inside the horizon were
    /// already resolved at dispatch; for messages still in flight, only
    /// churn at or before the horizon counts — a link failing beyond the
    /// simulated window must not leak post-horizon information into the
    /// record.
    pub(crate) fn finish<M>(
        self,
        clock: &dyn ClockSource,
        mut messages: Vec<MessageRecord<M>>,
    ) -> Execution<M> {
        let Run {
            env,
            trajectories,
            events,
            ran_to,
            ..
        } = self;
        if !env.record_events {
            // Streaming mode: slots were recycled, so the log's contents
            // are not a coherent message history — the execution carries
            // the run's shape (topology, schedules, horizon, trajectories)
            // for metric consumers only, and there is nothing to
            // reconcile.
            messages.clear();
        }
        for m in &mut messages {
            if let (MessageStatus::InFlight, Some(arrival)) = (m.status, m.arrival_time) {
                if env.link_drops(m.from, m.to, m.send_time, arrival.min(ran_to)) {
                    settle(m, false);
                }
            }
        }
        // Materialize the clock prefix the run touched: eager sources
        // return their schedule vector unchanged; lazy sources regenerate
        // `[0, horizon]` from the seed, bit-identical to the eager
        // construction of the same walk.
        let schedules = clock.materialize_prefix(ran_to);
        Execution::new(
            env.topology,
            schedules,
            ran_to,
            events,
            messages,
            trajectories,
            env.dynamic,
        )
        .with_drop_in_flight(env.drop_on_link_down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn queued_entries_fit_in_32_bytes() {
        assert!(std::mem::size_of::<Queued>() <= 32);
    }

    #[test]
    fn node_counts_past_the_packed_fields_are_typed_errors() {
        assert_eq!(check_node_count(MAX_NODES), Ok(()));
        assert_eq!(
            check_node_count(MAX_NODES + 1),
            Err(SimError::TooManyNodes {
                nodes: MAX_NODES + 1,
                max: MAX_NODES,
            })
        );
    }

    #[test]
    fn handoffs_and_local_deliveries_order_by_sequence_alone() {
        // Same receiver, sender and instant: only `seq` decides, whether
        // the message waits in the log or in the inbox.
        let deliver = Queued::new(
            2.0,
            5,
            QueuedKind::Deliver {
                from: 3,
                seq: 7,
                msg_index: 0,
            },
        );
        let handoff = Queued::new(
            2.0,
            5,
            QueuedKind::Handoff {
                from: 3,
                seq: 6,
                slot: 9,
            },
        );
        // Reversed: the earlier event compares greater.
        assert_eq!(handoff.cmp(&deliver), Ordering::Greater);
    }

    /// An id from a few small values, which makes shared key prefixes
    /// common, or the largest one the packing allows.
    fn id(pick: u8) -> NodeId {
        [0, 1, 2, MAX_NODES - 1][usize::from(pick % 4)]
    }

    /// A sequence number or timer id, small or extreme.
    fn counter(pick: u8) -> u64 {
        [0, 1, 2, u64::MAX][usize::from(pick % 4)]
    }

    /// A random event of any kind: `(time, node, kind)`. Times come from
    /// a three-point grid, so equal times are common.
    fn event() -> impl Strategy<Value = (f64, NodeId, QueuedKind)> {
        (0u8..3, 0u8..4, 0u8..5, 0u8..4, 0u8..4, 0usize..1 << 40).prop_map(
            |(t, node, rank, x, sub, slot)| {
                let kind = match rank {
                    0 => QueuedKind::Start,
                    1 => QueuedKind::Deliver {
                        from: id(x),
                        seq: counter(sub),
                        msg_index: slot,
                    },
                    2 => QueuedKind::Handoff {
                        from: id(x),
                        seq: counter(sub),
                        slot,
                    },
                    3 => QueuedKind::Timer {
                        id: counter(sub),
                        hw: slot as f64 * 0.5 - 3.0,
                    },
                    _ => QueuedKind::TopoChange {
                        peer: id(x),
                        up: sub % 2 == 1,
                    },
                };
                (f64::from(t) * 0.5, id(node), kind)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        fn packed_entries_order_by_time_then_tie_key(a in event(), b in event()) {
            let (qa, qb) = (Queued::new(a.0, a.1, a.2), Queued::new(b.0, b.1, b.2));
            prop_assert_eq!((qa.node(), qa.kind()), (a.1, a.2));
            prop_assert_eq!((qb.node(), qb.kind()), (b.1, b.2));
            let key = |(time, node, kind): (f64, NodeId, QueuedKind)| {
                (time, kind.record_kind().tie_key(node))
            };
            let ((ta, ka), (tb, kb)) = (key(a), key(b));
            // Reversed, as both queues are max-first.
            let expected = tb.total_cmp(&ta).then(kb.cmp(&ka));
            prop_assert_eq!(qa.cmp(&qb), expected);
        }
    }
}
