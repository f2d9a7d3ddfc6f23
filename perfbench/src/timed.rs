//! `timed-openloop`: the `gcs-timed` daemon on loopback, serving a
//! 16-node gradient ring. One generator thread drives it open loop over
//! one pipelined connection with raw `READ_INTERVAL` frames, up a rate
//! ladder; each read is timed from its scheduled send instant, so a
//! stall is charged to every request it delays.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gcs_algorithms::{AlgorithmKind, SyncMsg};
use gcs_clocks::drift::DriftModel;
use gcs_clocks::{DriftBound, LazyDriftSource};
use gcs_net::{Topology, UniformDelay};
use gcs_sim::SimulationBuilder;
use gcs_timed::wire::{self, op, Decoded};
use gcs_timed::{ServerConfig, ServerHandle, TimeService, TimedClient, TimedParams, TimedServer};

use crate::ledger::{nanos, Layers, Ledger};
use crate::{median, peak_rss_mib, quantile, secs, Args, Report};

const NODES: usize = 16;
const RHO: f64 = 0.01;
/// Simulated seconds per wall second (the daemon's default).
const PACE: f64 = 50.0;
/// Far beyond any run, so the daemon seals for the whole run.
const HORIZON: f64 = 1.0e5;
/// The reference rung first, then the ladder, in requests per second.
const LADDER: [(f64, f64); 4] = [
    (20_000.0, 1.0),
    (100_000.0, 0.4),
    (200_000.0, 0.25),
    (300_000.0, 0.25),
];
/// The closed-loop capacity rung: requests kept in flight, and length.
const WINDOW: u64 = 1024;
const CAPACITY_S: f64 = 0.3;
/// The latency limit a rung's p99 must meet.
const LIMIT_US: f64 = 1000.0;
/// How long after its last send a rung waits for replies.
const DRAIN: Duration = Duration::from_secs(3);
/// Daemon set-ups timed per run.
const SETUPS: usize = 25;
/// Simulated time the offline service drive covers in a traced run.
const DRIVE_SIM_S: f64 = 20_000.0;

fn service(seed: u64, layers: Option<&Layers>) -> TimeService<SyncMsg> {
    let topology = Topology::ring(NODES);
    let model = DriftModel::new(DriftBound::new(RHO).expect("valid rho"), 5.0, 0.002);
    let source = LazyDriftSource::new(model, seed, NODES).with_walk_horizon(HORIZON);
    let delay = UniformDelay::new(0.2, 0.8, seed);
    let kind = AlgorithmKind::Gradient {
        period: 1.0,
        kappa: 0.5,
    };
    let builder = SimulationBuilder::new(topology).record_events(false);
    let sim = match layers {
        None => builder
            .drift_source(source)
            .delay_policy(delay)
            .build_with(|id, n| kind.build(id, n)),
        Some(l) => builder
            .drift_source(l.clock(source))
            .delay_policy(l.delay(delay))
            .build_with(|id, n| l.node(kind.build(id, n), id)),
    }
    .expect("the service ring builds");
    TimeService::with_sim(
        sim,
        TimedParams {
            rho: RHO,
            ..TimedParams::default()
        },
    )
}

fn spawn(seed: u64) -> ServerHandle {
    let config = ServerConfig {
        pace: PACE,
        horizon: HORIZON,
        ..ServerConfig::default()
    };
    TimedServer::spawn("127.0.0.1:0", config, move || service(seed, None))
        .expect("the daemon binds a loopback port")
}

/// Seconds from spawning the daemon to its first successful read.
fn setup_once(seed: u64) -> (f64, bool) {
    let t0 = Instant::now();
    let handle = spawn(seed);
    let read = TimedClient::connect(handle.addr()).and_then(|mut c| c.read_interval());
    let s = secs(t0);
    let report = handle.shutdown();
    let ok = read.is_ok_and(|r| r.lo <= r.hi) && report.errors == 0;
    (s, ok)
}

/// One rung's measurements.
#[derive(Default)]
struct Rung {
    sent: u64,
    received: u64,
    failed: u64,
    latencies_us: Vec<f64>,
    lags_us: Vec<f64>,
    /// Generator nanoseconds in reads and writes that moved bytes.
    io_ns: u64,
    backlog_at_end: u64,
    /// Seconds from the rung's start to its last reply.
    last_reply_s: f64,
}

impl Rung {
    fn p99(&self) -> f64 {
        quantile(&self.latencies_us, 0.99)
    }

    /// Meets the latency limit with no failures and no growing backlog:
    /// when sending stops, nothing older than the limit is unanswered.
    fn holds(&self, rate: f64) -> bool {
        self.failed == 0
            && self.p99() <= LIMIT_US
            && self.backlog_at_end as f64 <= (rate * LIMIT_US * 1e-6).max(1.0)
    }
}

/// What every reply must satisfy, across the whole connection.
struct Contract {
    last_epoch: u64,
    last_lo: f64,
    last_cluster: f64,
}

impl Contract {
    fn accepts(&mut self, frame_op: u8, payload: &[u8]) -> bool {
        if frame_op != op::READ_INTERVAL {
            return false;
        }
        let Some(read) = wire::decode_interval(payload) else {
            return false;
        };
        let ok = read.lo <= read.hi
            && read.epoch >= self.last_epoch
            && read.lo >= self.last_lo
            && read.cluster_time >= self.last_cluster;
        self.last_epoch = read.epoch;
        self.last_lo = read.lo;
        self.last_cluster = read.cluster_time;
        ok
    }
}

/// How a rung paces its requests.
#[derive(Clone, Copy)]
enum Pace {
    /// Open loop: request `i` is due `i / rate` seconds after the start.
    Open(f64),
    /// Closed loop: keep this many requests in flight.
    Window(u64),
}

/// Drives one rung for `seconds`; request `i` carries id `first_id + i`
/// and replies arrive in order. Open-loop reads are timed from the
/// instant they were due.
fn rung(
    stream: &mut TcpStream,
    contract: &mut Contract,
    first_id: u64,
    pace: Pace,
    seconds: f64,
) -> Rung {
    let total = match pace {
        Pace::Open(rate) => (rate * seconds) as u64,
        Pace::Window(_) => u64::MAX,
    };
    let mut r = Rung::default();
    let mut wbuf: Vec<u8> = Vec::new();
    let mut written = 0usize;
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let start = Instant::now();
    let due_at = |i: u64| match pace {
        Pace::Open(rate) => i as f64 / rate,
        Pace::Window(_) => f64::NAN,
    };
    let deadline = seconds + DRAIN.as_secs_f64();
    let mut backlog = None;
    let mut now;
    loop {
        now = secs(start);
        let (due, done_sending) = match pace {
            Pace::Open(rate) => (((now * rate) as u64 + 1).min(total), r.sent == total),
            Pace::Window(w) if now < seconds => (r.received + w, false),
            Pace::Window(_) => (r.sent, true),
        };
        while r.sent < due {
            wire::encode_request(op::READ_INTERVAL, first_id + r.sent, &mut wbuf);
            if let Pace::Open(_) = pace {
                r.lags_us.push((now - due_at(r.sent)) * 1e6);
            }
            r.sent += 1;
        }
        if backlog.is_none() && done_sending && now >= seconds {
            backlog = Some(r.sent - r.received);
        }
        if written < wbuf.len() {
            let t0 = Instant::now();
            match stream.write(&wbuf[written..]) {
                Ok(n) => {
                    r.io_ns += nanos(t0);
                    written += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => break,
            }
            if written == wbuf.len() {
                wbuf.clear();
                written = 0;
            }
        }
        let t0 = Instant::now();
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                r.io_ns += nanos(t0);
                rbuf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(_) => break,
        }
        let arrived = secs(start);
        let mut consumed = 0;
        while let Decoded::Frame(frame) = wire::decode_frame(&rbuf[consumed..]) {
            let i = frame.req_id.wrapping_sub(first_id);
            if i != r.received || !contract.accepts(frame.op, frame.payload) {
                r.failed += 1;
            }
            if let Pace::Open(_) = pace {
                r.latencies_us.push((arrived - due_at(i.min(total))) * 1e6);
            }
            r.received += 1;
            r.last_reply_s = arrived;
            consumed += frame.consumed;
        }
        rbuf.drain(..consumed);
        if (done_sending && r.received == r.sent) || now > deadline {
            break;
        }
    }
    r.backlog_at_end = backlog.unwrap_or(r.sent - r.received);
    // Requests never sent or answered within the drain time are failures.
    r.failed += match pace {
        Pace::Open(_) => total - r.received.min(total),
        Pace::Window(_) => r.sent - r.received,
    };
    r
}

/// One climb of the ladder, then the closed-loop capacity rung.
struct Ladder {
    rungs: Vec<Rung>,
    max_rate: f64,
    /// Reads per second with [`WINDOW`] requests kept in flight.
    capacity_rps: f64,
}

fn ladder(stream: &mut TcpStream, contract: &mut Contract, next_id: &mut u64) -> Ladder {
    let mut rungs = Vec::new();
    let paces = LADDER
        .iter()
        .map(|&(rate, seconds)| (Pace::Open(rate), seconds))
        .chain([(Pace::Window(WINDOW), CAPACITY_S)]);
    for (pace, seconds) in paces {
        let r = rung(stream, contract, *next_id, pace, seconds);
        *next_id += r.sent;
        rungs.push(r);
        // Let the daemon go idle between rungs.
        std::thread::sleep(Duration::from_millis(20));
    }
    let max_rate = LADDER
        .iter()
        .zip(&rungs)
        .filter(|((rate, _), r)| r.holds(*rate))
        .map(|((rate, _), _)| *rate)
        .fold(0.0, f64::max);
    let capacity = &rungs[LADDER.len()];
    Ladder {
        capacity_rps: capacity.received as f64 / capacity.last_reply_s,
        rungs,
        max_rate,
    }
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("loopback connect");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream.set_nonblocking(true).expect("set nonblocking");
    stream
}

/// Ladders for about `seconds`, on one daemon and one connection.
struct Session {
    ladders: Vec<Ladder>,
    attempted: u64,
    failed: u64,
    requests: u64,
    bytes_out: u64,
    seals: u64,
    /// Peak resident set after the first ladder.
    peak_rss_first: f64,
    ok: bool,
}

fn session(seed: u64, seconds: f64, max_ladders: usize) -> Session {
    let start = Instant::now();
    let handle = spawn(seed);
    let mut stream = connect(&handle);
    let mut next_id = 1;
    let mut contract = Contract {
        last_epoch: 0,
        last_lo: f64::NEG_INFINITY,
        last_cluster: f64::NEG_INFINITY,
    };
    let mut ladders: Vec<Ladder> = Vec::new();
    let mut last = 0.0;
    let mut peak_rss_first = f64::NAN;
    while ladders.is_empty() || (ladders.len() < max_ladders && secs(start) + last <= seconds) {
        let t0 = Instant::now();
        ladders.push(ladder(&mut stream, &mut contract, &mut next_id));
        last = secs(t0);
        if ladders.len() == 1 {
            peak_rss_first = peak_rss_mib();
        }
    }
    drop(stream);
    let report = handle.shutdown();
    let attempted: u64 = ladders.iter().flat_map(|l| &l.rungs).map(|r| r.sent).sum();
    let failed: u64 = ladders
        .iter()
        .flat_map(|l| &l.rungs)
        .map(|r| r.failed)
        .sum();
    let ok = report.stats.containment_violations == 0
        && report.errors == 0
        && report.requests == attempted;
    if !ok {
        eprintln!(
            "timed-openloop: session check failed: {} containment violations, {} errors, \
             {} of {attempted} requests answered",
            report.stats.containment_violations, report.errors, report.requests
        );
    }
    Session {
        ladders,
        attempted,
        failed,
        requests: report.requests,
        bytes_out: report.metrics.counter("server/bytes_out"),
        seals: report.stats.seals,
        peak_rss_first,
        ok,
    }
}

fn reference(s: &Session, f: impl Fn(&Rung) -> f64) -> f64 {
    median(&s.ladders.iter().map(|l| f(&l.rungs[0])).collect::<Vec<_>>())
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut setup_ok = true;
    for _ in 0..SETUPS {
        let (s, ok) = setup_once(args.seed);
        setups.push(s);
        setup_ok &= ok;
    }
    let s = session(args.seed, args.seconds.as_secs_f64(), usize::MAX);
    for (k, l) in s.ladders.iter().enumerate() {
        let p99s: Vec<String> = l.rungs.iter().map(|r| format!("{:.0}", r.p99())).collect();
        println!(
            "ladder {k}: p50 {:.1} us at the reference rate; p99 per rung [{}] us; max rate {}; \
             capacity {:.0} reads/s",
            median(&l.rungs[0].latencies_us),
            p99s[..LADDER.len()].join(", "),
            l.max_rate,
            l.capacity_rps,
        );
    }
    report.attempted = s.attempted;
    report.failed = s.failed + u64::from(!s.ok || !setup_ok);
    report.set("setup_s", median(&setups));
    report.set(
        "events_per_s",
        median(&s.ladders.iter().map(|l| l.capacity_rps).collect::<Vec<_>>()),
    );
    report.set(
        "op_p50_ms",
        reference(&s, |r| median(&r.latencies_us)) * 1e-3,
    );
    report.set("peak_rss_mib", s.peak_rss_first);
    report
}

/// Drives a service offline in seal-sized steps, as the daemon does,
/// timing `advance_to` and the per-epoch response encoding.
struct Drive {
    advance_s: f64,
    encode_s: f64,
    seals: u64,
    total_s: f64,
    digest: u64,
    ok: bool,
}

fn drive(seed: u64, layers: Option<&Layers>) -> Drive {
    let t_total = Instant::now();
    let mut svc = service(seed, layers);
    let step = svc.params().seal_every;
    let (mut advance_s, mut encode_s, mut seals) = (0.0, 0.0, 0u64);
    let mut digest = 0u64;
    let mut frame = Vec::new();
    let mut t = step;
    while t <= DRIVE_SIM_S {
        let t0 = Instant::now();
        let sealed = svc.advance_to(t);
        advance_s += secs(t0);
        if sealed > 0 {
            seals += sealed as u64;
            let t0 = Instant::now();
            let snap = svc.snapshot();
            frame.clear();
            wire::encode_frame(
                op::READ_INTERVAL,
                0,
                &wire::interval_payload(&snap),
                &mut frame,
            );
            wire::encode_frame(op::NOW, 0, &wire::now_payload(&snap), &mut frame);
            encode_s += secs(t0);
            digest = digest.rotate_left(5) ^ crate::fnv(&frame);
        }
        t += step;
    }
    let stats = svc.stats();
    let ok = stats.containment_violations == 0 && seals > 0;
    drop(svc);
    Drive {
        advance_s,
        encode_s,
        seals,
        total_s: secs(t_total),
        digest,
        ok,
    }
}

/// One ladder session for the daemon's own counters and tail latencies,
/// then an offline service drive, plain and decorated; the decorated
/// drive must seal the same snapshots bit for bit.
fn traced(args: &Args) -> Report {
    let mut report = Report::default();
    let s = session(args.seed, args.seconds.as_secs_f64() / 2.0, usize::MAX);
    report.op(s.ok && s.failed == 0);
    let plain = drive(args.seed, None);
    let layers = Layers::default();
    let d = drive(args.seed, Some(&layers));
    let same = d.digest == plain.digest && d.seals == plain.seals;
    if !same {
        eprintln!("timed-openloop: decorated service sealed different snapshots");
    }

    let mut ledger = Ledger::new("timed-openloop (offline service drive)", d.total_s);
    let advance_self = ledger.run_rows(
        "timed.advance (engine+seal)",
        d.advance_s,
        layers.rows("", 1.0),
    );
    ledger.row("timed.encode", d.encode_s);
    print!("{}", ledger.render());
    report.op(plain.ok && d.ok && same && ledger.reconciles());

    // Every dispatched event reaches exactly one node callback.
    let events = layers.algorithms.total_calls() as f64;
    report.set("sim.self_ns_per_event", advance_self * 1e9 / events);
    layers.report_sim_layers(&mut report, events);
    let requests = s
        .ladders
        .iter()
        .flat_map(|l| &l.rungs)
        .map(|r| r.sent)
        .sum::<u64>();
    let io_ns = s
        .ladders
        .iter()
        .flat_map(|l| &l.rungs)
        .map(|r| r.io_ns)
        .sum::<u64>();
    report.set(
        "timed.advance_ns_per_seal",
        plain.advance_s * 1e9 / plain.seals as f64,
    );
    report.set(
        "timed.encode_ns_per_epoch",
        plain.encode_s * 1e9 / plain.seals as f64,
    );
    report.set("timed.seals", s.seals as f64);
    report.set("timed.requests", s.requests as f64);
    report.set("timed.bytes_out", s.bytes_out as f64);
    report.set("timed.client_io_ns_per_req", io_ns as f64 / requests as f64);
    report.set(
        "timed.gen_lag_p99_us",
        reference(&s, |r| quantile(&r.lags_us, 0.99)),
    );
    report.set("timed.read_p99_us", reference(&s, Rung::p99));
    report.set(
        "timed.read_p999_us",
        reference(&s, |r| quantile(&r.latencies_us, 0.999)),
    );
    report.set(
        "timed.max_rate_rps",
        median(&s.ladders.iter().map(|l| l.max_rate).collect::<Vec<_>>()),
    );
    report.set("trace.overhead_frac", d.total_s / plain.total_s - 1.0);
    report.set("trace.unattributed_frac", ledger.unattributed_frac());
    report
}
