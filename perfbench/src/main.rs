//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` seconds, checks its outputs,
//! and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the workload is run
//! again through layer decorators (see [`ledger`]) and the metrics are
//! the per-layer ones. See `README.md` beside this crate for the metric
//! definitions and the layer → metric → workload map.

mod ledger;
mod lowerbound;
mod rgg;
mod ring;
mod timed;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(1..=600).contains(&s) {
                        return Err(format!("--seconds must be in 1..=600, got {s}"));
                    }
                    seconds = Some(Duration::from_secs(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What a workload hands back: operation counts and named metrics.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (simulation passes, or daemon reads).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metric name → value, in the unit [`END_TO_END`] or [`PER_LAYER`]
    /// gives it.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one operation and whether its output check passed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("sim.self_ns_per_event", "ns"),
    ("sim.peak_queued_events", "count"),
    ("sim.peak_message_slots", "count"),
    ("sim.dropped_link_down", "count"),
    ("shard.self_ns_per_event", "ns"),
    ("shard.lookahead", "sim_s"),
    ("shard.events_per_s", "1/s"),
    ("algorithms.calls.start", "count"),
    ("algorithms.calls.message", "count"),
    ("algorithms.calls.timer", "count"),
    ("algorithms.calls.topology", "count"),
    ("algorithms.ns_per_call", "ns"),
    ("clocks.calls_per_event", "count"),
    ("clocks.ns_per_call", "ns"),
    ("clocks.peak_live_segments", "count"),
    ("net.decide_calls", "count"),
    ("net.ns_per_decide", "ns"),
    ("net.topology_build_s", "s"),
    ("dynamic.view_build_s", "s"),
    ("dynamic.link_changes", "count"),
    ("observers.probes", "count"),
    ("observers.ns_per_probe", "ns"),
    ("observers.ns_per_event", "ns"),
    ("telemetry.records", "count"),
    ("telemetry.ns_per_record", "ns"),
    ("core.nominal_s", "s"),
    ("core.add_skew_s", "s"),
    ("core.replay_s", "s"),
    ("core.prefix_check_s", "s"),
    ("core.replayed_events", "count"),
    ("timed.advance_ns_per_seal", "ns"),
    ("timed.encode_ns_per_epoch", "ns"),
    ("timed.seals", "count"),
    ("timed.requests", "count"),
    ("timed.bytes_out", "bytes"),
    ("timed.client_io_ns_per_req", "ns"),
    ("timed.gen_lag_p99_us", "us"),
    ("timed.read_p99_us", "us"),
    ("timed.read_p999_us", "us"),
    ("timed.max_rate_rps", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// Process-lifetime peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The `q`-quantile (0..=1) of `xs` by nearest rank; `xs` need not be
/// sorted. NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = (q * (v.len() - 1) as f64).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// The median of `xs`: the mean of the middle two for an even count, so
/// "higher is better" and "lower is better" series agree. NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// FNV-1a over bytes: a stable digest for output fingerprints.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn print_result(report: &Report, trace: bool) -> Result<(), String> {
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    if let Some(name) = report
        .metrics
        .keys()
        .find(|name| !wanted.iter().any(|(w, _)| w == *name))
    {
        return Err(format!("metric {name} is not in this mode's list"));
    }
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = report.attempted > 0 && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "rgg100k-churn" => rgg::run(&args),
        "ring1k-sweep-cell" => ring::run(&args),
        "lowerbound-line257" => lowerbound::run(&args),
        "timed-openloop" => timed::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    match print_result(&report, args.trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
