//! The repository benchmark: three workloads over the workspace's
//! layers, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced run. See `perfbench/README.md`.

pub mod market;
pub mod overlay;
pub mod service;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// One metric of `BENCHMARK.json`: name, unit and which direction is
/// better.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// The end-to-end metrics every workload reports from its untraced run.
pub const END_TO_END: [Metric; 8] = [
    m("setup_s", "s", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("latency_p50_us", "us", "lower"),
    m("latency_p99_us", "us", "lower"),
    m("checkpoint_s", "s", "lower"),
    m("restore_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("ok_share", "share", "higher"),
];

/// The per-layer metrics of the traced run. Every workload reports all
/// of them; a layer the workload bypasses reads 0.
pub const PER_LAYER: [Metric; 65] = [
    // market
    m("market.sim.new_s", "s", "lower"),
    m("market.sim.run_s", "s", "lower"),
    m("market.sim.sessions", "count", "higher"),
    m("market.sim.trades", "count", "higher"),
    m("market.sim.no_trade", "count", "lower"),
    m("market.sim.witness_attempted", "count", "higher"),
    m("market.sim.witness_delivered", "count", "higher"),
    m("market.strategy.plan_p50_us", "us", "lower"),
    m("market.strategy.plan_p99_us", "us", "lower"),
    m("market.population.predict_ns", "ns", "lower"),
    m("market.population.record_us", "us", "lower"),
    m("market.metrics.accuracy_s", "s", "lower"),
    m("market.bytes_per_agent", "B", "lower"),
    // overlay
    m("reputation.pgrid.build_s", "s", "lower"),
    m("reputation.pgrid.meetings", "count", "lower"),
    m("reputation.pgrid.seed_s", "s", "lower"),
    m("reputation.pgrid.query_p50_us", "us", "lower"),
    m("reputation.pgrid.query_p99_us", "us", "lower"),
    m("reputation.pgrid.insert_p50_us", "us", "lower"),
    m("reputation.pgrid.insert_p99_us", "us", "lower"),
    m("reputation.pgrid.join_p50_us", "us", "lower"),
    m("reputation.pgrid.join_p99_us", "us", "lower"),
    m("reputation.pgrid.leave_p50_us", "us", "lower"),
    m("reputation.pgrid.leave_p99_us", "us", "lower"),
    m("reputation.pgrid.hops_mean", "hops", "lower"),
    m("reputation.pgrid.bytes_per_peer", "B", "lower"),
    m("netsim.net.sent", "count", "lower"),
    m("netsim.net.dropped", "count", "lower"),
    m("netsim.net.sent.route", "count", "lower"),
    m("netsim.net.dropped.route", "count", "lower"),
    m("netsim.net.sent.replicate", "count", "lower"),
    m("netsim.net.dropped.replicate", "count", "lower"),
    m("netsim.net.sent.replica_query", "count", "lower"),
    m("netsim.net.dropped.replica_query", "count", "lower"),
    m("netsim.net.msgs_per_op", "msgs/op", "lower"),
    m("netsim.net.retry_share", "share", "lower"),
    m("netsim.fault.decisions", "count", "lower"),
    // persist (all workloads checkpoint their state)
    m("persist.snapshot.encode_s", "s", "lower"),
    m("persist.snapshot.decode_s", "s", "lower"),
    m("persist.snapshot.bytes", "B", "lower"),
    // service
    m("trust.evidence_log.replay_s", "s", "lower"),
    m("trust.evidence_log.frames", "count", "lower"),
    m("trust.evidence_log.duplicates", "count", "lower"),
    m("trust.engine.submit_batch_s", "s", "lower"),
    m("trust.engine.warm_publish_s", "s", "lower"),
    m("trust.engine.predict_row_p50_us", "us", "lower"),
    m("trust.engine.predict_row_p99_us", "us", "lower"),
    m("trust.engine.submit_ns", "ns", "lower"),
    m("trust.engine.publish_us", "us", "lower"),
    m("trust.engine.pending_max", "count", "lower"),
    m("trust.engine.epochs", "count", "higher"),
    m("trust.engine.predictions", "count", "higher"),
    m("netsim.pool.busy_share", "share", "higher"),
    // every workload
    m("failed_share", "share", "lower"),
    m("trace.overhead_share", "share", "lower"),
    m("bench.self_s", "s", "lower"),
    m("market.sim.self_s", "s", "lower"),
    m("market.strategy.self_s", "s", "lower"),
    m("market.population.self_s", "s", "lower"),
    m("market.metrics.self_s", "s", "lower"),
    m("reputation.pgrid.self_s", "s", "lower"),
    m("trust.evidence_log.self_s", "s", "lower"),
    m("trust.engine.self_s", "s", "lower"),
    m("netsim.pool.self_s", "s", "lower"),
    m("persist.snapshot.self_s", "s", "lower"),
];

/// How big a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes, with the measured work sized to take about
    /// `seconds` on a 2-core host.
    Full { seconds: u64 },
    /// Seconds-scale sizes for the benchmark's own tests (debug builds).
    Reduced,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (see each workload for what counts).
    pub failed: u64,
    /// Output checks, `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Deterministic work counts: a pure function of the workload
    /// parameters and the seed, equal at every thread count.
    pub counts: Vec<(&'static str, u64)>,
    /// End-to-end metrics, named as in [`END_TO_END`] (peak RSS is
    /// process-wide and added by the caller).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Workload-specific per-layer metrics (all of them in traced runs;
    /// untraced runs fill only the memory ones).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Sets the end-to-end metrics shared by every workload.
    fn set_end_to_end(
        &mut self,
        setup: &[f64],
        chunks: &Chunks,
        checkpoint: &[f64],
        restore: &[f64],
    ) {
        let ok = 1.0 - self.failed_share();
        let e = &mut self.end_to_end;
        e.insert("setup_s", median(setup));
        e.insert("ops_per_s", median(&chunks.rates));
        e.insert("latency_p50_us", median(&chunks.p50_us));
        e.insert("latency_p99_us", median(&chunks.p99_us));
        e.insert("checkpoint_s", median(checkpoint));
        e.insert("restore_s", median(restore));
        e.insert("ok_share", ok);
        self.layer
            .insert("trace.overhead_share", chunks.trace_overhead());
    }
}

/// The measured work, cut into chunks of similar work. End-to-end
/// throughput and latency percentiles are medians over chunks, so a
/// host stall inside one chunk moves them less than it moves a
/// whole-run figure.
///
/// In a traced run the chunks alternate between recording spans and
/// not, so the tracing overhead compares neighbouring chunks of one
/// run and the host's drift between runs cancels out of it.
#[derive(Debug, Default)]
pub struct Chunks {
    rates: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    /// Rates of a traced run's chunks that recorded spans, and of those
    /// that did not.
    recorded: Vec<f64>,
    unrecorded: Vec<f64>,
}

impl Chunks {
    /// Closes a chunk of `ops` operations that took `secs`. In a traced
    /// run, the next chunk records spans if this one did not.
    pub fn rate(&mut self, ops: u64, secs: f64, tracer: &mut Tracer) {
        let rate = ops as f64 / secs;
        self.rates.push(rate);
        if tracer.is_on() {
            let recording = tracer.is_recording();
            if recording {
                self.recorded.push(rate);
            } else {
                self.unrecorded.push(rate);
            }
            tracer.set_recording(!recording);
        }
    }

    /// Time per op of the chunks that recorded spans over that of the
    /// chunks that did not, minus 1 (medians; 0 without both kinds).
    pub fn trace_overhead(&self) -> f64 {
        if self.recorded.is_empty() || self.unrecorded.is_empty() {
            return 0.0;
        }
        median(&self.unrecorded) / median(&self.recorded) - 1.0
    }

    /// Adds the p50 and p99 of one chunk's per-operation latencies, and
    /// clears them.
    pub fn latency(&mut self, latency_us: &mut Vec<f64>) {
        if !latency_us.is_empty() {
            latency_us.sort_unstable_by(f64::total_cmp);
            self.p50_us.push(quantile_sorted(latency_us, 0.50));
            self.p99_us.push(quantile_sorted(latency_us, 0.99));
            latency_us.clear();
        }
    }
}

/// A workload: its parameters, generated inputs and one run.
pub trait Workload {
    /// Inputs generated from the seed before anything is timed.
    type Inputs;

    /// The workload's parameters, as `(name, value)` pairs.
    fn params(&self) -> Vec<(&'static str, String)>;

    /// Worker threads on a host with `nproc` hardware threads.
    fn threads(&self, nproc: usize) -> usize {
        nproc
    }

    /// Generates the inputs for `seed`.
    fn inputs(&self, seed: u64) -> Self::Inputs;

    /// Runs set-up (`setups` times, keeping the last), the measured work
    /// and the checkpoint, checking every output. Spans go to `tracer`.
    fn run(
        &self,
        inputs: &Self::Inputs,
        seed: u64,
        threads: usize,
        setups: usize,
        tracer: &mut Tracer,
    ) -> Outcome;
}

/// Set-ups per untraced run; the end-to-end `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Runs a workload. Untraced, it runs once with [`SETUPS`] set-ups.
/// Traced, it runs twice from the same inputs with one set-up each:
/// untraced, then traced; the traced run's outcome is returned, with
/// the common per-layer metrics filled in. The traced run records
/// spans in every other chunk of its measured work, which gives the
/// tracing overhead (see [`Chunks`]), and throughout set-up and
/// checkpoint.
pub fn execute<W: Workload>(
    workload: &W,
    seed: u64,
    threads: usize,
    traced: bool,
) -> (Outcome, Tracer) {
    let inputs = workload.inputs(seed);
    if !traced {
        let mut tracer = Tracer::off();
        let outcome = workload.run(&inputs, seed, threads, SETUPS, &mut tracer);
        return (outcome, tracer);
    }
    let base = workload.run(&inputs, seed, threads, 1, &mut Tracer::off());
    let mut tracer = Tracer::on();
    let mut outcome = workload.run(&inputs, seed, threads, 1, &mut tracer);
    for (what, ok) in base.checks {
        outcome.check(format!("untraced pass: {what}"), ok);
    }
    outcome.check(
        "traced and untraced runs do the same work",
        base.counts == outcome.counts,
    );
    let layer = &mut outcome.layer;
    // Memory per agent or peer is the growth across the process's first
    // set-up, which the untraced pass ran.
    for (name, v) in &base.layer {
        if name.contains(".bytes_per_") {
            layer.insert(name, *v);
        }
    }
    for (name, self_s) in tracer.self_time_by_layer() {
        if let Some(metric) = PER_LAYER
            .iter()
            .find(|m| m.name.strip_suffix(".self_s") == Some(name))
        {
            layer.insert(metric.name, self_s);
        }
    }
    let failed_share = outcome.failed_share();
    outcome.layer.insert("failed_share", failed_share);
    (outcome, tracer)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// The `q`-quantile of ascending `sorted`, interpolated linearly between
/// closest ranks (0 when empty).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        len => {
            let rank = q.clamp(0.0, 1.0) * (len - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(len - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Span durations of `name` in microseconds, ascending.
pub fn span_us(tracer: &Tracer, name: &str) -> Vec<f64> {
    let mut us: Vec<f64> = tracer
        .durations_ns(name)
        .into_iter()
        .map(|ns| ns as f64 / 1e3)
        .collect();
    us.sort_unstable_by(f64::total_cmp);
    us
}

/// Median span duration of `name`, in seconds.
pub fn span_median_s(tracer: &Tracer, name: &str) -> f64 {
    quantile_sorted(&span_us(tracer, name), 0.5) / 1e6
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A `/proc/self/status` field in bytes (0 where unavailable).
fn proc_status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix(field)?.strip_prefix(':')?;
                let kb = rest.trim().strip_suffix("kB")?.trim();
                kb.parse::<u64>().ok()
            })
        })
        .map_or(0, |kb| kb * 1024)
}

/// Resident set size of this process, in bytes.
pub fn rss_bytes() -> u64 {
    proc_status_bytes("VmRSS")
}

/// Peak resident set size of this process, in bytes.
pub fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM")
}

/// Derives a sub-seed from the run seed and a salt.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    trustex_netsim::backoff::splitmix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert_eq!(quantile_sorted(&v, 0.25), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
    }
}
