//! The benchmark's own checks, at reduced sizes: work counts are equal
//! at 1 thread and at `nproc` threads, every run passes its output
//! checks, the traced run fills the metrics of the layers each workload
//! loads, and `BENCHMARK.json` lists the metrics the benchmark prints.

use trustex_perfbench::market::Market;
use trustex_perfbench::overlay::Overlay;
use trustex_perfbench::service::Service;
use trustex_perfbench::{execute, Outcome, Scale, Workload, END_TO_END, PER_LAYER};

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn untraced<W: Workload>(workload: &W, seed: u64, threads: usize) -> Outcome {
    let (outcome, _) = execute(workload, seed, threads, false);
    let failed: Vec<_> = outcome.checks.iter().filter(|(_, ok)| !ok).collect();
    assert!(outcome.correct(), "failed checks: {failed:?}");
    outcome
}

fn counts_equal_across_threads<W: Workload>(workload: &W) {
    let one = untraced(workload, 7, 1);
    let all = untraced(workload, 7, nproc().max(2));
    assert!(!one.counts.is_empty());
    assert_eq!(one.counts, all.counts);
    assert_eq!(
        untraced(workload, 7, 1).counts,
        one.counts,
        "same seed, same work"
    );
    assert_ne!(
        untraced(workload, 8, 1).counts,
        one.counts,
        "the seed drives the inputs"
    );
}

#[test]
fn market_work_is_thread_invariant() {
    counts_equal_across_threads(&Market::new(Scale::Reduced));
}

#[test]
fn overlay_work_is_thread_invariant() {
    counts_equal_across_threads(&Overlay::new(Scale::Reduced));
}

#[test]
fn service_work_is_thread_invariant() {
    counts_equal_across_threads(&Service::new(Scale::Reduced));
}

/// Runs a traced pass and returns the per-layer metrics it left at 0.
fn traced_zeros<W: Workload>(workload: &W) -> Vec<&'static str> {
    let (outcome, tracer) = execute(workload, 3, 2, true);
    assert!(outcome.correct(), "{:?}", outcome.checks);
    assert!(!tracer.spans().is_empty());
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|name| outcome.layer.get(name).copied().unwrap_or(0.0) == 0.0)
        .collect()
}

/// Asserts that every metric under `prefixes` was measured. Memory
/// growth per agent or peer may read 0 at these sizes, where the
/// allocator serves set-up from memory it already holds.
fn loaded(zeros: &[&str], prefixes: &[&str]) {
    for metric in PER_LAYER.iter().map(|m| m.name) {
        if prefixes.iter().any(|p| metric.starts_with(p)) && !metric.contains(".bytes_per_") {
            assert!(!zeros.contains(&metric), "{metric} was not measured");
        }
    }
}

#[test]
fn traced_market_measures_its_layers() {
    let zeros = traced_zeros(&Market::new(Scale::Reduced));
    loaded(&zeros, &["market.", "persist.", "bench."]);
    assert!(
        zeros.contains(&"reputation.pgrid.build_s"),
        "market bypasses the grid"
    );
    assert!(
        zeros.contains(&"trust.engine.epochs"),
        "market bypasses the engine"
    );
}

#[test]
fn traced_overlay_measures_its_layers() {
    let zeros = traced_zeros(&Overlay::new(Scale::Reduced));
    loaded(
        &zeros,
        &[
            "reputation.",
            "netsim.net.",
            "netsim.fault.",
            "persist.",
            "bench.",
        ],
    );
    assert!(
        zeros.contains(&"market.sim.sessions"),
        "overlay bypasses the market"
    );
    assert!(
        zeros.contains(&"netsim.pool.busy_share"),
        "overlay is single-threaded"
    );
}

#[test]
fn traced_service_measures_its_layers() {
    let zeros = traced_zeros(&Service::new(Scale::Reduced));
    loaded(&zeros, &["trust.", "netsim.pool.", "persist.", "bench."]);
    assert!(
        zeros.contains(&"netsim.net.sent"),
        "service bypasses the network"
    );
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"better\"").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    for workload in ["market", "overlay", "service"] {
        assert!(json.contains(&format!("\"name\": \"{workload}\"")));
    }
}
