//! # trustex-bench — benchmarks and experiment reproduction
//!
//! This crate carries:
//!
//! * the `repro` binary — regenerates every table/figure of
//!   `EXPERIMENTS.md` (`cargo run --release -p trustex-bench --bin repro`),
//!   optionally a single experiment by id (`… -- e4`) and at smoke scale
//!   (`… -- --smoke`);
//! * the `layers` Criterion bench (`benches/layers.rs`), one group per
//!   layer — scheduler, decision, trust, P-Grid, persistence, market —
//!   each timing that layer's kernels on their own
//!   (`cargo bench -p trustex-bench --bench layers -- pgrid/`).
//!
//! The library portion holds the small helpers the `repro` binary
//! shares with its tests.

pub use trustex_market::experiments::{find, Scale, ALL};
pub use trustex_market::table::Table;

/// Renders a table with a trailing blank line (the repro output format).
pub fn render_block(table: &Table) -> String {
    let mut s = table.render();
    s.push('\n');
    s
}

/// Serializes per-experiment wall-clock timings as the `BENCH_repro.json`
/// document: a flat JSON object mapping experiment id → milliseconds.
///
/// Hand-rolled so the workspace needs no JSON dependency; ids are bare
/// `[a-z0-9]+` so no string escaping is needed.
///
/// # Examples
///
/// ```
/// let json = trustex_bench::timings_to_json(&[("e0", 12.5), ("e1", 3.0)]);
/// assert_eq!(json, "{\n  \"e0\": 12.500,\n  \"e1\": 3.000\n}\n");
/// ```
pub fn timings_to_json(timings: &[(&str, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (id, ms)) in timings.iter().enumerate() {
        let comma = if i + 1 == timings.len() { "" } else { "," };
        out.push_str(&format!("  \"{id}\": {ms:.3}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_block_appends_newline() {
        let t = Table::new("x", &["a"]);
        assert!(render_block(&t).ends_with("\n\n"));
    }

    #[test]
    fn timings_json_shape() {
        assert_eq!(timings_to_json(&[]), "{\n}\n");
        let one = timings_to_json(&[("e8", 1234.5678)]);
        assert_eq!(one, "{\n  \"e8\": 1234.568\n}\n");
        let two = timings_to_json(&[("e0", 1.0), ("e10", 2.25)]);
        assert!(two.contains("\"e0\": 1.000,"));
        assert!(two.contains("\"e10\": 2.250\n"));
        // No trailing comma before the closing brace.
        assert!(!two.contains(",\n}"));
    }
}
