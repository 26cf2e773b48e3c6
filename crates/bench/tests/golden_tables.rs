//! The committed golden table corpus.
//!
//! `tests/golden/<id>.txt` holds the rendered smoke-scale table of every
//! experiment in the registry. This test re-renders each one and
//! compares it byte for byte, so a refactor that shifts a table — even
//! the same way at every thread count — fails here. Wall-clock cells
//! are the only nondeterministic output; they are masked by column name
//! before rendering (see [`is_wall_clock`]).
//!
//! Regenerate (after an *intentional* change to a table) with:
//!
//! ```sh
//! TRUSTEX_REGEN_FIXTURES=1 cargo test -p trustex-bench --test golden_tables
//! ```
//!
//! and say in the change description which tables moved and why.

use std::path::PathBuf;
use trustex_bench::{Scale, Table, ALL};
use trustex_market::table::Cell;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Whether `column` of experiment `id` holds wall-clock time. Every
/// other cell is a deterministic function of the scale.
fn is_wall_clock(id: &str, column: &str) -> bool {
    match id {
        "e2" => column != "n_items",
        "e12" => matches!(column, "kev_s" | "p50_us" | "p99_us" | "p999_us"),
        "e13" => matches!(column, "wall_ms" | "speedup_x"),
        _ => false,
    }
}

/// Replaces every wall-clock cell with `*`.
fn mask(id: &str, table: &Table) -> Table {
    let columns: Vec<&str> = table.columns().iter().map(String::as_str).collect();
    let mut out = Table::new(table.title(), &columns);
    for row in table.rows() {
        out.push_row(
            row.iter()
                .zip(&columns)
                .map(|(cell, column)| {
                    if is_wall_clock(id, column) {
                        Cell::from("*")
                    } else {
                        cell.clone()
                    }
                })
                .collect(),
        );
    }
    out
}

#[test]
fn smoke_tables_match_golden_corpus() {
    let regen = std::env::var_os("TRUSTEX_REGEN_FIXTURES").is_some();
    if regen {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
    }
    let mut drifted = Vec::new();
    for experiment in &ALL {
        let current = mask(experiment.id, &(experiment.run)(Scale::Smoke)).render();
        let path = golden_dir().join(format!("{}.txt", experiment.id));
        if regen {
            std::fs::write(&path, &current).expect("write golden table");
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden table {} ({e}); regenerate deliberately",
                path.display()
            )
        });
        if current != committed {
            drifted.push(format!(
                "[{}] committed:\n{committed}\n[{}] now:\n{current}",
                experiment.id, experiment.id
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "{} table(s) drifted from the golden corpus:\n{}",
        drifted.len(),
        drifted.join("\n")
    );

    // Every committed table belongs to a registered experiment.
    let mut found: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("golden dir exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    found.sort();
    let mut expected: Vec<String> = ALL.iter().map(|e| format!("{}.txt", e.id)).collect();
    expected.sort();
    assert_eq!(found, expected, "golden dir holds unaccounted tables");
}
