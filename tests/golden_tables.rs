//! Golden-file regression: the paper tables computed from pinned seed
//! scenarios must not drift.
//!
//! The checked-in JSON under `tests/golden/` is the blessed output of
//! the analysis pipeline for two fixed scenarios. Any intentional change
//! to the pipeline (new counters, adjusted calibration, reordered
//! stages) that shifts a table must re-bless the goldens:
//!
//! ```sh
//! FAULTLINE_BLESS=1 cargo test --test golden_tables
//! git diff tests/golden/   # review the drift before committing
//! ```
//!
//! An unintentional mismatch is a regression: the test prints the
//! offending table's expected and actual JSON.

use faultline_core::{Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioParams};
use serde_json::Value;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn blessing() -> bool {
    std::env::var_os("FAULTLINE_BLESS").is_some_and(|v| v != "0")
}

/// Every paper exhibit the analysis derives, as one JSON document.
fn tables_json(a: &Analysis<'_>) -> Value {
    let (table6, ambiguity) = a.table6();
    serde_json::json!({
        "table1": (serde_json::to_value(&a.table1()).unwrap()),
        "table2": (serde_json::to_value(&a.table2()).unwrap()),
        "table3": (serde_json::to_value(&a.table3()).unwrap()),
        "table4": (serde_json::to_value(&a.table4()).unwrap()),
        "table5": (serde_json::to_value(&a.table5()).unwrap()),
        "table6": (serde_json::to_value(&table6).unwrap()),
        "ambiguity": (serde_json::to_value(&ambiguity).unwrap()),
        "table7": (serde_json::to_value(&a.table7()).unwrap()),
        "counters": (serde_json::to_value(&a.report.counters).unwrap()),
    })
}

fn check_golden(name: &str, actual: &Value) {
    let path = golden_dir().join(format!("{name}.json"));
    let rendered = serde_json::to_string_pretty(actual).unwrap();
    if blessing() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, rendered + "\n").unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let blessed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with FAULTLINE_BLESS=1 cargo test --test golden_tables",
            path.display()
        )
    });
    let expected: Value = serde_json::from_str(&blessed).expect("golden is valid JSON");
    if expected != *actual {
        for key in [
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "ambiguity",
            "table7",
            "counters",
        ] {
            if expected[key] != actual[key] {
                panic!(
                    "golden `{name}` drifted at `{key}`:\n  expected: {}\n  actual:   {}\n\
                     If this change is intentional, re-bless with FAULTLINE_BLESS=1 cargo test --test golden_tables",
                    serde_json::to_string(&expected[key]).unwrap(),
                    serde_json::to_string(&actual[key]).unwrap()
                );
            }
        }
        panic!("golden `{name}` drifted (structural difference)");
    }
}

#[test]
fn tiny_seed_42_tables_are_pinned() {
    let data = run(&ScenarioParams::tiny(42));
    let a = Analysis::run(&data, AnalysisConfig::default());
    check_golden("tiny_seed42_tables", &tables_json(&a));
}

#[test]
fn tiny_seed_7_tables_are_pinned() {
    let data = run(&ScenarioParams::tiny(7));
    let a = Analysis::run(&data, AnalysisConfig::default());
    check_golden("tiny_seed7_tables", &tables_json(&a));
}

/// The lossless variant pins the §4.1 control condition: with a perfect
/// transport, syslog and IS-IS views nearly coincide, and any drift here
/// points at the substrate rather than the loss model.
#[test]
fn lossless_tiny_seed_42_tables_are_pinned() {
    let data = run(&ScenarioParams::tiny(42).lossless());
    let a = Analysis::run(&data, AnalysisConfig::default());
    check_golden("tiny_seed42_lossless_tables", &tables_json(&a));
}
