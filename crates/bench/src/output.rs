//! Output helpers: aligned text tables and JSON result records.

use std::path::PathBuf;
use verus_stats::Summary;
use verus_trace::json::Json;

/// Directory where experiment JSON lands (`VERUS_RESULTS` or `results/`).
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("VERUS_RESULTS").unwrap_or_else(|_| "results".into());
    let path = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&path);
    path
}

/// Writes `value` as pretty JSON to `results/<name>.json` and prints
/// `→ wrote <name>.json` (the name only, so stdout does not depend on
/// `VERUS_RESULTS`). Exits non-zero when the file cannot be written.
pub fn write_json(name: &str, value: &Json) {
    let path = results_dir().join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, value.pretty() + "\n") {
        eprintln!("{name}: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("→ wrote {name}.json");
}

/// A [`Summary`] as a JSON object, fields in declaration order.
#[must_use]
pub fn summary_json(s: &Summary) -> Json {
    Json::object()
        .field("count", s.count)
        .field("mean", s.mean)
        .field("std_dev", s.std_dev)
        .field("min", s.min)
        .field("p25", s.p25)
        .field("median", s.median)
        .field("p75", s.p75)
        .field("p95", s.p95)
        .field("max", s.max)
}

/// Verifies that every listed metric is finite; otherwise lists the
/// offending values on stderr and exits non-zero so CI catches silently
/// poisoned results (a NaN or infinity propagating through a figure's
/// pipeline would otherwise serialize to JSON and look like success).
///
/// Fold series through `.sum::<f64>()` before guarding — one non-finite
/// sample poisons the sum, so the whole series is checked by one entry.
pub fn guard_finite(figure: &str, metrics: &[(&str, f64)]) {
    let bad: Vec<&(&str, f64)> =
        metrics.iter().filter(|(_, v)| !v.is_finite()).collect();
    if bad.is_empty() {
        return;
    }
    for (name, v) in &bad {
        eprintln!("{figure}: metric `{name}` is not finite ({v})");
    }
    std::process::exit(1);
}

/// Prints an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(cell.len());
            s.push_str(&format!("{cell:>w$}  "));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| (*h).to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}
