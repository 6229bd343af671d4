//! Shared helpers for the table-reproduction report binaries and the
//! campaign binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nvariant::DeploymentConfig;
use nvariant_apps::workload::{BenchmarkResult, LoadLevel, WebBench};
use std::path::PathBuf;

/// Resolves the result-cache directory for a report binary from its flags
/// and the environment: an explicit `--cache-dir` wins, `--no-cache`
/// disables caching even when the environment configures it, and otherwise
/// the [`NVARIANT_CACHE_DIR`](nvariant::store::CACHE_DIR_ENV) variable
/// decides. `None` means both cache layers stay memory-/process-local.
#[must_use]
pub fn resolve_cache_dir(explicit: Option<PathBuf>, no_cache: bool) -> Option<PathBuf> {
    if no_cache {
        return None;
    }
    explicit.or_else(|| {
        std::env::var_os(nvariant::store::CACHE_DIR_ENV)
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    })
}

/// The exit status the campaign binaries share with `nvariant_analyze`
/// when the static diversity verifier reports findings.
pub const EXIT_ANALYSIS_FINDINGS: i32 = 6;

/// `--analyze` support for the campaign binaries: run the static diversity
/// verifier over every configuration before any cell executes, print one
/// verdict line per configuration (plus the full report for any pair with
/// findings), and return the total finding count. Callers refuse to run
/// cells — exiting [`EXIT_ANALYSIS_FINDINGS`] — when it is non-zero:
/// deploying a system whose transform is already known-broken would only
/// measure the bug.
#[must_use]
pub fn verify_diversity_gate(configs: &[DeploymentConfig]) -> usize {
    println!(
        "Static diversity verification ({} configuration(s)):",
        configs.len()
    );
    let mut total_findings = 0usize;
    for config in configs {
        let reports = nvariant_apps::httpd_analysis_reports(config);
        println!(
            "  {}: {}",
            config.label(),
            nvariant::analyze::combined_verdict(&reports)
        );
        for report in &reports {
            if !report.is_clean() {
                println!("{}", report.render());
                total_findings += report.findings.len();
            }
        }
    }
    total_findings
}

/// Renders a list of rows as a fixed-width text table.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$} | ", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    let mut separator = String::from("|");
    for width in &widths {
        separator.push_str(&"-".repeat(width + 2));
        separator.push('|');
    }
    out.push_str(&separator);
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// One measured Table 3 cell pair (unsaturated and saturated) for a
/// configuration.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// The configuration.
    pub config: DeploymentConfig,
    /// Result under the 1-client load.
    pub unsaturated: BenchmarkResult,
    /// Result under the 15-client load.
    pub saturated: BenchmarkResult,
}

/// Runs the full Table 3 measurement — every paper configuration under
/// both load levels — as one parallel campaign over the cached compiled
/// artifacts (the per-cell numbers are identical at any worker count).
#[must_use]
pub fn measure_table3(bench: &WebBench) -> Vec<Table3Row> {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    measure_table3_with_workers(bench, workers)
}

/// [`measure_table3`] with an explicit worker count.
///
/// # Panics
///
/// Panics if the campaign drops a matrix cell — that would be an engine
/// bug, not a caller error.
#[must_use]
pub fn measure_table3_with_workers(bench: &WebBench, workers: usize) -> Vec<Table3Row> {
    let configs = DeploymentConfig::paper_configurations();
    let loads = [LoadLevel::unsaturated(), LoadLevel::saturated()];
    let mut results = bench.measure_matrix(&configs, &loads, workers).into_iter();
    configs
        .into_iter()
        .map(|config| {
            let unsaturated = results.next().expect("unsaturated cell for every config");
            let saturated = results.next().expect("saturated cell for every config");
            Table3Row {
                config,
                unsaturated,
                saturated,
            }
        })
        .collect()
}

/// The paper's Table 3 values, for side-by-side comparison in reports and
/// EXPERIMENTS.md: `(config number, unsat KB/s, unsat ms, sat KB/s, sat ms)`.
#[must_use]
pub fn paper_table3() -> Vec<(u8, f64, f64, f64, f64)> {
    vec![
        (1, 1010.0, 5.81, 5420.0, 16.32),
        (2, 973.0, 5.81, 5372.0, 16.24),
        (3, 887.0, 6.56, 2369.0, 37.36),
        (4, 877.0, 6.65, 2262.0, 38.49),
    ]
}

/// Percentage change from `baseline` to `value` (negative = decrease).
#[must_use]
pub fn percent_change(baseline: f64, value: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (value - baseline) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["Config", "KB/s"],
            &[
                vec!["Unmodified".to_string(), "1010".to_string()],
                vec!["2-Variant UID".to_string(), "877".to_string()],
            ],
        );
        assert!(table.contains("| Config"));
        assert!(table.contains("| 2-Variant UID"));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("|--"));
    }

    #[test]
    fn paper_values_match_the_published_table() {
        let rows = paper_table3();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].1, 1010.0);
        assert_eq!(rows[3].4, 38.49);
    }

    #[test]
    fn percent_change_sign_convention() {
        assert!((percent_change(1010.0, 887.0) + 12.18).abs() < 0.1);
        assert!(percent_change(100.0, 150.0) > 0.0);
        assert_eq!(percent_change(0.0, 5.0), 0.0);
    }
}
