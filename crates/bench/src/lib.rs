//! Shared helpers for the table-regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or analysis from the
//! paper (see `DESIGN.md` for the experiment index). They all follow the
//! same pattern: parse a `--quick`/`--full` preset from the command line, run
//! the corresponding `mtlsplit_core::experiment` runner, print a
//! human-readable table, and optionally dump the raw rows as JSON next to the
//! binary output so `EXPERIMENTS.md` can reference exact numbers.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod reference;

use mtlsplit_core::experiment::{ParadigmRow, Preset};
use mtlsplit_core::ComparisonRow;
use mtlsplit_models::analysis::ModelReport;

/// Command-line options shared by every table binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// Experiment scale.
    pub preset: Preset,
    /// Optional path to write the raw rows as JSON.
    pub json_path: Option<String>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            preset: Preset::Quick,
            json_path: None,
            seed: 7,
        }
    }
}

impl CliOptions {
    /// Parses options from an argument iterator (excluding the program name).
    ///
    /// Recognised flags: `--quick` (default), `--full`, `--seed <n>`,
    /// `--json <path>` (writes the raw rows in pretty Rust debug notation —
    /// no JSON serialiser is available offline). Unknown flags are ignored
    /// so the binaries stay forwards-compatible.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut options = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => options.preset = Preset::Quick,
                "--full" => options.preset = Preset::Full,
                "--seed" => {
                    if let Some(value) = iter.next() {
                        if let Ok(seed) = value.parse() {
                            options.seed = seed;
                        }
                    }
                }
                "--json" => options.json_path = iter.next(),
                _ => {}
            }
        }
        options
    }

    /// Parses options from the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }
}

/// Prints a Table 1/2/3-style STL-vs-MTL comparison.
pub fn print_comparison(title: &str, rows: &[ComparisonRow]) {
    println!("\n=== {title} ===");
    for row in rows {
        println!("{}", row.format_row());
    }
    let improved: usize = rows.iter().map(ComparisonRow::tasks_not_worse).sum();
    let total: usize = rows.iter().map(|r| r.mtl.len()).sum();
    println!("-- MTL matches or beats STL on {improved}/{total} task instances --");
}

/// Prints a Table 4-style model-size report.
pub fn print_model_reports(title: &str, reports: &[ModelReport]) {
    println!("\n=== {title} ===");
    println!(
        "{:<34} {:>12} {:>14} {:>16} {:>14} {:>12} {:>10}",
        "Model", "#params", "params (MB)", "fwd/bwd (MB)", "total (MB)", "Zb elems", "Zb (MB)"
    );
    for report in reports {
        println!(
            "{:<34} {:>12} {:>14.2} {:>16.2} {:>14.2} {:>12} {:>10.3}",
            report.model,
            report.parameters,
            report.parameter_mb(),
            report.forward_backward_mb(),
            report.estimated_total_mb(),
            report.zb_elements,
            report.zb_mb()
        );
    }
}

/// Prints the Section 4.2 LoC/RoC/SC comparison.
pub fn print_paradigm_rows(title: &str, rows: &[ParadigmRow]) {
    println!("\n=== {title} ===");
    for row in rows {
        println!(
            "\n{} — {} task(s): SC saves {:.1}% edge memory vs LoC, {:.1}% transfer latency vs RoC",
            row.model,
            row.task_count,
            row.memory_saving_vs_loc * 100.0,
            row.latency_saving_vs_roc * 100.0
        );
        for analysis in &row.analyses {
            println!(
                "  {:<16} edge {:>10.1} MB ({})   network/inference {:>10.3} MB   transfer({} inf) {:>8.2} s",
                analysis.paradigm.label(),
                analysis.memory.edge_bytes as f64 / 1e6,
                if analysis.fits_on_edge { "fits" } else { "DOES NOT FIT" },
                analysis.network_bytes_per_inference as f64 / 1e6,
                analysis.transfer.payloads,
                analysis.transfer.seconds_total
            );
        }
    }
}

/// Dumps rows in pretty `Debug` form and writes them to `path` if provided
/// (the `--json` flag's target).
///
/// The offline build has no JSON serialiser available, so the raw rows are
/// recorded in Rust debug notation rather than JSON — still machine-diffable
/// and stable across runs with the same seed. The flag name is kept for
/// command-line compatibility; the format caveat is documented on the flag in
/// [`CliOptions::parse`].
pub fn maybe_write_rows<T: std::fmt::Debug>(path: &Option<String>, rows: &T) {
    if let Some(path) = path {
        if let Err(err) = std::fs::write(path, format!("{rows:#?}\n")) {
            eprintln!("warning: could not write {path}: {err}");
        } else {
            println!("(raw rows written to {path})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_recognises_preset_seed_and_json() {
        let options = CliOptions::parse(
            ["--full", "--seed", "42", "--json", "out.json"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(options.preset, Preset::Full);
        assert_eq!(options.seed, 42);
        assert_eq!(options.json_path.as_deref(), Some("out.json"));
    }

    #[test]
    fn parse_defaults_to_quick() {
        let options = CliOptions::parse(std::iter::empty());
        assert_eq!(options.preset, Preset::Quick);
        assert!(options.json_path.is_none());
    }

    #[test]
    fn parse_ignores_unknown_flags_and_bad_seeds() {
        let options = CliOptions::parse(
            ["--verbose", "--seed", "not-a-number"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(options.seed, CliOptions::default().seed);
    }
}
