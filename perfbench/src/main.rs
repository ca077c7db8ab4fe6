//! `perfbench`: the benchmark of the MTL-Split deployment pipeline.
//!
//! One binary runs the paper's model — the `MobileStyle` backbone with the
//! two Table-1 Shapes tasks on 24×24 RGB input — on three workloads:
//!
//! * `edge_closed`: one edge client, closed loop, split at the default
//!   (`gap`) stage; the client runs the backbone, the server the heads.
//! * `server_open`: open loop on a fixed schedule; precomputed `stem`-split
//!   payloads, so the server runs the backbone tail and both heads.
//! * `train_mtl`: multi-task training steps through
//!   `MtlSplitModel::train_batch_with`.
//!
//! Every timing is taken from outside the crates: the benchmark times calls
//! into their public functions and reads the counters they already export.
//! Run through `perfbench/run.py`, which builds this binary first:
//!
//! ```text
//! python3 perfbench/run.py --workload edge_closed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod alloc;
mod checks;
mod deploy;
mod edge_closed;
mod metrics;
mod server_open;
mod spans;
mod stats;
mod sys;
mod train_mtl;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Report;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Command-line configuration of one run.
#[derive(Debug)]
pub struct RunConfig {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input and the model weights are generated from.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// `false`: end-to-end run, tracing off. `true`: per-layer run.
    pub trace: bool,
    /// Where the full report and the Chrome trace are written, if anywhere.
    pub out_dir: Option<PathBuf>,
    /// Identifies the measured source tree (a commit or a content hash).
    pub source_id: String,
}

/// The workloads this binary runs.
pub const WORKLOADS: [&str; 3] = ["edge_closed", "server_open", "train_mtl"];

fn parse_args() -> Result<RunConfig, String> {
    let mut config = RunConfig {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out_dir: None,
        source_id: "unknown".to_string(),
    };
    let mut seen_seed = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => config.workload = value,
            "--seed" => {
                config.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?;
                seen_seed = true;
            }
            "--seconds" => {
                config.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out-dir" => config.out_dir = Some(PathBuf::from(value)),
            "--source-id" => config.source_id = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&config.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            config.workload
        ));
    }
    if !seen_seed {
        return Err("--seed is required".to_string());
    }
    if !(config.seconds >= 1.0 && config.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in 1..=600, got {}",
            config.seconds
        ));
    }
    Ok(config)
}

/// The machine a result was measured on.
fn machine_record(config: &RunConfig) -> String {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{\"nproc\": {}, \"available_parallelism\": {available}, \"active_isa\": \"{:?}\", \
         \"source\": \"{}\"}}",
        sys::nproc(),
        mtlsplit_tensor::active_isa(),
        config.source_id.replace(['"', '\\'], "")
    )
}

fn run(config: &RunConfig) -> Result<Report, String> {
    match config.workload.as_str() {
        "edge_closed" => edge_closed::run(config),
        "server_open" => server_open::run(config),
        "train_mtl" => train_mtl::run(config),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    // End-to-end figures are measured with spans off; the per-layer run
    // turns them on for its traced half only.
    mtlsplit_obs::set_enabled(false);
    let machine = machine_record(&config);
    println!("machine {machine}");
    println!(
        "run workload={} seed={} seconds={} trace={}",
        config.workload, config.seed, config.seconds, config.trace as u8
    );
    let report = match run(&config) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: {} failed: {message}", config.workload);
            return ExitCode::from(1);
        }
    };
    for line in report.detail_lines() {
        println!("{line}");
    }
    if let Some(dir) = &config.out_dir {
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            config.workload, config.seed, config.trace as u8
        ));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, report.full_json(&config, &machine)));
        if let Err(err) = written {
            eprintln!("perfbench: cannot write {}: {err}", path.display());
            return ExitCode::from(1);
        }
        println!("report {}", path.display());
    }
    match report.result_line(config.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(1)
        }
    }
}
