//! `train_mtl`: multi-task training of the same model on seeded Shapes
//! data — batch 32, AdamW, one `TrainPlan`, steps driven through
//! `MtlSplitModel::train_batch_with`. The only workload that runs the
//! backward kernels and the optimizer, and the only one that writes the
//! weights; it touches no serving code.

use std::time::Instant;

use mtlsplit_core::MtlSplitModel;
use mtlsplit_data::{DataLoader, MultiTaskDataset};
use mtlsplit_nn::{AdamW, TrainPlan};
use mtlsplit_obs as obs;
use mtlsplit_tensor::Parallelism;

use crate::checks::check_losses;
use crate::deploy::{self, Counters};
use crate::metrics::Report;
use crate::spans::{self, bench_span, SpanStore};
use crate::stats::{median, ms, p99_for, quantile, sorted, Slots};
use crate::RunConfig;

/// Training samples generated from the seed.
const SAMPLES: usize = 1024;
/// Mini-batch size.
const BATCH: usize = 32;
/// AdamW learning rate.
const LEARNING_RATE: f32 = 3e-3;
/// Steps each set-up runs; the first sizes the plan's arena.
const WARMUP_STEPS: usize = 2;
/// Most kernel threads a step may use.
const MAX_THREADS: usize = 2;
/// Steps between two drains of the span rings in a traced window.
const DRAIN_EVERY: u64 = 8;

/// Everything one training run holds.
struct Trainer<'a> {
    model: MtlSplitModel,
    optimizer: AdamW,
    plan: TrainPlan,
    loader: DataLoader<'a>,
    losses: Vec<f32>,
}

impl<'a> Trainer<'a> {
    /// Builds the model and optimizer and runs the warm-up steps, returning
    /// their losses.
    fn start(seed: u64, data: &'a MultiTaskDataset) -> Result<(Self, Vec<f32>), String> {
        let mut trainer = Self {
            model: deploy::build_model(seed)?,
            optimizer: AdamW::new(LEARNING_RATE).map_err(|e| e.to_string())?,
            plan: TrainPlan::new(),
            loader: DataLoader::new(data, BATCH, true, seed),
            losses: Vec::new(),
        };
        let mut warmup = Vec::new();
        for _ in 0..WARMUP_STEPS {
            trainer.step(0)?;
            warmup.extend_from_slice(&trainer.losses);
        }
        Ok((trainer, warmup))
    }

    /// One training step on the next batch; returns the samples trained on
    /// and the time `train_batch_with` took, in ns.
    fn step(&mut self, id: u64) -> Result<(usize, f64), String> {
        let batch = match self.loader.next_batch().map_err(|e| e.to_string())? {
            Some(batch) => batch,
            None => {
                self.loader.reset();
                self.loader
                    .next_batch()
                    .map_err(|e| e.to_string())?
                    .ok_or("the training set yields no batch")?
            }
        };
        let _span = bench_span("bench.train_step", id);
        let start = Instant::now();
        self.model
            .train_batch_with(
                &batch.images,
                &batch.labels,
                &mut self.optimizer,
                &mut self.plan,
                &mut self.losses,
            )
            .map_err(|e| e.to_string())?;
        let elapsed = start.elapsed().as_nanos() as f64;
        check_losses(&self.losses).map_err(|e| format!("step {id}: {e}"))?;
        Ok((batch.len(), elapsed))
    }
}

/// Step times of one window, in ns.
struct Window {
    /// Time of each step, ns, in order.
    steps: Vec<f64>,
    /// Training samples per second and CPU per sample, per second.
    slots: Slots,
    start: Counters,
    end: Counters,
}

fn measure(
    trainer: &mut Trainer<'_>,
    seconds: f64,
    mut store: Option<&mut SpanStore>,
) -> Result<Window, String> {
    let budget_ns = (seconds * 1e9) as u64;
    let counters = Counters::now();
    let start = Instant::now();
    let mut steps = Vec::new();
    let mut samples = 0u64;
    let mut sample_slots = Slots::start(crate::sys::process_cpu());
    loop {
        sample_slots.tick(samples, crate::sys::process_cpu);
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        if elapsed_ns >= budget_ns {
            break;
        }
        if let Some(store) = store.as_deref_mut() {
            let id = steps.len() as u64;
            if id.is_multiple_of(DRAIN_EVERY) && elapsed_ns + spans::FINAL_UNDRAINED_NS < budget_ns
            {
                store.drain();
            }
        }
        let (batch, ns) = trainer.step(steps.len() as u64 + 1)?;
        samples += batch as u64;
        steps.push(ns);
    }
    Ok(Window {
        steps,
        slots: sample_slots,
        start: counters,
        end: Counters::now(),
    })
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<Report, String> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS);
    Parallelism::fixed(threads).make_current();
    let data = deploy::shapes(config.seed, SAMPLES)?;
    let mut report = Report::new();
    // Every set-up trains the same warm-up steps from the same seed; their
    // losses must repeat bit for bit.
    let mut first_warmup: Option<Vec<f32>> = None;
    let (mut trainer, setups) = deploy::timed_setups(|| {
        let (trainer, warmup) = Trainer::start(config.seed, &data)?;
        match &first_warmup {
            None => first_warmup = Some(warmup),
            Some(first)
                if first
                    .iter()
                    .map(|l| l.to_bits())
                    .eq(warmup.iter().map(|l| l.to_bits())) => {}
            Some(first) => {
                return Err(format!(
                    "warm-up losses do not repeat under one seed: {first:?} vs {warmup:?}"
                ))
            }
        }
        Ok(trainer)
    })?;
    report.note("setup_s_each", format!("{setups:?}"));
    report.note("kernel_threads", threads.to_string());
    report.note(
        "warmup_losses",
        format!("{:?}", first_warmup.expect("at least one set-up")),
    );
    let seconds = if config.trace {
        config.seconds / 2.0
    } else {
        config.seconds
    };
    let plain = measure(&mut trainer, seconds, None)?;
    let ops = plain.steps.len() as u64;
    report.attempted += ops;
    let steps = sorted(plain.steps.clone());
    report.set("setup_s", median(&setups));
    report.set("latency_p50_ms", ms(quantile(&steps, 0.5)));
    report.set(
        "latency_p99_ms",
        ms(p99_for(&plain.steps, "step time", config.trace)?),
    );
    report.set("throughput_per_s", plain.slots.rate());
    // The slots count samples; a step trains `BATCH` of them.
    report.set("cpu_ms_per_op", plain.slots.cpu_ms_per_op() * BATCH as f64);
    report.set("peak_rss_mb", crate::sys::peak_rss_mb());
    report.set("core.train_step_ms_p50", ms(quantile(&steps, 0.5)));
    report.set("core.train_step_ms_p95", ms(quantile(&steps, 0.95)));
    plain.start.report_until(&plain.end, &mut report, ops);
    report.note("steps_measured", ops.to_string());
    report.note("final_losses", format!("{:?}", trainer.losses));

    if config.trace {
        let mut store = SpanStore::default();
        obs::reset();
        obs::set_enabled(true);
        let traced = measure(&mut trainer, seconds, Some(&mut store));
        obs::set_enabled(false);
        let traced = traced?;
        report.attempted += traced.steps.len() as u64;
        let trace_path = config
            .out_dir
            .as_ref()
            .map(|d| d.join(format!("train_mtl-seed{}.trace.json", config.seed)));
        report.note(
            "chrome_trace",
            spans::export_chrome_trace(trace_path.as_deref())?,
        );
        store.drain();
        spans::report_layers(&mut report, &store, traced.steps.len() as u64);
        report.set(
            "trace.overhead_pct",
            (median(&traced.steps) / quantile(&steps, 0.5) - 1.0) * 100.0,
        );
    }
    Ok(report)
}
