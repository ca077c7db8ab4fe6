//! Joint multi-task training (Eq. 4) and the single-task baseline.

use mtlsplit_data::{DataLoader, MultiTaskDataset};
use mtlsplit_models::BackboneKind;
use mtlsplit_nn::{AdamW, TrainPlan};
use mtlsplit_obs as obs;
use mtlsplit_tensor::{Parallelism, StdRng};

use crate::error::{CoreError, Result};
use crate::metrics::TaskAccuracy;
use crate::model::MtlSplitModel;

/// Hyper-parameters for one training run.
///
/// Every field is `Copy`, and so is the config itself — per-task and
/// per-phase derived configs are plain copies, never heap clones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// AdamW learning rate (the paper uses `1e-5` on 3D Shapes and `1e-4` on
    /// MEDIC/FACES; our scaled models use a proportionally larger rate).
    pub learning_rate: f32,
    /// Hidden width of each task head.
    pub head_hidden: usize,
    /// RNG seed covering initialisation and shuffling.
    pub seed: u64,
    /// Learning-rate multiplier applied to backbone parameters
    /// (1.0 = train jointly; values `< 1` are used during fine-tuning).
    pub backbone_lr_scale: f32,
    /// Thread budget for the compute kernels during this run (installed as
    /// the training thread's ambient [`Parallelism`]). Results are
    /// bit-identical whatever the value; it only changes wall-clock time.
    pub parallelism: Parallelism,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            batch_size: 32,
            learning_rate: 2e-3,
            head_hidden: 48,
            seed: 7,
            backbone_lr_scale: 1.0,
            parallelism: Parallelism::auto(),
        }
    }
}

impl TrainConfig {
    /// A fast preset for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            epochs: 2,
            batch_size: 32,
            learning_rate: 3e-3,
            ..Self::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if any field is zero or non-finite.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 || self.batch_size == 0 || self.head_hidden == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "epochs, batch size and head width must be positive".to_string(),
            });
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("learning rate {} must be positive", self.learning_rate),
            });
        }
        if self.backbone_lr_scale < 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: "backbone lr scale must be non-negative".to_string(),
            });
        }
        Ok(())
    }
}

/// Per-epoch trainer statistics: loss, step-time quantiles (from a
/// log-linear [`obs::LogHistogram`], ≤2% relative error), and how many
/// fresh heap allocations the planned runtime took — zero after the
/// warm-up epoch, which is the zero-allocation training guarantee made
/// observable.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Epoch index, 0-based.
    pub epoch: usize,
    /// Mean training loss (summed over tasks) across the epoch's batches.
    pub mean_loss: f32,
    /// Number of optimisation steps (batches) in the epoch.
    pub steps: usize,
    /// Wall-clock time of the whole epoch in seconds.
    pub wall_seconds: f64,
    /// Mean single-step time in seconds.
    pub mean_step_seconds: f64,
    /// 95th-percentile single-step time in seconds.
    pub p95_step_seconds: f64,
    /// Fresh arena allocations the planned runtime took during this epoch.
    pub fresh_allocations: usize,
}

/// Result of one training run.
#[derive(Debug)]
pub struct TrainOutcome {
    /// The trained model.
    pub model: MtlSplitModel,
    /// Test accuracy per task.
    pub accuracies: Vec<TaskAccuracy>,
    /// Mean training loss (summed over tasks) per epoch.
    pub loss_history: Vec<f32>,
    /// Per-epoch loss / step-time / allocation statistics.
    pub epoch_stats: Vec<EpochStats>,
}

/// Trains an already-constructed model on `train` and evaluates it on `test`.
///
/// # Errors
///
/// Returns an error if the configuration is invalid or the dataset is
/// incompatible with the model.
pub fn train_model(
    mut model: MtlSplitModel,
    train: &MultiTaskDataset,
    test: &MultiTaskDataset,
    config: &TrainConfig,
) -> Result<TrainOutcome> {
    config.validate()?;
    // Install the run's thread budget for every kernel under this loop
    // (evaluation included) and restore the caller's ambient setting on
    // every exit path, so training leaves no lasting thread-local change.
    struct RestoreParallelism(Parallelism);
    impl Drop for RestoreParallelism {
        fn drop(&mut self) {
            self.0.make_current();
        }
    }
    let _restore = RestoreParallelism(Parallelism::current());
    config.parallelism.make_current();
    if train.task_count() != model.task_count() {
        return Err(CoreError::Incompatible {
            reason: format!(
                "dataset has {} tasks but the model has {}",
                train.task_count(),
                model.task_count()
            ),
        });
    }
    model.set_backbone_lr_scale(config.backbone_lr_scale);
    let mut optimizer = AdamW::new(config.learning_rate)?;
    let mut loader = DataLoader::new(train, config.batch_size, true, config.seed);
    let mut loss_history = Vec::with_capacity(config.epochs);

    // One TrainPlan for the whole run: the first step is the warm-up that
    // sizes every activation/cache/gradient buffer; every later step —
    // across batches and epochs — reuses them (zero steady-state heap
    // allocations per step). The per-step losses land in one reusable
    // buffer for the same reason. The epoch loop itself clones nothing —
    // no config, metric, or model state is copied per epoch or per batch.
    let mut plan = TrainPlan::new();
    let mut batch_losses: Vec<f32> = Vec::new();
    let mut epoch_stats = Vec::with_capacity(config.epochs);
    // One step-time histogram for the run, reset per epoch so each epoch
    // reports its own quantiles without accumulating cross-epoch samples.
    let step_times = obs::LogHistogram::new();
    for epoch in 0..config.epochs {
        let mut epoch_span = obs::span_dims("epoch", obs::SpanKind::Train, [epoch as u32, 0, 0, 0]);
        step_times.reset();
        let allocs_before = plan.fresh_allocations();
        let epoch_start_ns = obs::now_ns();
        loader.reset();
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        while let Some(batch) = loader.next_batch()? {
            let step_start_ns = obs::now_ns();
            model.train_batch_with(
                &batch.images,
                &batch.labels,
                &mut optimizer,
                &mut plan,
                &mut batch_losses,
            )?;
            epoch_loss += batch_losses.iter().sum::<f32>();
            step_times.record(obs::now_ns() - step_start_ns);
            obs::metrics::TRAIN_STEPS.add(1);
            batches += 1;
        }
        let mean_loss = epoch_loss / batches.max(1) as f32;
        epoch_span.set_dim(1, batches as u32);
        drop(epoch_span);
        epoch_stats.push(EpochStats {
            epoch,
            mean_loss,
            steps: batches,
            wall_seconds: (obs::now_ns() - epoch_start_ns) as f64 / 1e9,
            mean_step_seconds: step_times.mean() / 1e9,
            p95_step_seconds: step_times.value_at_quantile(0.95) as f64 / 1e9,
            fresh_allocations: plan.fresh_allocations() - allocs_before,
        });
        loss_history.push(mean_loss);
    }

    let accuracies = evaluate(&model, test, config.batch_size)?;
    Ok(TrainOutcome {
        model,
        accuracies,
        loss_history,
        epoch_stats,
    })
}

/// Trains a fresh multi-task model of the given backbone family on every task
/// in the dataset jointly (the MTL-Split configuration).
///
/// # Errors
///
/// Returns an error if the configuration is invalid or the dataset is empty.
pub fn train_mtl(
    kind: BackboneKind,
    train: &MultiTaskDataset,
    test: &MultiTaskDataset,
    config: &TrainConfig,
) -> Result<TrainOutcome> {
    config.validate()?;
    let (channels, height, _width) = train.image_shape();
    let mut rng = StdRng::seed_from(config.seed);
    let model = MtlSplitModel::new(
        kind,
        channels,
        height,
        train.tasks(),
        config.head_hidden,
        &mut rng,
    )?;
    train_model(model, train, test, config)
}

/// Trains one single-task model per task (the STL baseline of every table)
/// and returns the per-task test accuracies.
///
/// Each baseline uses its own complete backbone of the same family, which is
/// exactly the "N networks for N tasks" deployment the paper's Local-only
/// Computing analysis costs out.
///
/// # Errors
///
/// Returns an error if the configuration is invalid or the dataset is empty.
pub fn train_stl(
    kind: BackboneKind,
    train: &MultiTaskDataset,
    test: &MultiTaskDataset,
    config: &TrainConfig,
) -> Result<Vec<TaskAccuracy>> {
    config.validate()?;
    let mut accuracies = Vec::with_capacity(train.task_count());
    for task_index in 0..train.task_count() {
        let train_single = train.select_tasks(&[task_index])?;
        let test_single = test.select_tasks(&[task_index])?;
        // Offset the seed per task so the baselines are independent runs.
        // `TrainConfig` is `Copy`, so deriving the per-task config clones
        // nothing.
        let config_single = TrainConfig {
            seed: config.seed.wrapping_add(task_index as u64 + 1),
            ..*config
        };
        let outcome = train_mtl(kind, &train_single, &test_single, &config_single)?;
        accuracies.extend(outcome.accuracies);
    }
    Ok(accuracies)
}

/// Evaluates a model on a dataset, returning per-task accuracies.
///
/// Evaluation runs the `&self` inference path, so it never mutates the
/// model and can be called on a shared reference.
///
/// # Errors
///
/// Returns an error if the dataset is incompatible with the model.
pub fn evaluate(
    model: &MtlSplitModel,
    dataset: &MultiTaskDataset,
    batch_size: usize,
) -> Result<Vec<TaskAccuracy>> {
    let mut loader = DataLoader::new(dataset, batch_size, false, 0);
    let mut correct = vec![0usize; model.task_count()];
    let mut total = vec![0usize; model.task_count()];
    while let Some(batch) = loader.next_batch()? {
        for (task, (c, t)) in model
            .evaluate_batch(&batch.images, &batch.labels)?
            .into_iter()
            .enumerate()
        {
            correct[task] += c;
            total[task] += t;
        }
    }
    Ok(model
        .task_names()
        .iter()
        .zip(correct.iter().zip(&total))
        .map(|(name, (&c, &t))| TaskAccuracy::new(name.clone(), c as f32 / t.max(1) as f32))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlsplit_data::shapes::ShapesConfig;

    fn tiny_dataset() -> (MultiTaskDataset, MultiTaskDataset) {
        ShapesConfig {
            samples: 160,
            image_size: 16,
            noise_fraction: 0.05,
        }
        .generate_table1_tasks(11)
        .unwrap()
        .split(0.75, 11)
        .unwrap()
    }

    #[test]
    fn quick_config_is_valid_and_fast() {
        let config = TrainConfig::quick();
        assert!(config.validate().is_ok());
        assert!(config.epochs <= 3);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let config = TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        };
        assert!(config.validate().is_err());
        let config = TrainConfig {
            learning_rate: -1.0,
            ..TrainConfig::default()
        };
        assert!(config.validate().is_err());
        let config = TrainConfig {
            backbone_lr_scale: -0.5,
            ..TrainConfig::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn mtl_training_produces_finite_losses_and_accuracies() {
        let (train, test) = tiny_dataset();
        let config = TrainConfig {
            epochs: 1,
            batch_size: 32,
            learning_rate: 3e-3,
            head_hidden: 24,
            seed: 3,
            ..TrainConfig::default()
        };
        let outcome = train_mtl(BackboneKind::MobileStyle, &train, &test, &config).unwrap();
        assert_eq!(outcome.accuracies.len(), 2);
        assert_eq!(outcome.loss_history.len(), 1);
        assert!(outcome.loss_history[0].is_finite());
        for acc in &outcome.accuracies {
            assert!((0.0..=1.0).contains(&acc.accuracy));
        }
    }

    #[test]
    fn stl_baseline_returns_one_accuracy_per_task() {
        let (train, test) = tiny_dataset();
        let config = TrainConfig {
            epochs: 1,
            batch_size: 32,
            learning_rate: 3e-3,
            head_hidden: 24,
            seed: 4,
            ..TrainConfig::default()
        };
        let accuracies = train_stl(BackboneKind::MobileStyle, &train, &test, &config).unwrap();
        assert_eq!(accuracies.len(), 2);
        assert_eq!(accuracies[0].task, "object_size");
        assert_eq!(accuracies[1].task, "object_type");
    }

    #[test]
    fn epoch_stats_report_steps_times_and_zero_steady_state_allocations() {
        let (train, test) = tiny_dataset();
        let config = TrainConfig {
            epochs: 3,
            batch_size: 32,
            learning_rate: 3e-3,
            head_hidden: 24,
            seed: 8,
            ..TrainConfig::default()
        };
        let outcome = train_mtl(BackboneKind::MobileStyle, &train, &test, &config).unwrap();
        assert_eq!(outcome.epoch_stats.len(), 3);
        for (i, stats) in outcome.epoch_stats.iter().enumerate() {
            assert_eq!(stats.epoch, i);
            assert_eq!(stats.mean_loss, outcome.loss_history[i]);
            assert!(stats.steps > 0);
            assert!(stats.wall_seconds > 0.0);
            assert!(stats.mean_step_seconds > 0.0);
            assert!(stats.p95_step_seconds >= stats.mean_step_seconds * 0.5);
        }
        // The first epoch is the warm-up that sizes every buffer; later
        // epochs must be served entirely from recycled memory.
        for stats in &outcome.epoch_stats[1..] {
            assert_eq!(
                stats.fresh_allocations, 0,
                "steady-state epochs must not allocate"
            );
        }
    }

    #[test]
    fn training_rejects_task_count_mismatch() {
        let (train, test) = tiny_dataset();
        let mut rng = StdRng::seed_from(5);
        // Model built for a single task, dataset carries two.
        let model = MtlSplitModel::new(
            BackboneKind::MobileStyle,
            3,
            16,
            &train.tasks()[..1],
            16,
            &mut rng,
        )
        .unwrap();
        assert!(train_model(model, &train, &test, &TrainConfig::quick()).is_err());
    }

    #[test]
    fn longer_training_reduces_the_loss() {
        let (train, test) = tiny_dataset();
        let config = TrainConfig {
            epochs: 3,
            batch_size: 32,
            learning_rate: 3e-3,
            head_hidden: 24,
            seed: 6,
            ..TrainConfig::default()
        };
        let outcome = train_mtl(BackboneKind::MobileStyle, &train, &test, &config).unwrap();
        let first = outcome.loss_history.first().copied().unwrap();
        let last = outcome.loss_history.last().copied().unwrap();
        assert!(
            last <= first * 1.05,
            "loss should not blow up: {first} -> {last}"
        );
    }
}
