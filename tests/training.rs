//! Workspace-level equivalence tests for the planned, zero-allocation
//! training runtime. A `TrainPlan` step (one reused arena, fused gradient
//! masks) must be bit-identical (`==`) to the same layers stepped one at a
//! time on fresh arenas — outputs, input gradients and parameter gradients
//! — across layer types, shapes, thread counts {1, 2, 4} and repeated plan
//! reuse; a full model step must match the independent seed reference step
//! loss-for-loss and parameter-for-parameter; and the composite blocks'
//! backward passes must match finite differences.

use mtlsplit_bench::reference::seed::SeedNet;
use mtlsplit_core::MtlSplitModel;
use mtlsplit_data::TaskSpec;
use mtlsplit_models::{BackboneKind, MbConvBlock, SqueezeExcite};
use mtlsplit_nn::{
    AdamW, AvgPool2d, BatchNorm2d, Conv2d, DepthwiseConv2d, Dropout, Flatten, GlobalAvgPool2d,
    HardSigmoid, HardSwish, Layer, Linear, MaxPool2d, PointwiseConv2d, Relu, RunMode, Sequential,
    Sgd, Sigmoid, TensorArena, TrainPlan,
};
use mtlsplit_tensor::{Parallelism, StdRng, Tensor};

/// Builds the training-relevant layer stacks, covering every nn layer type
/// plus the composite blocks (squeeze-excite, MBConv with skip) — including
/// the Linear→activation windows whose backward pass fuses the activation
/// gradient mask into the GEMM write-back.
fn build_stacks(rng: &mut StdRng) -> Vec<(&'static str, Sequential, bool)> {
    vec![
        (
            "mlp_heads",
            Sequential::new()
                .push(Linear::new(12, 24, rng))
                .push(Relu::new())
                .push(Linear::new(24, 9, rng))
                .push(Sigmoid::new())
                .push(Dropout::new(0.3).unwrap())
                .push(Linear::new(9, 5, rng)),
            false,
        ),
        (
            "vgg_motif",
            Sequential::new()
                .push(Conv2d::new(3, 6, 3, 1, 1, rng))
                .push(Relu::new())
                .push(MaxPool2d::new(2, 2))
                .push(Conv2d::new(6, 8, 3, 1, 1, rng))
                .push(Relu::new())
                .push(GlobalAvgPool2d::new())
                .push(Flatten::new())
                .push(Linear::new(8, 4, rng)),
            true,
        ),
        (
            "mobile_motif",
            Sequential::new()
                .push(Conv2d::new(3, 6, 3, 2, 1, rng))
                .push(BatchNorm2d::new(6))
                .push(HardSwish::new())
                .push(DepthwiseConv2d::new(6, 3, 1, 1, rng))
                .push(BatchNorm2d::new(6))
                .push(HardSwish::new())
                .push(PointwiseConv2d::new(6, 10, rng))
                .push(BatchNorm2d::new(10))
                .push(HardSigmoid::new())
                .push(AvgPool2d::new(2, 2))
                .push(GlobalAvgPool2d::new())
                .push(Flatten::new()),
            true,
        ),
        (
            "efficient_motif",
            Sequential::new()
                .push(Conv2d::new(3, 8, 3, 2, 1, rng))
                .push(BatchNorm2d::new(8))
                .push(HardSwish::new())
                .push(MbConvBlock::new(8, 8, 2, 1, rng))
                .push(SqueezeExcite::new(8, 4, rng))
                .push(GlobalAvgPool2d::new())
                .push(Flatten::new()),
            true,
        ),
    ]
}

/// Peels a stack into single-layer stacks, so each layer can be stepped on
/// its own: no gradient mask absorbed into a neighbour, no buffer reuse.
fn unfused(mut net: Sequential) -> Vec<Sequential> {
    let mut layers = Vec::new();
    while !net.is_empty() {
        let rest = net.split_off(1);
        layers.push(net);
        net = rest;
    }
    layers
}

/// The tentpole property: planned training == the unfused layer-at-a-time
/// chain (every call on a fresh arena), bitwise, for every layer type,
/// across thread counts and repeated plan reuse with changing batch sizes
/// (which also proves no stale arena buffer contents bleed between steps).
#[test]
fn planned_training_matches_allocating_path_bitwise() {
    let mut build_rng = StdRng::seed_from(0x7124);
    for threads in [1usize, 2, 4] {
        Parallelism::fixed(threads).make_current();
        // Identical weights via one seed per (stack, threads) combination.
        let seed = build_rng.next_u64();
        let reference_stacks = build_stacks(&mut StdRng::seed_from(seed));
        let mut planned_stacks = build_stacks(&mut StdRng::seed_from(seed));
        for ((name, reference, image_input), (_, planned, _)) in
            reference_stacks.into_iter().zip(planned_stacks.iter_mut())
        {
            let mut reference = unfused(reference);
            let mut ref_rng = StdRng::seed_from(77);
            let mut plan_rng = StdRng::seed_from(77);
            let mut data_rng = StdRng::seed_from(78);
            let mut plan = TrainPlan::new();
            // One plan serves steps of varying batch size in sequence.
            for (step, batch) in [2usize, 1, 4, 3].into_iter().enumerate() {
                let x = if image_input {
                    Tensor::randn(&[batch, 3, 12, 12], 0.0, 1.0, &mut data_rng)
                } else {
                    Tensor::randn(&[batch, 12], 0.0, 1.0, &mut data_rng)
                };
                let mut y_ref = x.clone();
                for layer in &mut reference {
                    y_ref = layer
                        .forward_into(
                            &y_ref,
                            RunMode::train(&mut ref_rng),
                            &mut TensorArena::new(),
                        )
                        .unwrap();
                }
                let probe = Tensor::randn(y_ref.dims(), 0.0, 1.0, &mut data_rng);
                let mut g_ref = probe.clone();
                for layer in reference.iter_mut().rev() {
                    g_ref = layer
                        .backward_into(&g_ref, &mut TensorArena::new())
                        .unwrap();
                }

                let y = plan
                    .forward(planned, &x, RunMode::train(&mut plan_rng))
                    .unwrap();
                assert_eq!(
                    y, y_ref,
                    "{name}: planned forward diverged (threads={threads}, step={step}, \
                     batch={batch})"
                );
                let g = plan.backward(planned, &probe).unwrap();
                assert_eq!(
                    g, g_ref,
                    "{name}: planned backward diverged (threads={threads}, step={step}, \
                     batch={batch})"
                );
                let reference_params = reference.iter().flat_map(|layer| layer.parameters());
                for (index, (a, b)) in planned
                    .parameters()
                    .into_iter()
                    .zip(reference_params)
                    .enumerate()
                {
                    assert_eq!(
                        a.grad(),
                        b.grad(),
                        "{name}: parameter gradient {index} diverged (threads={threads}, \
                         step={step}, batch={batch})"
                    );
                }
                plan.recycle(y);
                plan.recycle(g);
            }
        }
    }
    Parallelism::auto().make_current();
}

/// The independent oracle for a whole training step: the MobileStyle model
/// trained through `train_batch_with` (TrainPlan, AdamW) and the seed
/// reference step (`mtlsplit_bench::reference::seed` — allocating per-op
/// forward and backward, the generic lowered convolution backward, an
/// allocating AdamW) agree loss-for-loss and parameter-for-parameter over
/// several steps, at one and two threads.
#[test]
fn planned_train_steps_match_the_seed_reference_bitwise() {
    const BATCH: usize = 16;
    const IMAGE: usize = 20;
    let tasks = [
        TaskSpec::new("object_size", 8),
        TaskSpec::new("object_type", 4),
    ];
    let build = || {
        let mut rng = StdRng::seed_from(1);
        MtlSplitModel::new(BackboneKind::MobileStyle, 3, IMAGE, &tasks, 32, &mut rng).unwrap()
    };
    let images = Tensor::randn(
        &[BATCH, 3, IMAGE, IMAGE],
        0.5,
        0.2,
        &mut StdRng::seed_from(3),
    );
    let labels = vec![
        (0..BATCH).map(|i| i % 8).collect::<Vec<_>>(),
        (0..BATCH).map(|i| i % 4).collect::<Vec<_>>(),
    ];
    for threads in [1usize, 2] {
        Parallelism::fixed(threads).make_current();
        let mut planned = build();
        let mut seed_net = SeedNet::from_model(&mut build(), IMAGE, 1e-3);
        let mut optimizer = AdamW::new(1e-3).unwrap();
        let mut plan = TrainPlan::new();
        let mut losses = Vec::new();
        for step in 0..3 {
            planned
                .train_batch_with(&images, &labels, &mut optimizer, &mut plan, &mut losses)
                .unwrap();
            let seed_losses = seed_net.train_step(&images, &labels);
            assert_eq!(
                losses, seed_losses,
                "step {step}: losses diverged from the seed reference (threads={threads})"
            );
        }
        let seed_values = seed_net.param_values();
        assert_eq!(seed_values.len(), planned.parameters_mut().len());
        for (index, (p, reference)) in planned
            .parameters_mut()
            .iter()
            .zip(&seed_values)
            .enumerate()
        {
            assert_eq!(
                p.value(),
                reference,
                "parameter {index} diverged from the seed reference (threads={threads})"
            );
        }
    }
    Parallelism::auto().make_current();
}

/// Central-difference check of a whole composite block: an MBConv block
/// with its skip connection, then squeeze-excite, hard-swish and a
/// batch-norm, all in train mode (batch statistics). The reference module
/// models none of these composite layers, so this is the independent check
/// of their backward passes.
///
/// The loss is `L = Σ probe ⊙ y`, accumulated in `f64`. Each sampled input
/// element and parameter is moved by `±EPS = 5e-3`; the analytic gradient
/// must satisfy `|numeric − analytic| ≤ 5e-3 + 5e-3·|numeric|`. The `f32`
/// rounding of two forward passes divided by `2·EPS`, plus the `O(EPS²)`
/// truncation term, stayed below 1.1e-3 on every sampled point, about a
/// sixth of the bound.
#[test]
fn composite_block_backward_matches_finite_differences() {
    const EPS: f32 = 5e-3;
    let mut rng = StdRng::seed_from(0xFD);
    let mut net = Sequential::new()
        .push(MbConvBlock::new(8, 8, 2, 1, &mut rng))
        .push(SqueezeExcite::new(8, 4, &mut rng))
        .push(HardSwish::new())
        .push(BatchNorm2d::new(8));
    let x = Tensor::randn(&[2, 8, 6, 6], 0.0, 1.0, &mut rng);
    let probe = Tensor::randn(x.dims(), 0.0, 1.0, &mut rng);
    let loss = |net: &mut Sequential, x: &Tensor| -> f64 {
        let y = net
            .forward_into(
                x,
                RunMode::train(&mut StdRng::seed_from(0)),
                &mut TensorArena::new(),
            )
            .unwrap();
        y.as_slice()
            .iter()
            .zip(probe.as_slice())
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum()
    };
    let check = |what: &str, numeric: f64, analytic: f32| {
        let analytic = f64::from(analytic);
        assert!(
            (numeric - analytic).abs() <= 5e-3 + 5e-3 * numeric.abs(),
            "{what}: numeric {numeric} vs analytic {analytic}"
        );
    };

    net.zero_grad();
    let mut ctx = TensorArena::new();
    net.forward_into(&x, RunMode::train(&mut StdRng::seed_from(0)), &mut ctx)
        .unwrap();
    let grad_input = net.backward_into(&probe, &mut ctx).unwrap();
    let param_grads: Vec<Tensor> = net.parameters().iter().map(|p| p.grad().clone()).collect();

    for idx in (0..x.len()).step_by(37) {
        let mut plus = x.clone();
        plus.as_mut_slice()[idx] += EPS;
        let mut minus = x.clone();
        minus.as_mut_slice()[idx] -= EPS;
        let numeric = (loss(&mut net, &plus) - loss(&mut net, &minus)) / (2.0 * f64::from(EPS));
        check(&format!("input {idx}"), numeric, grad_input.as_slice()[idx]);
    }
    let param_count = param_grads.len();
    for (tensor, grads) in param_grads.iter().enumerate() {
        for idx in [0, grads.len() / 2, grads.len() - 1] {
            let original = net.parameters()[tensor].value().as_slice()[idx];
            let set = |net: &mut Sequential, value: f32| {
                net.parameters_mut()[tensor].value_mut().as_mut_slice()[idx] = value;
            };
            set(&mut net, original + EPS);
            let up = loss(&mut net, &x);
            set(&mut net, original - EPS);
            let down = loss(&mut net, &x);
            set(&mut net, original);
            let numeric = (up - down) / (2.0 * f64::from(EPS));
            check(
                &format!("parameter {tensor}/{param_count} element {idx}"),
                numeric,
                grads.as_slice()[idx],
            );
        }
    }
}

/// After the warm-up step, repeated planned steps over a fixed shape must be
/// served entirely from the arena — the cross-step buffer-reuse guarantee.
#[test]
fn planned_training_steps_stop_taking_fresh_memory() {
    let mut rng = StdRng::seed_from(0x51AB);
    let mut net = Sequential::new()
        .push(Conv2d::new(3, 6, 3, 2, 1, &mut rng))
        .push(BatchNorm2d::new(6))
        .push(HardSwish::new())
        .push(GlobalAvgPool2d::new())
        .push(Flatten::new())
        .push(Linear::new(6, 4, &mut rng))
        .push(Relu::new())
        .push(Linear::new(4, 3, &mut rng));
    let mut train_rng = StdRng::seed_from(2);
    let mut plan = TrainPlan::new();
    let x = Tensor::randn(&[3, 3, 12, 12], 0.0, 1.0, &mut rng);
    let probe = Tensor::randn(&[3, 3], 0.0, 1.0, &mut rng);
    let mut warmed = None;
    for step in 0..8 {
        let y = plan
            .forward(&mut net, &x, RunMode::train(&mut train_rng))
            .unwrap();
        let g = plan.backward(&mut net, &probe).unwrap();
        plan.recycle(y);
        plan.recycle(g);
        if step == 0 {
            warmed = Some(plan.fresh_allocations());
        }
    }
    assert_eq!(
        plan.fresh_allocations(),
        warmed.unwrap(),
        "steady-state planned training must not take fresh arena memory"
    );
}

/// A quick sanity check that the planned path is also what an SGD-driven
/// custom loop sees: `train_batch_with` under a non-default optimizer gives
/// the same parameters at 1, 2 and 4 threads.
#[test]
fn planned_train_batch_agrees_across_thread_counts() {
    let mut rng = StdRng::seed_from(91);
    let tasks = vec![
        mtlsplit_data::TaskSpec::new("a", 4),
        mtlsplit_data::TaskSpec::new("b", 3),
    ];
    let x = Tensor::randn(&[6, 3, 16, 16], 0.5, 0.2, &mut rng);
    let labels = vec![vec![0, 1, 2, 3, 0, 1], vec![0, 1, 2, 0, 1, 2]];
    let reference_params: Vec<Tensor> = {
        Parallelism::single().make_current();
        let mut rng = StdRng::seed_from(5);
        let mut model =
            MtlSplitModel::new(BackboneKind::MobileStyle, 3, 16, &tasks, 12, &mut rng).unwrap();
        let mut opt = Sgd::new(0.05);
        let mut plan = TrainPlan::new();
        let mut losses = Vec::new();
        for _ in 0..3 {
            model
                .train_batch_with(&x, &labels, &mut opt, &mut plan, &mut losses)
                .unwrap();
        }
        model
            .parameters_mut()
            .iter()
            .map(|p| p.value().clone())
            .collect()
    };
    for threads in [2usize, 4] {
        Parallelism::fixed(threads).make_current();
        let mut rng = StdRng::seed_from(5);
        let mut model =
            MtlSplitModel::new(BackboneKind::MobileStyle, 3, 16, &tasks, 12, &mut rng).unwrap();
        let mut opt = Sgd::new(0.05);
        let mut plan = TrainPlan::new();
        let mut losses = Vec::new();
        for _ in 0..3 {
            model
                .train_batch_with(&x, &labels, &mut opt, &mut plan, &mut losses)
                .unwrap();
        }
        for (index, (p, reference)) in model
            .parameters_mut()
            .iter()
            .zip(&reference_params)
            .enumerate()
        {
            assert_eq!(
                p.value(),
                reference,
                "parameter {index} diverged at {threads} threads"
            );
        }
    }
    Parallelism::auto().make_current();
}
