//! Property-based tests on the core data structures and invariants: tensor
//! algebra, the wire codec, the data loader and the deployment accounting.
//!
//! The offline build cannot fetch `proptest`, so these are hand-rolled
//! property loops: each test draws 64 random cases from a seeded [`StdRng`]
//! and asserts the invariant on every case, printing the offending case on
//! failure so it can be replayed from the seed.

use mtlsplit_bench::reference::pr3;
use mtlsplit_data::{MultiTaskDataset, TaskSpec};
use mtlsplit_models::{Backbone, BackboneConfig, BackboneKind};
use mtlsplit_nn::{
    AvgPool2d, BatchNorm2d, Conv2d, DepthwiseConv2d, Dropout, Flatten, GlobalAvgPool2d,
    HardSigmoid, HardSwish, InferPlan, Layer, Linear, MaxPool2d, PointwiseConv2d, Relu, RunMode,
    Sequential, Sigmoid, TensorArena,
};
use mtlsplit_serve::{Frame, OpCode};
use mtlsplit_split::{DeploymentParadigm, Precision, TensorCodec, WorkloadProfile};
use mtlsplit_tensor::{conv2d, softmax_rows, Conv2dSpec, Parallelism, StdRng, Tensor};

const CASES: usize = 64;

/// Draws a dimension in `[1, bound)`.
fn dim(rng: &mut StdRng, bound: usize) -> usize {
    1 + rng.below(bound - 1)
}

/// Matrix multiplication distributes over addition: (A + B) C = AC + BC.
#[test]
fn matmul_distributes_over_addition() {
    let mut rng = StdRng::seed_from(101);
    for case in 0..CASES {
        let (m, k, n) = (dim(&mut rng, 6), dim(&mut rng, 6), dim(&mut rng, 6));
        let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
        let c = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
        let lhs = a.add(&b).unwrap().matmul(&c).unwrap();
        let rhs = a.matmul(&c).unwrap().add(&b.matmul(&c).unwrap()).unwrap();
        assert!(lhs.allclose(&rhs, 1e-3), "case {case}: {m}x{k} * {k}x{n}");
    }
}

/// Transposition reverses the order of matrix products: (AB)^T = B^T A^T.
#[test]
fn transpose_of_product() {
    let mut rng = StdRng::seed_from(102);
    for case in 0..CASES {
        let (m, k, n) = (dim(&mut rng, 5), dim(&mut rng, 5), dim(&mut rng, 5));
        let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b
            .transpose()
            .unwrap()
            .matmul(&a.transpose().unwrap())
            .unwrap();
        assert!(lhs.allclose(&rhs, 1e-3), "case {case}: {m}x{k} * {k}x{n}");
    }
}

/// The whole-workspace determinism guarantee, exercised through the public
/// API: matrix products and convolutions are bit-identical for every
/// `Parallelism` thread count — including shapes large enough to actually
/// engage the scoped-thread row/unit partitioning.
#[test]
fn kernels_are_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from(104);
    // A matmul big enough to cross the kernel's per-ISA FLOP floor (the
    // AVX-512 path demands the most work per worker), so the fixed thread
    // counts below genuinely split rows instead of being clamped to one
    // worker.
    let a = Tensor::randn(&[512, 512], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[512, 512], 0.0, 1.0, &mut rng);
    // A grouped convolution with several (batch, group) units and enough
    // MACs (~75M) that the unit split engages on every dispatch path.
    let spec = Conv2dSpec::new(16, 32, 3).with_padding(1).with_groups(2);
    let image = Tensor::randn(&[8, 16, 64, 64], 0.0, 1.0, &mut rng);
    let weight = Tensor::randn(&spec.weight_dims(), 0.0, 0.4, &mut rng);
    let bias = Tensor::randn(&[32], 0.0, 0.4, &mut rng);

    Parallelism::single().make_current();
    let product = a.matmul(&b).unwrap();
    let feature_map = conv2d(&image, &weight, Some(&bias), &spec).unwrap();
    for threads in [2usize, 3, 4] {
        Parallelism::fixed(threads).make_current();
        assert_eq!(
            a.matmul(&b).unwrap(),
            product,
            "matmul diverged at {threads} threads"
        );
        assert_eq!(
            conv2d(&image, &weight, Some(&bias), &spec).unwrap(),
            feature_map,
            "conv2d diverged at {threads} threads"
        );
    }
    Parallelism::auto().make_current();
}

/// Peels a stack into single-layer stacks. Running them one after another,
/// each on a fresh arena, is the unfused chain: no fusion window, no buffer
/// reuse between layers.
fn unfused(mut net: Sequential) -> Vec<Sequential> {
    let mut layers = Vec::new();
    while !net.is_empty() {
        let rest = net.split_off(1);
        layers.push(net);
        net = rest;
    }
    layers
}

fn run_unfused(layers: &[Sequential], x: &Tensor) -> Tensor {
    layers
        .iter()
        .fold(x.clone(), |current, layer| layer.infer(&current).unwrap())
}

/// The planned, zero-allocation inference runtime is bit-identical (`==`)
/// to the same stack run one layer at a time, each call on a fresh arena —
/// across layer types (every nn layer incl. the fusable conv→norm→activation
/// and GEMM→activation motifs), random input shapes, thread counts
/// {1, 2, 4}, and repeated arena reuse. Repeats with *changing* batch sizes
/// through one arena also prove no stale buffer contents bleed between
/// requests.
#[test]
fn planned_inference_matches_allocating_path_bitwise() {
    // Stacks covering every layer type and fusion window.
    let build_stacks = |rng: &mut StdRng| -> Vec<(&'static str, Sequential)> {
        vec![
            (
                "mlp_heads",
                Sequential::new()
                    .push(Linear::new(12, 24, rng))
                    .push(Relu::new())
                    .push(Linear::new(24, 9, rng))
                    .push(Sigmoid::new())
                    .push(Dropout::new(0.3).unwrap()),
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
            ),
        ]
    };
    let mut rng = StdRng::seed_from(0xA12E4A);
    let seed = rng.next_u64();
    let reference_stacks = build_stacks(&mut StdRng::seed_from(seed));
    for ((name, mut net), (_, mut reference)) in build_stacks(&mut StdRng::seed_from(seed))
        .into_iter()
        .zip(reference_stacks)
    {
        let image_input = name != "mlp_heads";
        // Train-mode forwards first give batch-norm layers non-trivial
        // running statistics (and prove inference is unaffected by
        // training-side caches); both copies see the same batch.
        if image_input {
            let warm = Tensor::randn(&[3, 3, 12, 12], 0.2, 1.1, &mut rng);
            for stack in [&mut net, &mut reference] {
                stack
                    .forward_into(
                        &warm,
                        RunMode::train(&mut StdRng::seed_from(1)),
                        &mut TensorArena::new(),
                    )
                    .unwrap();
            }
        }
        let reference = unfused(reference);
        let mut plan = InferPlan::new();
        for threads in [1usize, 2, 4] {
            Parallelism::fixed(threads).make_current();
            // One arena serves requests of varying batch size in sequence.
            for (request, batch) in [2usize, 1, 4, 3].into_iter().enumerate() {
                let x = if image_input {
                    Tensor::randn(&[batch, 3, 12, 12], 0.0, 1.0, &mut rng)
                } else {
                    Tensor::randn(&[batch, 12], 0.0, 1.0, &mut rng)
                };
                let planned = plan.run(&net, &x).unwrap();
                assert_eq!(
                    planned,
                    run_unfused(&reference, &x),
                    "{name}: planned output diverged from the unfused chain \
                     (threads={threads}, request={request}, batch={batch})"
                );
                plan.recycle(planned);
            }
        }
        Parallelism::auto().make_current();
    }

    // The full model path: a backbone through one plan, reusing one arena
    // across requests, against the same backbone peeled into its layers.
    let build_backbone = || {
        Backbone::new(
            BackboneConfig::new(BackboneKind::EfficientStyle, 3, 16),
            &mut StdRng::seed_from(77),
        )
        .unwrap()
    };
    let backbone = build_backbone();
    let peeled = build_backbone();
    let last = peeled.default_split();
    let (edge, tail) = peeled.split_at(last).unwrap();
    assert!(tail.is_empty());
    let reference = unfused(edge);
    let mut plan = InferPlan::new();
    for batch in [1usize, 2, 1, 3] {
        let x = Tensor::randn(&[batch, 3, 16, 16], 0.0, 1.0, &mut rng);
        let planned = plan.run(&backbone, &x).unwrap();
        assert_eq!(planned, run_unfused(&reference, &x), "backbone diverged");
        plan.recycle(planned);
    }
    // After the warm-up request, repeats of the same shapes must be served
    // entirely from the arena.
    let x = Tensor::randn(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
    plan.prepare(&backbone, &x).unwrap();
    let warmed = plan.fresh_allocations();
    for _ in 0..5 {
        let out = plan.run(&backbone, &x).unwrap();
        plan.recycle(out);
    }
    assert_eq!(
        plan.fresh_allocations(),
        warmed,
        "steady-state planned inference must not take fresh memory"
    );
}

/// The independent oracle: the inference bench's MobileNet- and VGG-style
/// edge stacks and its two serving heads, run through an `InferPlan`, are
/// bit-identical to the PR-3 layer-wise reference (its own packed GEMM,
/// per-unit im2col convolutions, separate norm and activation passes), at
/// several thread counts and batch sizes.
#[test]
fn planned_stacks_and_heads_match_the_pr3_reference_bitwise() {
    let mut rng = StdRng::seed_from(0x93);
    let mut plan = InferPlan::new();
    for (label, spec, seed) in [
        ("mobile", pr3::mobile_spec(), 31),
        ("vgg", pr3::vgg_spec(), 32),
    ] {
        let concrete = pr3::build_concrete(&spec, seed);
        let net = pr3::build_sequential(&spec, seed);
        for threads in [1usize, 2] {
            Parallelism::fixed(threads).make_current();
            for batch in [1usize, 2] {
                let x = Tensor::randn(&[batch, 3, 32, 32], 0.0, 1.0, &mut rng);
                let planned = plan.run(&net, &x).unwrap();
                assert_eq!(
                    planned,
                    pr3::pr3_forward(&concrete, &x),
                    "{label}: planned diverged from pr3 (threads={threads}, batch={batch})"
                );
                plan.recycle(planned);
            }
        }
    }
    let concrete = pr3::build_concrete_heads(pr3::FEATURES, 11);
    let boxed = pr3::build_boxed_heads(pr3::FEATURES, 11);
    for threads in [1usize, 2] {
        Parallelism::fixed(threads).make_current();
        for batch in [1usize, 4] {
            let z = Tensor::randn(&[batch, pr3::FEATURES], 0.0, 1.0, &mut rng);
            for (index, (head, legacy)) in boxed.iter().zip(&concrete).enumerate() {
                let planned = plan.run(head.as_ref(), &z).unwrap();
                assert_eq!(
                    planned,
                    pr3::pr3_head(legacy, &z),
                    "head {index}: planned diverged from pr3 (threads={threads}, batch={batch})"
                );
                plan.recycle(planned);
            }
        }
    }
    Parallelism::auto().make_current();
}

/// The cross-path determinism guarantee, end to end through the public
/// API: a full model forward is bitwise identical on every detected
/// dispatch path (scalar, AVX2+FMA, AVX-512) at every thread count. All
/// paths evaluate the same per-element accumulation chain, and on FMA
/// hardware all of them — the re-instantiated scalar path included —
/// accumulate with the same correctly-rounded fused multiply-add, so the
/// explicit SIMD tiles must not change a single bit of the model output.
#[test]
fn model_forward_is_bit_identical_across_isa_paths() {
    use mtlsplit_tensor::Isa;
    let mut rng = StdRng::seed_from(0x15AF);
    // A convolutional backbone (conv → batch-norm → activation fusions,
    // pooling, the works) and an MLP stack whose batch-1 requests hit the
    // GEMV fast path.
    let backbone = Backbone::new(
        BackboneConfig::new(BackboneKind::EfficientStyle, 3, 16),
        &mut rng,
    )
    .unwrap();
    let image = Tensor::randn(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
    let mlp = Sequential::new()
        .push(Linear::new(12, 24, &mut rng))
        .push(Relu::new())
        .push(Linear::new(24, 9, &mut rng))
        .push(Sigmoid::new());
    let row = Tensor::randn(&[1, 12], 0.0, 1.0, &mut rng);
    let reference_backbone = Isa::Scalar
        .with(|| backbone.infer(&image).unwrap())
        .unwrap();
    let reference_mlp = Isa::Scalar.with(|| mlp.infer(&row).unwrap()).unwrap();
    for isa in Isa::available() {
        for threads in [1usize, 2, 4] {
            Parallelism::fixed(threads).make_current();
            let out = isa.with(|| backbone.infer(&image).unwrap()).unwrap();
            assert_eq!(
                out, reference_backbone,
                "backbone forward diverged on {isa} with {threads} threads"
            );
            let out = isa.with(|| mlp.infer(&row).unwrap()).unwrap();
            assert_eq!(
                out, reference_mlp,
                "mlp forward diverged on {isa} with {threads} threads"
            );
        }
    }
    Parallelism::auto().make_current();
}

/// Softmax rows always form a probability distribution, whatever the logits.
#[test]
fn softmax_rows_are_distributions() {
    let mut rng = StdRng::seed_from(103);
    for case in 0..CASES {
        let rows = dim(&mut rng, 6);
        let cols = dim(&mut rng, 8);
        let scale = rng.uniform_range(0.1, 50.0);
        let logits = Tensor::randn(&[rows, cols], 0.0, scale, &mut rng);
        let probs = softmax_rows(&logits).unwrap();
        for r in 0..rows {
            let row = probs.row(r).unwrap();
            let sum: f32 = row.as_slice().iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "case {case} row {r}: sum {sum}");
            assert!(
                row.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)),
                "case {case} row {r}: probability outside [0, 1]"
            );
        }
    }
}

/// The f32 wire codec is lossless and the quantised codec is bounded by one
/// quantisation step, for any tensor contents.
#[test]
fn codec_round_trip() {
    let mut rng = StdRng::seed_from(104);
    for case in 0..CASES {
        let rows = dim(&mut rng, 8);
        let cols = dim(&mut rng, 32);
        let z = Tensor::randn(&[rows, cols], 0.0, 3.0, &mut rng);
        let lossless = TensorCodec::new(Precision::Float32);
        assert_eq!(
            lossless.decode(&lossless.encode(&z)).unwrap(),
            z,
            "case {case}: f32 round trip not exact"
        );
        let quant = TensorCodec::new(Precision::Quant8);
        let decoded = quant.decode(&quant.encode(&z)).unwrap();
        let step = (z.max().unwrap() - z.min().unwrap()) / 255.0 + 1e-6;
        assert!(
            decoded.allclose(&z, step),
            "case {case}: quant8 error exceeds one step"
        );
    }
}

/// Every dataset split partitions the samples: sizes add up and every class
/// histogram is preserved in total.
#[test]
fn dataset_split_partitions_samples() {
    let mut rng = StdRng::seed_from(105);
    for case in 0..CASES {
        let n = 10 + rng.below(70);
        let frac = rng.uniform_range(0.2, 0.8);
        let seed = rng.next_u64() % 1000;
        let images = Tensor::zeros(&[n, 1, 4, 4]);
        let labels = vec![(0..n).map(|i| i % 3).collect::<Vec<_>>()];
        let dataset = MultiTaskDataset::new(images, labels, vec![TaskSpec::new("t", 3)]).unwrap();
        let (train, test) = dataset.split(frac, seed).unwrap();
        assert_eq!(
            train.len() + test.len(),
            n,
            "case {case}: split lost samples"
        );
        let full = dataset.class_histogram(0).unwrap();
        let combined: Vec<usize> = train
            .class_histogram(0)
            .unwrap()
            .iter()
            .zip(test.class_histogram(0).unwrap())
            .map(|(a, b)| a + b)
            .collect();
        assert_eq!(full, combined, "case {case}: class histogram not preserved");
    }
}

/// `Frame::decode` rejects every truncated prefix and every single-byte
/// corruption of a valid encoded frame with a typed error — never a panic,
/// never a silently different frame. The frame's CRC-32 is what
/// closes the request-id/body gap that a header-only validation would leave.
#[test]
fn frame_decode_rejects_truncation_and_single_byte_corruption() {
    let mut rng = StdRng::seed_from(107);
    let ops = [
        OpCode::InferRequest,
        OpCode::InferResponse,
        OpCode::Ping,
        OpCode::Pong,
        OpCode::Error,
    ];
    for case in 0..CASES {
        let op = ops[rng.below(ops.len())];
        let request_id = rng.next_u64();
        let body_len = rng.below(48);
        let body: Vec<u8> = (0..body_len)
            .map(|_| (rng.next_u32() & 0xFF) as u8)
            .collect();
        let frame = Frame::new(op, request_id, body);
        let encoded = frame.encode();
        // Sanity: the untouched encoding round-trips.
        assert_eq!(Frame::decode(&encoded).unwrap(), frame, "case {case}");

        // Every strict prefix is rejected with a typed error.
        for cut in 0..encoded.len() {
            assert!(
                Frame::decode(&encoded[..cut]).is_err(),
                "case {case}: prefix of {cut} bytes was accepted"
            );
        }

        // Every single-byte corruption (a random non-zero XOR at every
        // position) is rejected with a typed error.
        for position in 0..encoded.len() {
            let flip = 1 + (rng.next_u32() & 0xFF) as u8 % 255;
            let mut corrupted = encoded.clone();
            corrupted[position] ^= flip;
            assert!(
                Frame::decode(&corrupted).is_err(),
                "case {case}: corruption at byte {position} (xor {flip:#04x}) was accepted"
            );
        }
    }
}

/// Split computing never needs more edge memory than local-only computing and
/// never ships more bytes than remote-only computing, for any workload
/// profile.
#[test]
fn split_is_never_worse_on_its_two_axes() {
    let mut rng = StdRng::seed_from(106);
    for case in 0..CASES {
        let profile = WorkloadProfile {
            model_name: "prop".to_string(),
            task_count: dim(&mut rng, 8),
            backbone_bytes: dim(&mut rng, 4000) * 1_000_000,
            head_bytes: dim(&mut rng, 100) * 1_000_000,
            raw_input_bytes: dim(&mut rng, 200_000) * 1_000,
            zb_bytes: dim(&mut rng, 2_000) * 1_000,
            inference_count: 10,
        };
        let loc = profile.memory_footprint(DeploymentParadigm::LocalOnly);
        let sc = profile.memory_footprint(DeploymentParadigm::Split);
        assert!(
            sc.edge_bytes <= loc.edge_bytes,
            "case {case}: SC edge memory exceeds LoC for {profile:?}"
        );
        let roc_bytes = profile.network_bytes_per_inference(DeploymentParadigm::RemoteOnly);
        let sc_bytes = profile.network_bytes_per_inference(DeploymentParadigm::Split);
        // Whenever Z_b is smaller than the raw input (the split-computing
        // premise), SC ships less data.
        if profile.zb_bytes <= profile.raw_input_bytes {
            assert!(
                sc_bytes <= roc_bytes,
                "case {case}: SC ships more than RoC for {profile:?}"
            );
        }
    }
}
