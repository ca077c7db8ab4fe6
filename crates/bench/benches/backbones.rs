//! Criterion benchmarks of the three backbone families' forward passes —
//! the edge-side latency component of the split deployment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtlsplit_models::{Backbone, BackboneConfig, BackboneKind};
use mtlsplit_nn::{Layer, RunMode, TrainPlan};
use mtlsplit_tensor::{StdRng, Tensor};

fn bench_backbone_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("backbone_forward");
    group.sample_size(20);
    for kind in BackboneKind::ALL {
        let mut rng = StdRng::seed_from(1);
        let backbone =
            Backbone::new(BackboneConfig::new(kind, 3, 24), &mut rng).expect("build backbone");
        let input = Tensor::randn(&[4, 3, 24, 24], 0.5, 0.2, &mut rng);
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.display_name()),
            &kind,
            |bencher, _| {
                bencher.iter(|| backbone.infer(&input).expect("infer"));
            },
        );
    }
    group.finish();
}

fn bench_backbone_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("backbone_train_step");
    group.sample_size(10);
    for kind in [BackboneKind::MobileStyle, BackboneKind::EfficientStyle] {
        let mut rng = StdRng::seed_from(2);
        let mut backbone =
            Backbone::new(BackboneConfig::new(kind, 3, 24), &mut rng).expect("build backbone");
        let input = Tensor::randn(&[4, 3, 24, 24], 0.5, 0.2, &mut rng);
        let mut plan = TrainPlan::new();
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.display_name()),
            &kind,
            |bencher, _| {
                bencher.iter(|| {
                    let features = plan
                        .forward(&mut backbone, &input, RunMode::train(&mut rng))
                        .expect("forward");
                    let grad = plan
                        .backward(&mut backbone, &Tensor::ones(features.dims()))
                        .expect("backward");
                    plan.recycle(features);
                    plan.recycle(grad);
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_backbone_forward, bench_backbone_backward);
criterion_main!(benches);
