//! Inference-runtime benchmark: the planned, zero-allocation path against
//! the PR-3 layer-wise baseline it replaces.
//!
//! Two execution paths are measured over identical weights (both built
//! from one seed, verified bit-identical before anything is timed):
//!
//! * **pr3** — the previous serving hot path, reproduced verbatim in
//!   `mtlsplit_bench::reference::pr3` the way `benches/kernels.rs`
//!   reproduces the seed kernels: every layer allocates a fresh output
//!   tensor, convolutions allocate im2col scratch per `(batch, group)` unit
//!   and prefill the bias (`beta == 1` GEMM), batch-norm/activations run as
//!   separate full-tensor passes, and all GEMMs go through PR-3's packed
//!   kernel, which had no single-row fast path.
//! * **planned** — the `InferPlan` runtime: arena-recycled buffers and
//!   plan-time fusion of conv→norm→activation / GEMM→activation.
//!
//! Two claims are machine-checked, not just recorded:
//!
//! 1. **Zero allocations per request.** A counting global allocator wraps
//!    `System`; after warm-up the planned path must perform exactly 0 heap
//!    allocations per request (asserted — in quick mode this is the CI
//!    gate).
//! 2. **Bit-identity.** Planned and PR-3 passes must produce `==` outputs.
//!
//! Results go to `BENCH_inference.json` at the repository root
//! (hand-rolled JSON — the workspace has no serde);
//! `MTLSPLIT_BENCH_QUICK=1` selects the reduced CI grid.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use mtlsplit_obs as obs;

use mtlsplit_bench::reference::pr3::{
    build_boxed_heads, build_concrete, build_concrete_heads, build_sequential, mobile_spec,
    pr3_forward, pr3_head, vgg_spec, OpSpec, FEATURES,
};
use mtlsplit_nn::InferPlan;
use mtlsplit_tensor::{Parallelism, StdRng, Tensor};

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Counts every heap allocation so the zero-allocation guarantee is
/// measured, not assumed. `alloc`, `alloc_zeroed` and `realloc` each count
/// as one allocation event; deallocations are not interesting here.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`, only adding a relaxed counter
// bump on the allocation paths.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// `1` when `MTLSPLIT_BENCH_QUICK` asks for the reduced CI grid.
fn quick_mode() -> bool {
    std::env::var("MTLSPLIT_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e3
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

struct PathStats {
    allocs_per_request: f64,
    latency_ms: f64,
}

struct ServingMeasurement {
    requests: usize,
    planned: PathStats,
    pr3: PathStats,
}

/// The planned serving compute path — exactly what one `InferenceServer`
/// worker runs per drained request: every head forward through the worker's
/// arena, outputs recycled once encoded.
fn measure_serving(reps: usize, requests: usize) -> ServingMeasurement {
    let concrete = build_concrete_heads(FEATURES, 11);
    let boxed = build_boxed_heads(FEATURES, 11);
    let mut rng = StdRng::seed_from(12);
    let z = Tensor::randn(&[1, FEATURES], 0.0, 1.0, &mut rng);
    let mut plan = InferPlan::new();

    // Bit-identity gate before anything is timed.
    for (head, legacy) in boxed.iter().zip(&concrete) {
        let planned = plan.run(head.as_ref(), &z).expect("planned head pass");
        assert_eq!(planned, pr3_head(legacy, &z), "planned/pr3 head divergence");
        plan.recycle(planned);
    }

    // Warm-up so every arena buffer is pooled.
    let mut outputs: Vec<Tensor> = Vec::with_capacity(boxed.len());
    for _ in 0..4 {
        for head in &boxed {
            outputs.push(plan.run(head.as_ref(), &z).expect("warm-up"));
        }
        for output in outputs.drain(..) {
            plan.recycle(output);
        }
    }

    // Steady state: the machine-checked zero-allocation guarantee.
    let before = allocations();
    for _ in 0..requests {
        for head in &boxed {
            outputs.push(plan.run(head.as_ref(), &z).expect("planned request"));
        }
        for output in outputs.drain(..) {
            plan.recycle(output);
        }
    }
    let planned_allocs = allocations() - before;
    assert_eq!(
        planned_allocs, 0,
        "the planned serving path must perform zero steady-state heap \
         allocations per request (saw {planned_allocs} over {requests} requests)"
    );

    let count_allocs = |f: &mut dyn FnMut()| -> f64 {
        let before = allocations();
        for _ in 0..requests {
            f();
        }
        (allocations() - before) as f64 / requests as f64
    };
    let pr3_allocs = count_allocs(&mut || {
        for head in &concrete {
            criterion::black_box(pr3_head(head, &z));
        }
    });

    let planned_ms = best_ms(reps, || {
        for _ in 0..requests {
            for head in &boxed {
                outputs.push(plan.run(head.as_ref(), &z).expect("planned request"));
            }
            for output in outputs.drain(..) {
                plan.recycle(output);
            }
        }
    }) / requests as f64;
    let pr3_ms = best_ms(reps, || {
        for _ in 0..requests {
            for head in &concrete {
                criterion::black_box(pr3_head(head, &z));
            }
        }
    }) / requests as f64;

    ServingMeasurement {
        requests,
        planned: PathStats {
            allocs_per_request: 0.0,
            latency_ms: planned_ms,
        },
        pr3: PathStats {
            allocs_per_request: pr3_allocs,
            latency_ms: pr3_ms,
        },
    }
}

struct EdgeMeasurement {
    stack: &'static str,
    planned: PathStats,
    pr3: PathStats,
}

/// Single-image edge latency through a full backbone-style stack, on both
/// paths.
fn measure_edge(spec: &[OpSpec], label: &'static str, seed: u64, reps: usize) -> EdgeMeasurement {
    let concrete = build_concrete(spec, seed);
    let net = build_sequential(spec, seed);
    let mut rng = StdRng::seed_from(seed + 1);
    let x = Tensor::randn(&[1, 3, 32, 32], 0.0, 1.0, &mut rng);
    let mut plan = InferPlan::new();

    // Bit-identity gate plus warm-up.
    let planned = plan.run(&net, &x).expect("planned edge pass");
    assert_eq!(
        planned,
        pr3_forward(&concrete, &x),
        "{label}: planned/pr3 divergence"
    );
    plan.recycle(planned);
    for _ in 0..2 {
        let out = plan.run(&net, &x).expect("warm-up");
        plan.recycle(out);
    }

    let samples = 16usize;
    let count_allocs = |f: &mut dyn FnMut()| -> f64 {
        let before = allocations();
        for _ in 0..samples {
            f();
        }
        (allocations() - before) as f64 / samples as f64
    };
    let planned_allocs = {
        let before = allocations();
        for _ in 0..samples {
            let out = plan.run(&net, &x).expect("planned image");
            plan.recycle(out);
        }
        (allocations() - before) as f64 / samples as f64
    };
    assert_eq!(
        planned_allocs, 0.0,
        "{label}: the planned edge pass must be allocation-free in steady state"
    );
    let pr3_allocs = count_allocs(&mut || {
        criterion::black_box(pr3_forward(&concrete, &x));
    });

    let planned_ms = best_ms(reps, || {
        let out = plan.run(&net, &x).expect("planned image");
        plan.recycle(out);
    });
    let pr3_ms = best_ms(reps, || {
        criterion::black_box(pr3_forward(&concrete, &x));
    });

    EdgeMeasurement {
        stack: label,
        planned: PathStats {
            allocs_per_request: planned_allocs,
            latency_ms: planned_ms,
        },
        pr3: PathStats {
            allocs_per_request: pr3_allocs,
            latency_ms: pr3_ms,
        },
    }
}

/// The serving feature width: the shared representation `Z_b` is 128 wide,
/// matching the serving benchmarks since PR 2.
const MODEL_FEATURES: usize = 128;

/// The model backbone: the mobile stack with its final pointwise block
/// widened to produce the 128-wide `Z_b` the serving heads consume.
fn model_spec() -> Vec<OpSpec> {
    let mut ops = mobile_spec();
    // Swap the last separable block's pointwise expansion (24 → 32) for
    // the serving width (24 → 128); the trailing Bn/HardSwish/Gap/Flatten
    // follow it in the op list.
    for op in ops.iter_mut() {
        match op {
            OpSpec::Conv(spec) if spec.in_channels == 24 && spec.kernel == 1 => {
                spec.out_channels = MODEL_FEATURES;
            }
            OpSpec::Bn(c) if *c == 32 => *c = MODEL_FEATURES,
            _ => {}
        }
    }
    ops
}

/// The complete single-image MTL-Split inference — the paper's Figure 1
/// shape: shared mobile backbone producing the 128-wide `Z_b`, two task
/// heads fanning out from it. This is the end-to-end edge latency number.
fn measure_model(reps: usize) -> EdgeMeasurement {
    let spec = model_spec();
    let concrete_net = build_concrete(&spec, 51);
    let net = build_sequential(&spec, 51);
    let concrete_heads = build_concrete_heads(MODEL_FEATURES, 52);
    let boxed_heads = build_boxed_heads(MODEL_FEATURES, 52);
    let mut rng = StdRng::seed_from(53);
    let x = Tensor::randn(&[1, 3, 32, 32], 0.0, 1.0, &mut rng);
    let mut plan = InferPlan::new();

    let planned_pass = |plan: &mut InferPlan| {
        let features = plan.run(&net, &x).expect("planned backbone");
        for head in &boxed_heads {
            let logits = plan.run(head.as_ref(), &features).expect("planned head");
            plan.recycle(logits);
        }
        plan.recycle(features);
    };
    let pr3_pass = || {
        let features = pr3_forward(&concrete_net, &x);
        for head in &concrete_heads {
            criterion::black_box(pr3_head(head, &features));
        }
    };

    // Bit-identity gate: both full-model passes agree.
    {
        let features = plan.run(&net, &x).expect("planned backbone");
        assert_eq!(
            features,
            pr3_forward(&concrete_net, &x),
            "model: planned/pr3 features"
        );
        for (head, legacy) in boxed_heads.iter().zip(&concrete_heads) {
            let planned = plan.run(head.as_ref(), &features).expect("planned head");
            assert_eq!(planned, pr3_head(legacy, &features), "model: pr3 logits");
            plan.recycle(planned);
        }
        plan.recycle(features);
    }
    planned_pass(&mut plan); // warm-up

    let samples = 16usize;
    let planned_allocs = {
        let before = allocations();
        for _ in 0..samples {
            planned_pass(&mut plan);
        }
        (allocations() - before) as f64 / samples as f64
    };
    assert_eq!(
        planned_allocs, 0.0,
        "the planned full-model pass must be allocation-free in steady state"
    );
    let count_allocs = |f: &mut dyn FnMut()| -> f64 {
        let before = allocations();
        for _ in 0..samples {
            f();
        }
        (allocations() - before) as f64 / samples as f64
    };
    let pr3_allocs = count_allocs(&mut || pr3_pass());

    let planned_ms = best_ms(reps, || planned_pass(&mut plan));
    let pr3_ms = best_ms(reps, pr3_pass);

    EdgeMeasurement {
        stack: "model_mobile_2heads_32x32",
        planned: PathStats {
            allocs_per_request: planned_allocs,
            latency_ms: planned_ms,
        },
        pr3: PathStats {
            allocs_per_request: pr3_allocs,
            latency_ms: pr3_ms,
        },
    }
}

// ---------------------------------------------------------------------------
// Tracing-overhead gates
// ---------------------------------------------------------------------------

/// The two machine-checked observability contracts on the full-model planned
/// pass:
///
/// 1. **Tracing enabled adds 0 allocations.** Spans land in thread-local
///    rings preallocated at first use, so after one warm-up pass the planned
///    path must stay allocation-free with tracing on.
/// 2. **Tracing disabled adds <1% latency.** The disabled path is one
///    relaxed atomic load plus a branch per span site; measured directly
///    (ns per disabled span × spans the pass actually emits) against the
///    measured planned latency.
struct TracingGates {
    enabled_allocs_per_pass: f64,
    spans_per_pass: usize,
    disabled_span_ns: f64,
    disabled_overhead_fraction: f64,
}

fn measure_tracing_gates(planned_ms: f64) -> TracingGates {
    let spec = model_spec();
    let net = build_sequential(&spec, 51);
    let boxed_heads = build_boxed_heads(MODEL_FEATURES, 52);
    let mut rng = StdRng::seed_from(53);
    let x = Tensor::randn(&[1, 3, 32, 32], 0.0, 1.0, &mut rng);
    let mut plan = InferPlan::new();
    let planned_pass = |plan: &mut InferPlan| {
        let features = plan.run(&net, &x).expect("planned backbone");
        for head in &boxed_heads {
            let logits = plan.run(head.as_ref(), &features).expect("planned head");
            plan.recycle(logits);
        }
        plan.recycle(features);
    };

    // Gate 1: zero steady-state allocations with tracing ENABLED. The first
    // traced pass registers this thread's ring (one-time allocation), so
    // warm up before counting.
    obs::set_enabled(true);
    planned_pass(&mut plan);
    planned_pass(&mut plan);
    let samples = 16u64;
    let before = allocations();
    for _ in 0..samples {
        planned_pass(&mut plan);
    }
    let enabled_allocs_per_pass = (allocations() - before) as f64 / samples as f64;
    assert_eq!(
        enabled_allocs_per_pass, 0.0,
        "the planned full-model pass must stay allocation-free with tracing \
         enabled (spans must land in the preallocated rings)"
    );

    // How many spans one pass actually emits (for the overhead bound below).
    obs::reset();
    planned_pass(&mut plan);
    let spans_per_pass: usize = obs::export().iter().map(|t| t.spans.len()).sum();
    obs::set_enabled(false);
    obs::reset();

    // Gate 2: the disabled span site is cheap enough that every span the
    // pass would emit stays under 1% of the pass latency.
    let iters = 4_000_000u64;
    let start = Instant::now();
    for i in 0..iters {
        let span = criterion::black_box(obs::span_dims(
            "disabled-overhead",
            obs::SpanKind::Custom,
            [i as u32, 0, 0, 0],
        ));
        drop(span);
    }
    let disabled_span_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    let disabled_overhead_fraction = spans_per_pass as f64 * disabled_span_ns / (planned_ms * 1e6);
    assert!(
        disabled_overhead_fraction < 0.01,
        "tracing-disabled overhead must stay under 1% of planned latency \
         ({spans_per_pass} spans x {disabled_span_ns:.2} ns = {:.3}% of {planned_ms:.3} ms)",
        disabled_overhead_fraction * 100.0
    );

    TracingGates {
        enabled_allocs_per_pass,
        spans_per_pass,
        disabled_span_ns,
        disabled_overhead_fraction,
    }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

fn stats_json(label: &str, stats: &PathStats, planned_ms: f64) -> String {
    format!(
        "\"{label}\": {{\"allocs_per_request\": {:.1}, \"latency_ms\": {:.5}, \
         \"speedup_planned\": {:.2}}}",
        stats.allocs_per_request,
        stats.latency_ms,
        stats.latency_ms / planned_ms
    )
}

fn dump_json(
    serving: &ServingMeasurement,
    edge: &[EdgeMeasurement],
    gates: &TracingGates,
    quick: bool,
) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n  \"benchmark\": \"inference\",\n");
    json.push_str(&format!(
        "  \"available_parallelism\": {cores},\n  \"quick\": {quick},\n"
    ));
    json.push_str(&format!(
        "  \"tracing\": {{\"enabled_allocs_per_pass\": {:.1}, \"spans_per_pass\": {}, \
         \"disabled_span_ns\": {:.2}, \"disabled_overhead_pct\": {:.4}}},\n",
        gates.enabled_allocs_per_pass,
        gates.spans_per_pass,
        gates.disabled_span_ns,
        gates.disabled_overhead_fraction * 100.0
    ));
    json.push_str(&format!(
        "  \"planned_serving\": {{\"requests\": {}, \
         \"allocs_per_request_planned\": {:.1}, \"latency_planned_ms\": {:.5}, {}}},\n",
        serving.requests,
        serving.planned.allocs_per_request,
        serving.planned.latency_ms,
        stats_json("pr3_baseline", &serving.pr3, serving.planned.latency_ms),
    ));
    json.push_str("  \"edge_single_image\": [\n");
    for (index, row) in edge.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"stack\": \"{}\", \"allocs_per_image_planned\": {:.1}, \
             \"latency_planned_ms\": {:.4}, {}}}{}\n",
            row.stack,
            row.planned.allocs_per_request,
            row.planned.latency_ms,
            stats_json("pr3_baseline", &row.pr3, row.planned.latency_ms),
            if index + 1 == edge.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_inference.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}

fn bench_inference(_c: &mut Criterion) {
    // Mirror the edge/worker regime: kernels single-threaded on the calling
    // thread, exactly how a serving worker pins itself.
    Parallelism::single().make_current();
    let quick = quick_mode();
    let reps = if quick { 3 } else { 9 };
    let requests = if quick { 50 } else { 200 };

    let serving = measure_serving(reps, requests);
    println!(
        "planned serving: 0 allocs/request, {:.4} ms | pr3: {:.1} allocs, {:.4} ms ({:.2}x)",
        serving.planned.latency_ms,
        serving.pr3.allocs_per_request,
        serving.pr3.latency_ms,
        serving.pr3.latency_ms / serving.planned.latency_ms,
    );

    let edge = vec![
        measure_edge(&mobile_spec(), "mobile_32x32", 31, reps),
        measure_edge(&vgg_spec(), "vgg_32x32", 32, reps),
        measure_model(reps),
    ];
    for row in &edge {
        println!(
            "edge {}: planned 0 allocs, {:.3} ms | pr3: {:.1} allocs, {:.3} ms ({:.2}x)",
            row.stack,
            row.planned.latency_ms,
            row.pr3.allocs_per_request,
            row.pr3.latency_ms,
            row.pr3.latency_ms / row.planned.latency_ms,
        );
    }

    // The observability contracts, gated on the measured full-model latency.
    let gates = measure_tracing_gates(edge[2].planned.latency_ms);
    println!(
        "tracing: enabled adds {:.1} allocs/pass over {} spans; disabled span {:.2} ns \
         -> {:.4}% of planned latency",
        gates.enabled_allocs_per_pass,
        gates.spans_per_pass,
        gates.disabled_span_ns,
        gates.disabled_overhead_fraction * 100.0
    );

    dump_json(&serving, &edge, &gates, quick);
    Parallelism::auto().make_current();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
