//! Training-step benchmark: the planned, zero-allocation `TrainPlan` path
//! against the seed training step it replaces, plus the paper's
//! joint-MTL-vs-per-task-STL comparison.
//!
//! Two claims are machine-checked, not just recorded:
//!
//! 1. **Zero allocations per planned step.** A counting global allocator
//!    wraps `System`; after the warm-up step the planned training step
//!    (forward, loss, backward, optimizer update) must perform exactly 0
//!    heap allocations (asserted — in quick mode this is the CI gate). The
//!    measurement pins `Parallelism::single()`, the per-worker/edge regime;
//!    multi-threaded runs additionally spawn scoped worker threads inside
//!    the large GEMMs.
//! 2. **Bit-identity.** Before anything is timed, the planned step and the
//!    seed step vendored in `mtlsplit_bench::reference::seed` train two
//!    identically-seeded models; losses and every parameter must stay `==`.
//!
//! Results go to `BENCH_training.json` at the repository root (hand-rolled
//! JSON — the workspace has no serde); `MTLSPLIT_BENCH_QUICK=1` selects the
//! reduced CI grid.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use mtlsplit_bench::reference::seed;
use mtlsplit_core::MtlSplitModel;
use mtlsplit_data::TaskSpec;
use mtlsplit_models::BackboneKind;
use mtlsplit_nn::{AdamW, TrainPlan};
use mtlsplit_obs as obs;
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
// The measured workload: one MobileStyle joint training step
// ---------------------------------------------------------------------------

const BATCH: usize = 16;
const IMAGE: usize = 20;

fn tasks() -> Vec<TaskSpec> {
    vec![
        TaskSpec::new("object_size", 8),
        TaskSpec::new("object_type", 4),
    ]
}

fn build_model(seed: u64) -> MtlSplitModel {
    let mut rng = StdRng::seed_from(seed);
    MtlSplitModel::new(BackboneKind::MobileStyle, 3, IMAGE, &tasks(), 32, &mut rng)
        .expect("bench model")
}

fn batch(rng: &mut StdRng) -> (Tensor, Vec<Vec<usize>>) {
    let images = Tensor::randn(&[BATCH, 3, IMAGE, IMAGE], 0.5, 0.2, rng);
    let labels = vec![
        (0..BATCH).map(|i| i % 8).collect::<Vec<_>>(),
        (0..BATCH).map(|i| i % 4).collect::<Vec<_>>(),
    ];
    (images, labels)
}

struct StepStats {
    allocs_per_step: f64,
    step_ms: f64,
}

struct TrainingMeasurement {
    steps: usize,
    planned: StepStats,
    seed: StepStats,
    /// Steps until the two paths were compared parameter-for-parameter.
    identity_steps: usize,
}

fn measure_training(reps: usize, steps: usize, identity_steps: usize) -> TrainingMeasurement {
    let (images, labels) = batch(&mut StdRng::seed_from(3));

    // Bit-identity gate: identically-seeded models, one stepped through the
    // vendored seed path, one through the plan; losses and every parameter
    // must stay `==`.
    {
        let mut planned = build_model(1);
        let mut seed_net = seed::SeedNet::from_model(&mut build_model(1), IMAGE, 1e-3);
        let mut opt_planned = AdamW::new(1e-3).expect("optimizer");
        let mut plan = TrainPlan::new();
        let mut losses = Vec::new();
        for step in 0..identity_steps {
            planned
                .train_batch_with(&images, &labels, &mut opt_planned, &mut plan, &mut losses)
                .expect("planned step");
            let seed_losses = seed_net.train_step(&images, &labels);
            assert_eq!(
                losses, seed_losses,
                "step {step}: planned/seed losses diverged"
            );
        }
        let seed_values = seed_net.param_values();
        for (index, (a, s)) in planned
            .parameters_mut()
            .iter()
            .zip(&seed_values)
            .enumerate()
        {
            assert_eq!(
                a.value(),
                s,
                "parameter {index} diverged (planned vs seed baseline) after \
                 {identity_steps} steps"
            );
        }
    }

    // The timed/counted model (fresh, so it starts from the same state the
    // seed baseline below starts from).
    let mut planned_model = build_model(2);
    let mut planned_opt = AdamW::new(1e-3).expect("optimizer");
    let mut plan = TrainPlan::new();
    let mut losses = Vec::new();

    // Warm-up: sizes every arena buffer, optimizer moment, and thread-local
    // kernel scratch.
    for _ in 0..2 {
        planned_model
            .train_batch_with(&images, &labels, &mut planned_opt, &mut plan, &mut losses)
            .expect("warm-up step");
    }

    // Steady state: the machine-checked zero-allocation guarantee.
    let before = allocations();
    for _ in 0..steps {
        planned_model
            .train_batch_with(&images, &labels, &mut planned_opt, &mut plan, &mut losses)
            .expect("planned step");
    }
    let planned_allocs = allocations() - before;
    assert_eq!(
        planned_allocs, 0,
        "the planned training step must perform zero steady-state heap allocations \
         (saw {planned_allocs} over {steps} steps)"
    );

    // The same guarantee with tracing ENABLED: spans land in this thread's
    // ring buffer, preallocated on the first traced step, so the steady
    // state stays allocation-free with full span emission.
    obs::set_enabled(true);
    planned_model
        .train_batch_with(&images, &labels, &mut planned_opt, &mut plan, &mut losses)
        .expect("traced warm-up step");
    let before = allocations();
    for _ in 0..steps {
        planned_model
            .train_batch_with(&images, &labels, &mut planned_opt, &mut plan, &mut losses)
            .expect("traced planned step");
    }
    let traced_allocs = allocations() - before;
    obs::set_enabled(false);
    obs::reset();
    assert_eq!(
        traced_allocs, 0,
        "the planned training step must stay allocation-free with tracing enabled \
         (saw {traced_allocs} over {steps} steps)"
    );

    // The seed baseline: fresh net (same ctor seed), warmed up, counted and
    // timed on the same protocol.
    let mut seed_net = seed::SeedNet::from_model(&mut build_model(2), IMAGE, 1e-3);
    for _ in 0..2 {
        seed_net.train_step(&images, &labels);
    }
    let before = allocations();
    for _ in 0..steps {
        seed_net.train_step(&images, &labels);
    }
    let seed_allocs = (allocations() - before) as f64 / steps as f64;

    let planned_ms = best_ms(reps, || {
        for _ in 0..steps {
            planned_model
                .train_batch_with(&images, &labels, &mut planned_opt, &mut plan, &mut losses)
                .expect("planned step");
        }
    }) / steps as f64;
    let seed_ms = best_ms(reps, || {
        for _ in 0..steps {
            seed_net.train_step(&images, &labels);
        }
    }) / steps as f64;

    TrainingMeasurement {
        steps,
        planned: StepStats {
            allocs_per_step: 0.0,
            step_ms: planned_ms,
        },
        seed: StepStats {
            allocs_per_step: seed_allocs,
            step_ms: seed_ms,
        },
        identity_steps,
    }
}

/// The paper's computational-saving comparison: one joint MTL step (shared
/// backbone evaluated once) against one full STL step per task, both on the
/// planned runtime.
fn measure_mtl_vs_stl(reps: usize, steps: usize) -> (f64, f64) {
    let (images, labels) = batch(&mut StdRng::seed_from(7));
    let mut mtl = build_model(4);
    let mut mtl_opt = AdamW::new(1e-3).expect("optimizer");
    let mut mtl_plan = TrainPlan::new();
    let mut losses = Vec::new();

    let mut rng = StdRng::seed_from(5);
    let mut stl_models: Vec<MtlSplitModel> = tasks()
        .iter()
        .map(|task| {
            MtlSplitModel::new(
                BackboneKind::MobileStyle,
                3,
                IMAGE,
                std::slice::from_ref(task),
                32,
                &mut rng,
            )
            .expect("stl model")
        })
        .collect();
    let mut stl_opts: Vec<AdamW> = stl_models
        .iter()
        .map(|_| AdamW::new(1e-3).expect("optimizer"))
        .collect();
    let mut stl_plans: Vec<TrainPlan> = stl_models.iter().map(|_| TrainPlan::new()).collect();

    let mtl_step =
        |mtl: &mut MtlSplitModel, opt: &mut AdamW, plan: &mut TrainPlan, losses: &mut Vec<f32>| {
            mtl.train_batch_with(&images, &labels, opt, plan, losses)
                .expect("mtl step");
        };
    // Warm-up both.
    mtl_step(&mut mtl, &mut mtl_opt, &mut mtl_plan, &mut losses);
    for (task_index, ((model, opt), plan)) in stl_models
        .iter_mut()
        .zip(stl_opts.iter_mut())
        .zip(stl_plans.iter_mut())
        .enumerate()
    {
        model
            .train_batch_with(
                &images,
                &labels[task_index..=task_index],
                opt,
                plan,
                &mut losses,
            )
            .expect("stl step");
    }

    let mtl_ms = best_ms(reps, || {
        for _ in 0..steps {
            mtl.train_batch_with(&images, &labels, &mut mtl_opt, &mut mtl_plan, &mut losses)
                .expect("mtl step");
        }
    }) / steps as f64;
    let stl_ms = best_ms(reps, || {
        for _ in 0..steps {
            for (task_index, ((model, opt), plan)) in stl_models
                .iter_mut()
                .zip(stl_opts.iter_mut())
                .zip(stl_plans.iter_mut())
                .enumerate()
            {
                model
                    .train_batch_with(
                        &images,
                        &labels[task_index..=task_index],
                        opt,
                        plan,
                        &mut losses,
                    )
                    .expect("stl step");
            }
        }
    }) / steps as f64;
    (mtl_ms, stl_ms)
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

fn dump_json(training: &TrainingMeasurement, mtl_ms: f64, stl_ms: f64, quick: bool) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"benchmark\": \"training\",\n  \"available_parallelism\": {cores},\n  \
         \"quick\": {quick},\n  \"workload\": \"mobile_{IMAGE}x{IMAGE}_batch{BATCH}_2heads_adamw\",\n  \
         \"steps\": {steps},\n  \"bit_identical_steps\": {identity},\n  \
         \"planned\": {{\"allocs_per_step\": {pa:.1}, \"step_ms\": {pm:.4}}},\n  \
         \"seed_baseline\": {{\"allocs_per_step\": {sa:.1}, \"step_ms\": {sm:.4}, \
         \"speedup_planned\": {ss:.2}}},\n  \
         \"mtl_vs_stl\": {{\"mtl_joint_step_ms\": {mtl:.4}, \"stl_per_task_step_ms\": {stl:.4}, \
         \"stl_over_mtl\": {ratio:.2}}}\n}}\n",
        steps = training.steps,
        identity = training.identity_steps,
        pa = training.planned.allocs_per_step,
        pm = training.planned.step_ms,
        sa = training.seed.allocs_per_step,
        sm = training.seed.step_ms,
        ss = training.seed.step_ms / training.planned.step_ms,
        mtl = mtl_ms,
        stl = stl_ms,
        ratio = stl_ms / mtl_ms,
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_training.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}

fn bench_training(_c: &mut Criterion) {
    // The per-worker/edge regime: kernels single-threaded on the calling
    // thread, so the zero-allocation assertion is not confounded by scoped
    // worker-thread spawns inside the large GEMMs.
    Parallelism::single().make_current();
    let quick = quick_mode();
    let reps = if quick { 3 } else { 7 };
    let steps = if quick { 6 } else { 20 };
    let identity_steps = if quick { 3 } else { 6 };

    let training = measure_training(reps, steps, identity_steps);
    println!(
        "planned training step: 0 allocs, {:.3} ms | seed baseline: {:.1} allocs, {:.3} ms \
         ({:.2}x)",
        training.planned.step_ms,
        training.seed.allocs_per_step,
        training.seed.step_ms,
        training.seed.step_ms / training.planned.step_ms,
    );

    let (mtl_ms, stl_ms) = measure_mtl_vs_stl(reps, steps.min(10));
    println!(
        "mtl joint step {mtl_ms:.3} ms vs stl per-task {stl_ms:.3} ms ({:.2}x saved by sharing \
         the backbone)",
        stl_ms / mtl_ms
    );

    dump_json(&training, mtl_ms, stl_ms, quick);
    Parallelism::auto().make_current();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
