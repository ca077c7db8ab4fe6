//! The benchmarked model, its seeded inputs, and its deployment behind the
//! multiplexed server on a real localhost TCP socket.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Instant;

use mtlsplit_core::MtlSplitModel;
use mtlsplit_data::shapes::{ShapesConfig, SCALE_CLASSES, SHAPE_CLASSES};
use mtlsplit_data::{MultiTaskDataset, TaskSpec};
use mtlsplit_models::BackboneKind;
use mtlsplit_serve::{InferenceServer, MuxServer, ServeMetrics, ServerConfig, SplitVariant};
use mtlsplit_tensor::{StdRng, Tensor};

/// Input side length: the Full preset's 24×24 RGB images.
pub const IMAGE_SIZE: usize = 24;
/// Hidden width of each task head.
pub const HEAD_HIDDEN: usize = 64;
/// Server worker threads.
pub const SERVER_WORKERS: usize = 2;
/// Most requests one server forward pass coalesces.
pub const MAX_BATCH: usize = 8;
/// Distinct seeded inputs the serving workloads cycle through.
pub const SERVING_INPUTS: usize = 256;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The seeded Table-1 Shapes data: `object_size` (8 classes) and
/// `object_type` (4 classes).
pub fn shapes(seed: u64, samples: usize) -> Result<MultiTaskDataset, String> {
    ShapesConfig {
        samples,
        image_size: IMAGE_SIZE,
        noise_fraction: 0.15,
    }
    .generate_table1_tasks(seed)
    .map_err(|e| e.to_string())
}

/// `count` seeded single-image batches.
pub fn images(seed: u64, count: usize) -> Result<Vec<Tensor>, String> {
    let data = shapes(seed, count)?;
    (0..count)
        .map(|i| {
            data.images()
                .slice_batch(i, i + 1)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The model: `MobileStyle` backbone and two task heads, weights drawn from
/// `seed`. No training happens here.
pub fn build_model(seed: u64) -> Result<MtlSplitModel, String> {
    let tasks = [
        TaskSpec::new("object_size", SCALE_CLASSES),
        TaskSpec::new("object_type", SHAPE_CLASSES),
    ];
    MtlSplitModel::new(
        BackboneKind::MobileStyle,
        3,
        IMAGE_SIZE,
        &tasks,
        HEAD_HIDDEN,
        &mut StdRng::seed_from(seed),
    )
    .map_err(|e| e.to_string())
}

/// The monolithic model's outputs for every input: the reference every
/// served answer must equal bit for bit.
pub fn references(seed: u64, inputs: &[Tensor]) -> Result<Vec<Vec<Tensor>>, String> {
    let model = build_model(seed)?;
    inputs
        .iter()
        .map(|x| {
            model
                .infer_forward(x)
                .map(|(_, outputs)| outputs)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// An `InferenceServer` behind a `MuxServer` on an ephemeral localhost
/// port; stopped and joined on drop.
pub struct Serving {
    server: Arc<InferenceServer>,
    mux: Option<MuxServer>,
}

impl Serving {
    /// Starts the server over `heads`, serving the given split variants
    /// (`variants[0]` is what every connection gets).
    pub fn start(
        heads: Vec<Box<dyn mtlsplit_nn::Layer>>,
        variants: Vec<SplitVariant>,
    ) -> Result<Self, String> {
        let config = ServerConfig::default()
            .with_workers(SERVER_WORKERS)
            .with_max_batch(MAX_BATCH);
        let server = Arc::new(InferenceServer::start_with_splits(
            heads,
            variants,
            Vec::new(),
            config,
        ));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let mux = MuxServer::spawn(Arc::clone(&server), listener).map_err(|e| e.to_string())?;
        Ok(Self {
            server,
            mux: Some(mux),
        })
    }

    /// Where the mux listens.
    pub fn addr(&self) -> SocketAddr {
        self.mux.as_ref().expect("mux runs until drop").local_addr()
    }

    /// The server's metrics since it started.
    pub fn metrics(&self) -> ServeMetrics {
        self.server.metrics()
    }
}

impl Drop for Serving {
    fn drop(&mut self) {
        if let Some(mux) = self.mux.take() {
            mux.stop();
        }
        self.server.shutdown();
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, timing each, and keeps the last
/// result; earlier ones are torn down between the timed calls.
pub fn timed_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut last: Option<T> = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        let value = setup()?;
        seconds.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), seconds))
}

/// Server-side per-layer figures from a metrics snapshot.
pub fn server_layer_metrics(report: &mut crate::metrics::Report, metrics: &ServeMetrics) {
    let ms = |s: f64| s * 1e3;
    report.set("serve.queue_wait_ms_p50", ms(metrics.queue_wait.p50_s));
    report.set("serve.queue_wait_ms_p95", ms(metrics.queue_wait.p95_s));
    report.set("serve.decode_ms_p50", ms(metrics.decode.p50_s));
    report.set("serve.forward_ms_p50", ms(metrics.forward.p50_s));
    report.set("serve.forward_ms_p95", ms(metrics.forward.p95_s));
    report.set("serve.encode_ms_p50", ms(metrics.encode.p50_s));
    report.set("serve.mean_batch_size", metrics.mean_batch_size);
    let requests = metrics.requests.max(1) as f64;
    report.set("serve.batches_per_req", metrics.batches as f64 / requests);
    report.set(
        "serve.shed_rate",
        metrics.shed as f64 / (metrics.requests + metrics.shed).max(1) as f64,
    );
    report.set("serve.errors", metrics.errors as f64);
    report.set("serve.evictions", metrics.evictions as f64);
}

/// Sum of the server's phase medians (queue wait, decode, forward,
/// encode), in nanoseconds.
pub fn server_phase_ns(metrics: &ServeMetrics) -> f64 {
    (metrics.queue_wait.p50_s + metrics.decode.p50_s + metrics.forward.p50_s + metrics.encode.p50_s)
        * 1e9
}

/// Process-wide counters at one instant; two of them bound a window.
#[derive(Clone, Copy)]
pub struct Counters {
    obs: mtlsplit_obs::CountersSnapshot,
    allocations: u64,
}

impl Counters {
    /// Reads the counters now.
    pub fn now() -> Self {
        Self {
            obs: mtlsplit_obs::counters(),
            allocations: crate::alloc::allocations(),
        }
    }

    /// Sets the per-op counter metrics of the window from `self` to `end`.
    pub fn report_until(&self, end: &Self, report: &mut crate::metrics::Report, ops: u64) {
        let per_op = |delta: u64| delta as f64 / ops.max(1) as f64;
        let (a, b) = (&self.obs, &end.obs);
        report.set(
            "tensor.gemm_calls_per_op",
            per_op(b.gemm_calls - a.gemm_calls),
        );
        report.set(
            "tensor.gflop_per_op",
            per_op(b.gemm_flops - a.gemm_flops) / 1e9,
        );
        report.set(
            "tensor.im2col_mb_per_op",
            per_op(b.im2col_bytes - a.im2col_bytes) / 1e6,
        );
        report.set(
            "nn.arena_misses_per_op",
            per_op(b.arena_misses - a.arena_misses),
        );
        report.set(
            "nn.allocs_per_op",
            per_op(end.allocations - self.allocations),
        );
    }
}
