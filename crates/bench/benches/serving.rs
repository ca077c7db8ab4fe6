//! Serving-throughput benchmark: requests/sec and tail latency of the
//! `InferenceServer` behind its [`MuxServer`] TCP front-end, across the
//! worker-pool × micro-batch × pipeline-depth grid.
//!
//! Eight concurrent edge clients connect over real localhost sockets to one
//! shared server. Each client runs `infer_pipelined` with depth ∈ {1, 8},
//! so the poller sees one socket per client carrying up to eight in-flight
//! requests and the worker pool can coalesce across connections. Besides
//! the criterion timings, the bench prints one
//! summary line per grid point — including the mean micro-batch size and
//! the share of p50 latency spent queue-waiting — and dumps the whole grid
//! to `BENCH_serving.json` at the repository root, so the
//! serving-performance trajectory is tracked from PR to PR.
//!
//! The server holds two split variants — the full-backbone default and a
//! "shallow" split whose final activation runs server-side as a tail — and
//! half the clients negotiate onto the shallow one at handshake, so every
//! run also records the per-split request counts into the JSON.
//!
//! Two always-asserted resilience rows ride along: an overload burst
//! against a one-worker server with a high-water mark of one, which must
//! shed with typed `Overloaded` errors (the recorded shed rate must be
//! non-zero), and a fault-injected session under the `light` plan answered
//! end to end by retries plus the edge-local fallback.
//!
//! `MTLSPLIT_BENCH_QUICK=1` selects the reduced CI grid (workers = 2,
//! max_batch = 8, both pipeline depths, plus both resilience rows).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtlsplit_nn::{Flatten, Layer, Linear, Relu, Sequential};
use mtlsplit_serve::{
    BreakerConfig, EdgeClient, ErrorCode, FaultPlan, FaultyTransport, InferenceServer,
    LoopbackTransport, MuxConfig, MuxServer, ResilientClient, RetryPolicy, ServeError, ServedVia,
    ServerConfig, SplitRequests, SplitRule, SplitVariant, TcpTransport,
};
use mtlsplit_split::{Precision, TensorCodec};
use mtlsplit_tensor::{StdRng, Tensor};
use std::time::Duration;

const FEATURES: usize = 128;
/// Samples per request: edge devices commonly ship small frame bursts.
const ROWS_PER_REQUEST: usize = 4;
const CLIENTS: usize = 8;

/// The full benchmarked grid: every worker count × micro-batch limit, each
/// at both pipeline depths.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const MAX_BATCHES: [usize; 2] = [1, 8];
const PIPELINE_DEPTHS: [usize; 2] = [1, 8];

/// `1` when `MTLSPLIT_BENCH_QUICK` asks for the reduced CI grid.
fn quick_mode() -> bool {
    std::env::var("MTLSPLIT_BENCH_QUICK").is_ok_and(|v| v == "1")
}

fn requests_per_client() -> usize {
    if quick_mode() {
        16
    } else {
        32
    }
}

fn backbone(rng: &mut StdRng) -> Box<dyn Layer> {
    Box::new(
        Sequential::new()
            .push(Flatten::new())
            .push(Linear::new(3 * 8 * 8, FEATURES, rng))
            .push(Relu::new()),
    )
}

/// The shallow edge prefix for clients that negotiate the "shallow" split:
/// the final activation moves into the server-side tail.
fn shallow_backbone(rng: &mut StdRng) -> Box<dyn Layer> {
    Box::new(
        Sequential::new()
            .push(Flatten::new())
            .push(Linear::new(3 * 8 * 8, FEATURES, rng)),
    )
}

/// Two MLP heads sized so the server-side forward is real work (hundreds of
/// thousands of MACs), not just queue overhead — that is the regime the
/// worker pool exists for.
fn heads(rng: &mut StdRng) -> Vec<Box<dyn Layer>> {
    vec![
        Box::new(
            Sequential::new()
                .push(Linear::new(FEATURES, 512, rng))
                .push(Relu::new())
                .push(Linear::new(512, 8, rng)),
        ),
        Box::new(
            Sequential::new()
                .push(Linear::new(FEATURES, 256, rng))
                .push(Relu::new())
                .push(Linear::new(256, 4, rng)),
        ),
    ]
}

/// One measured serving session.
struct DriveOutcome {
    requests: u64,
    elapsed_s: f64,
    p50_latency_s: f64,
    p95_latency_s: f64,
    mean_batch_size: f64,
    /// Per-phase breakdown (queue-wait / decode / forward / encode) from the
    /// server's sharded histograms — the measured answer to "is serving
    /// wire/queue-bound or compute-bound?".
    queue_wait: mtlsplit_serve::PhaseStats,
    decode: mtlsplit_serve::PhaseStats,
    forward: mtlsplit_serve::PhaseStats,
    encode: mtlsplit_serve::PhaseStats,
    /// Per-split request counts: which negotiated split each request ran
    /// under (half the clients handshake onto the shallow split).
    per_split: Vec<SplitRequests>,
}

impl DriveOutcome {
    fn requests_per_second(&self) -> f64 {
        self.requests as f64 / self.elapsed_s.max(1e-12)
    }

    /// Share of the p50 request latency spent waiting in the queue — the
    /// number the continuous-batching front-end exists to push down.
    fn queue_wait_share_p50(&self) -> f64 {
        self.queue_wait.p50_s / self.p50_latency_s.max(1e-12)
    }
}

/// One grid point: which pool size, batch limit and per-client pipeline
/// depth produced a [`DriveOutcome`].
struct GridRow {
    workers: usize,
    max_batch: usize,
    depth: usize,
    outcome: DriveOutcome,
}

/// Runs one full serving session over real localhost TCP on a fresh
/// negotiating server behind the mux. With `depth > 1` each client keeps
/// that many requests in flight on its one socket via `infer_pipelined`;
/// with `depth == 1` it round-trips sequentially.
fn drive(workers: usize, max_batch: usize, depth: usize) -> DriveOutcome {
    let mut rng = StdRng::seed_from(1);
    // A negotiating server: the full-backbone split is the default, and a
    // "shallow" variant keeps the final activation server-side as a tail.
    // Odd-indexed clients handshake onto it, so every measured grid point
    // exercises per-split batching and the per-split request counters.
    let server = Arc::new(InferenceServer::start_with_splits(
        heads(&mut rng),
        vec![
            SplitVariant::default_split(2, "deep"),
            SplitVariant::with_tail(1, "shallow", Box::new(Relu::new())),
        ],
        vec![SplitRule {
            device_class: "constrained".to_string(),
            stage: 1,
        }],
        ServerConfig::default()
            .with_max_batch(max_batch)
            .with_workers(workers),
    ));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let mux = MuxServer::spawn(Arc::clone(&server), listener).expect("spawn mux");
    let addr = mux.local_addr();
    let per_client = requests_per_client();
    let start = Instant::now();
    let drivers: Vec<_> = (0..CLIENTS)
        .map(|client_idx| {
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from(100 + client_idx as u64);
                let mut client = EdgeClient::new(
                    backbone(&mut rng),
                    TensorCodec::new(Precision::Float32),
                    Box::new(TcpTransport::connect(addr).expect("connect")),
                );
                if client_idx % 2 == 1 {
                    let assignment = client.hello("constrained", 50.0).expect("handshake");
                    assert_eq!(assignment.stage, 1, "rule table must assign the tail split");
                    client.set_backbone(shallow_backbone(&mut rng));
                }
                let inputs: Vec<Tensor> = (0..per_client)
                    .map(|_| Tensor::randn(&[ROWS_PER_REQUEST, 3, 8, 8], 0.5, 0.2, &mut rng))
                    .collect();
                if depth > 1 {
                    let outcomes = client
                        .infer_pipelined(&inputs, depth)
                        .expect("pipelined window");
                    for outcome in outcomes {
                        outcome.expect("serve request");
                    }
                } else {
                    for x in &inputs {
                        client.infer(x).expect("serve request");
                    }
                }
            })
        })
        .collect();
    for driver in drivers {
        driver.join().expect("client thread");
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let metrics = server.metrics();
    mux.stop();
    assert_eq!(metrics.errors, 0, "bench requests must not error");
    assert_eq!(metrics.shed, 0, "the grid runs inside the high-water mark");
    assert_eq!(
        metrics.workers, workers,
        "metrics must record the pool size"
    );
    // The split counters must account for every request: negotiated
    // clients on the shallow variant, the rest on the default.
    let shallow_clients = (CLIENTS / 2) as u64;
    let by_label = |label: &str| {
        metrics
            .per_split
            .iter()
            .find(|s| s.label == label)
            .map(|s| s.requests)
            .unwrap_or(0)
    };
    assert_eq!(
        by_label("shallow"),
        shallow_clients * per_client as u64,
        "negotiated requests must land on the shallow split"
    );
    assert_eq!(
        by_label("deep"),
        (CLIENTS as u64 - shallow_clients) * per_client as u64,
        "un-negotiated requests must stay on the default split"
    );
    DriveOutcome {
        requests: metrics.requests,
        elapsed_s,
        p50_latency_s: metrics.p50_latency_s,
        p95_latency_s: metrics.p95_latency_s,
        mean_batch_size: metrics.mean_batch_size,
        queue_wait: metrics.queue_wait,
        decode: metrics.decode,
        forward: metrics.forward,
        encode: metrics.encode,
        per_split: metrics.per_split,
    }
}

/// One measured overload burst: a deep pipelined window against a
/// one-worker server with a queue high-water mark of one, so admission
/// control must answer most of the burst with typed `Overloaded` errors
/// before any decode work.
struct OverloadOutcome {
    offered: u64,
    served: u64,
    shed: u64,
    /// The server-side shed counter, scraped from [`ServeMetrics`].
    metrics_shed: u64,
}

impl OverloadOutcome {
    fn shed_rate(&self) -> f64 {
        self.shed as f64 / self.offered.max(1) as f64
    }
}

/// Drives the overload burst and asserts the shed path fired: some requests
/// served (bit-correct routing), some shed with `ErrorCode::Overloaded`,
/// and the server's `shed` counter agreeing.
fn drive_overload() -> OverloadOutcome {
    let mut rng = StdRng::seed_from(1);
    let server = Arc::new(InferenceServer::start(
        heads(&mut rng),
        ServerConfig {
            workers: 1,
            queue_depth: 2,
            ..ServerConfig::default()
        },
    ));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let mux = MuxServer::spawn_with(
        Arc::clone(&server),
        listener,
        MuxConfig::default().with_queue_high_water(1),
    )
    .expect("spawn mux");
    let mut client = EdgeClient::new(
        backbone(&mut rng),
        TensorCodec::new(Precision::Float32),
        Box::new(TcpTransport::connect(mux.local_addr()).expect("connect")),
    );
    let offered = 64usize;
    let inputs: Vec<Tensor> = (0..offered)
        .map(|_| Tensor::randn(&[ROWS_PER_REQUEST, 3, 8, 8], 0.5, 0.2, &mut rng))
        .collect();
    let outcomes = client
        .infer_pipelined(&inputs, offered)
        .expect("the connection survives the burst");
    let mut served = 0u64;
    let mut shed = 0u64;
    for outcome in &outcomes {
        match outcome {
            Ok(_) => served += 1,
            Err(ServeError::Remote { code, .. }) => {
                assert_eq!(
                    *code,
                    ErrorCode::Overloaded,
                    "sheds must be typed Overloaded"
                );
                shed += 1;
            }
            Err(other) => panic!("untyped overload outcome: {other:?}"),
        }
    }
    let metrics_shed = server.metrics().shed;
    mux.stop();
    assert!(served >= 1, "an overloaded server must still serve someone");
    assert!(shed >= 1, "the overload burst must shed typed errors");
    assert!(
        metrics_shed >= shed,
        "server shed counter ({metrics_shed}) undercounts the wire ({shed})"
    );
    OverloadOutcome {
        offered: offered as u64,
        served,
        shed,
        metrics_shed,
    }
}

/// One measured fault-injected serving session (the ISSUE's "goodput under
/// faults" row): every request still ends in a result, so goodput counts
/// *answered* requests — remote or edge-local fallback — per second.
struct FaultOutcome {
    plan: FaultPlan,
    requests: u64,
    remote: u64,
    fallbacks: u64,
    retries: u64,
    reconnects: u64,
    elapsed_s: f64,
}

impl FaultOutcome {
    fn goodput_rps(&self) -> f64 {
        (self.remote + self.fallbacks) as f64 / self.elapsed_s.max(1e-12)
    }

    fn retry_rate(&self) -> f64 {
        self.retries as f64 / self.requests.max(1) as f64
    }

    fn fallback_rate(&self) -> f64 {
        self.fallbacks as f64 / self.requests.max(1) as f64
    }
}

/// Drives the serving path through a seeded `FaultyTransport` under the
/// `light` plan (~1% frame corruption, ~5% of responses delayed 5 ms, rare
/// drops), with resilient clients holding head replicas as the edge-local
/// fallback, and reports goodput, retry rate and fallback rate.
fn drive_faulty() -> FaultOutcome {
    let plan = FaultPlan::light(13);
    let mut rng = StdRng::seed_from(1);
    let server = Arc::new(InferenceServer::start(
        heads(&mut rng),
        ServerConfig::default().with_max_batch(8).with_workers(2),
    ));
    let per_client = requests_per_client();
    let start = Instant::now();
    let drivers: Vec<_> = (0..CLIENTS)
        .map(|client_idx| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from(100 + client_idx as u64);
                // Head replicas with the server's exact weights (same seed,
                // same construction order) — the edge-local fallback model.
                let fallback_heads = heads(&mut StdRng::seed_from(1));
                let client = EdgeClient::new(
                    backbone(&mut rng),
                    TensorCodec::new(Precision::Float32),
                    Box::new(FaultyTransport::new(
                        LoopbackTransport::new(server),
                        plan.with_seed(plan.seed + client_idx as u64),
                    )),
                )
                .with_retry_policy(
                    RetryPolicy::resilient(plan.seed + client_idx as u64)
                        .with_deadline(Some(Duration::from_millis(250)))
                        .with_backoff(Duration::from_micros(100), Duration::from_millis(2)),
                );
                let mut resilient =
                    ResilientClient::new(client, None, fallback_heads, BreakerConfig::default());
                let mut remote = 0u64;
                let mut fallbacks = 0u64;
                for _ in 0..per_client {
                    let x = Tensor::randn(&[ROWS_PER_REQUEST, 3, 8, 8], 0.5, 0.2, &mut rng);
                    match resilient.infer(&x).expect("every request is answered").via {
                        ServedVia::Remote => remote += 1,
                        ServedVia::Fallback => fallbacks += 1,
                    }
                }
                let stats = resilient.client_mut().stats();
                (remote, fallbacks, stats.retries, stats.reconnects)
            })
        })
        .collect();
    let mut outcome = FaultOutcome {
        plan,
        requests: (CLIENTS * per_client) as u64,
        remote: 0,
        fallbacks: 0,
        retries: 0,
        reconnects: 0,
        elapsed_s: 0.0,
    };
    for driver in drivers {
        let (remote, fallbacks, retries, reconnects) = driver.join().expect("client thread");
        outcome.remote += remote;
        outcome.fallbacks += fallbacks;
        outcome.retries += retries;
        outcome.reconnects += reconnects;
    }
    outcome.elapsed_s = start.elapsed().as_secs_f64();
    assert_eq!(
        outcome.remote + outcome.fallbacks,
        outcome.requests,
        "a resilient client must answer every request"
    );
    outcome
}

/// The per-split request counts as a JSON array fragment.
fn splits_json(per_split: &[SplitRequests]) -> String {
    let entries: Vec<String> = per_split
        .iter()
        .map(|split| {
            format!(
                "{{\"stage\": {}, \"label\": \"{}\", \"requests\": {}}}",
                split.stage, split.label, split.requests
            )
        })
        .collect();
    format!("\"splits\": [{}]", entries.join(", "))
}

/// One phase as a JSON object fragment, milliseconds.
fn phase_json(label: &str, phase: &mtlsplit_serve::PhaseStats) -> String {
    format!(
        "\"{label}\": {{\"p50_ms\": {:.4}, \"p95_ms\": {:.4}}}",
        phase.p50_s * 1e3,
        phase.p95_s * 1e3
    )
}

/// Writes the measured grid to `BENCH_serving.json` at the repository root
/// (hand-rolled JSON — the workspace has no serde).
fn dump_json(rows: &[GridRow], overload: &OverloadOutcome, faulty: &FaultOutcome) {
    // Record the host's core count: on a single-core machine the worker
    // pool can only reach parity with one worker (there is no parallelism
    // to exploit), so absolute multi-worker wins are only expected when
    // available_parallelism > 1.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The effective out-of-the-box pool size on this host (the grid below
    // still sweeps explicit worker counts).
    let default_workers = ServerConfig::default_workers();
    let mut json = String::from("{\n  \"benchmark\": \"serving_tcp\",\n");
    json.push_str(&format!(
        "  \"clients\": {CLIENTS},\n  \"requests_per_client\": {},\n  \
         \"rows_per_request\": {ROWS_PER_REQUEST},\n  \"available_parallelism\": {cores},\n  \
         \"default_workers\": {default_workers},\n  \"quick\": {},\n",
        requests_per_client(),
        quick_mode(),
    ));
    json.push_str("  \"grid\": [\n");
    for (index, row) in rows.iter().enumerate() {
        let outcome = &row.outcome;
        json.push_str(&format!(
            "    {{\"workers\": {}, \"max_batch\": {}, \
             \"pipeline_depth\": {}, \"requests\": {}, \"requests_per_second\": {:.1}, \
             \"p50_latency_ms\": {:.4}, \"p95_latency_ms\": {:.4}, \
             \"mean_batch_size\": {:.3}, \"queue_wait_share_p50\": {:.4}, \
             {}, {}, {}, {}, {}}}{}\n",
            row.workers,
            row.max_batch,
            row.depth,
            outcome.requests,
            outcome.requests_per_second(),
            outcome.p50_latency_s * 1e3,
            outcome.p95_latency_s * 1e3,
            outcome.mean_batch_size,
            outcome.queue_wait_share_p50(),
            phase_json("queue_wait", &outcome.queue_wait),
            phase_json("decode", &outcome.decode),
            phase_json("forward", &outcome.forward),
            phase_json("encode", &outcome.encode),
            splits_json(&outcome.per_split),
            if index + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"overload\": {{\"offered\": {}, \"served\": {}, \"shed\": {}, \
         \"shed_rate\": {:.4}, \"server_metrics_shed\": {}}},\n",
        overload.offered,
        overload.served,
        overload.shed,
        overload.shed_rate(),
        overload.metrics_shed,
    ));
    json.push_str(&format!(
        "  \"fault_injected\": {{\"plan\": \"light\", \"seed\": {}, \
         \"corrupt_rate\": {:.4}, \"delay_rate\": {:.4}, \"delay_ms\": {:.1}, \
         \"drop_rate\": {:.4}, \"requests\": {}, \"goodput_rps\": {:.1}, \
         \"remote\": {}, \"fallbacks\": {}, \"retry_rate\": {:.4}, \
         \"fallback_rate\": {:.4}, \"reconnects\": {}}}\n",
        faulty.plan.seed,
        faulty.plan.corrupt_rate,
        faulty.plan.delay_rate,
        faulty.plan.delay_ms,
        faulty.plan.drop_rate,
        faulty.requests,
        faulty.goodput_rps(),
        faulty.remote,
        faulty.fallbacks,
        faulty.retry_rate(),
        faulty.fallback_rate(),
        faulty.reconnects,
    ));
    json.push_str("}\n");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serving.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}

/// The measured grid for the current mode: in quick mode one worker/batch
/// point at both depths; in full mode the whole sweep.
fn grid_points() -> Vec<(usize, usize, usize)> {
    if quick_mode() {
        return PIPELINE_DEPTHS.iter().map(|&depth| (2, 8, depth)).collect();
    }
    let mut points = Vec::new();
    for &workers in &WORKER_COUNTS {
        for &max_batch in &MAX_BATCHES {
            for &depth in &PIPELINE_DEPTHS {
                points.push((workers, max_batch, depth));
            }
        }
    }
    points
}

fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_tcp");
    group.sample_size(10);
    let mut rows = Vec::new();
    for (workers, max_batch, depth) in grid_points() {
        // Criterion-time only the headline points (runtime: the full grid
        // is 12 sessions); every point still gets one clean measured run
        // for the summary line and the JSON dump.
        if workers == 2 && max_batch == 8 {
            group.bench_with_input(
                BenchmarkId::new(format!("mux_workers_{workers}_batch_{max_batch}"), depth),
                &(workers, max_batch, depth),
                |bencher, &(w, mb, d)| {
                    bencher.iter(|| drive(w, mb, d));
                },
            );
        }
        let outcome = drive(workers, max_batch, depth);
        println!(
            "serving workers={workers} max_batch={max_batch} depth={depth}: \
             {:.0} req/s, p50 {:.3} ms, p95 {:.3} ms, mean batch {:.2}, \
             queue-wait share {:.2} ({} requests)",
            outcome.requests_per_second(),
            outcome.p50_latency_s * 1e3,
            outcome.p95_latency_s * 1e3,
            outcome.mean_batch_size,
            outcome.queue_wait_share_p50(),
            outcome.requests
        );
        rows.push(GridRow {
            workers,
            max_batch,
            depth,
            outcome,
        });
    }
    group.finish();

    // The continuous-batching claim, asserted where the grid makes it
    // checkable: with eight clients each eight deep, the pool must coalesce
    // well past the half-batch mark.
    let deep_row = rows
        .iter()
        .find(|row| row.workers == 2 && row.max_batch == 8 && row.depth == 8)
        .expect("the depth-8 row is always measured");
    assert!(
        deep_row.outcome.mean_batch_size > 4.0,
        "pipelined depth 8 must batch past 4 on average, got {:.2}",
        deep_row.outcome.mean_batch_size
    );

    // Admission control under a deliberate overload burst — always run,
    // always asserted (the shed rate in the JSON must be non-zero).
    let overload = drive_overload();
    println!(
        "serving overload burst: {}/{} served, {} shed (rate {:.2}), server counter {}",
        overload.served,
        overload.offered,
        overload.shed,
        overload.shed_rate(),
        overload.metrics_shed
    );

    // One fault-injected session: the serving path under the `light` fault
    // plan, answered end to end by retries and the edge-local fallback.
    let faulty = drive_faulty();
    println!(
        "serving under faults (light plan, seed {}): {:.0} goodput req/s, \
         retry rate {:.3}, fallback rate {:.3} ({} remote + {} fallback of {})",
        faulty.plan.seed,
        faulty.goodput_rps(),
        faulty.retry_rate(),
        faulty.fallback_rate(),
        faulty.remote,
        faulty.fallbacks,
        faulty.requests
    );
    dump_json(&rows, &overload, &faulty);
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
