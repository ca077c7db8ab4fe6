//! `edge_closed`: the paper's per-request deployment latency. One edge
//! client on one connection sends one batch-1 image at a time, split at the
//! backbone's default (`gap`) stage: the client runs the backbone, encodes
//! `Z_b`, round-trips it through the mux and the heads, and decodes the
//! answers. The queue stays empty, so edge compute and the wire dominate.
//!
//! Client and server run pinned to one CPU. Only one request is ever in
//! flight, so no parallelism is lost, and every hand-off between the
//! client, the mux and a worker stays on that CPU: a wake-up sent to an
//! idle second CPU of a virtual machine waits on the hypervisor, which made
//! the p99 of unpinned runs vary several-fold from run to run.

use std::time::Instant;

use mtlsplit_obs as obs;
use mtlsplit_serve::wire::{decode_response, encode_response};
use mtlsplit_serve::{ClientStats, EdgeClient, ServeMetrics, SplitVariant, TcpTransport};
use mtlsplit_split::{Precision, TensorCodec};
use mtlsplit_tensor::Tensor;

use crate::checks::{check_bitwise, Outcome, Tally};
use crate::deploy::{self, Counters, Serving};
use crate::metrics::Report;
use crate::spans::{self, bench_span, SpanStore};
use crate::stats::{median, ms, p99_for, quantile, sorted, Slots};
use crate::RunConfig;

/// Requests each set-up sends before it counts as done.
const WARMUP_REQUESTS: usize = 200;
/// Requests between two drains of the span rings in a traced window.
const DRAIN_EVERY: u64 = 64;
/// Passes over the inputs when timing the wire (de)serialization alone.
const LEDGER_PASSES: usize = 4;

/// The deployed pipeline; the client drops (closing its socket) before the
/// server stops.
struct Deployment {
    client: EdgeClient,
    serving: Serving,
}

impl Deployment {
    fn start(seed: u64, inputs: &[Tensor], expected: &[Vec<Tensor>]) -> Result<Self, String> {
        let model = deploy::build_model(seed)?;
        let stage = model.backbone().default_split();
        let (edge, server_half) =
            mtlsplit_core::split_for_serving_at(model, stage).map_err(|e| e.to_string())?;
        let label = edge.boundary().label.clone();
        let (tail, heads) = server_half.into_parts();
        if tail.is_some() {
            return Err("the default split must leave no backbone tail".to_string());
        }
        let serving = Serving::start(heads, vec![SplitVariant::default_split(stage as u8, label)])?;
        let transport = TcpTransport::connect(serving.addr()).map_err(|e| e.to_string())?;
        let mut client = EdgeClient::new(
            edge.into_layer(),
            TensorCodec::new(Precision::Float32),
            Box::new(transport),
        );
        for i in 0..WARMUP_REQUESTS {
            let outputs = client
                .infer(&inputs[i % inputs.len()])
                .map_err(|e| format!("warm-up request {i}: {e}"))?;
            check_bitwise(&outputs, &expected[i % inputs.len()])
                .map_err(|e| format!("warm-up request {i}: {e}"))?;
        }
        Ok(Self { client, serving })
    }
}

/// Per-request stage times of one window, in ns, and its counters.
struct Window {
    e2e: Vec<f64>,
    edge: Vec<f64>,
    encode: Vec<f64>,
    roundtrip: Vec<f64>,
    decode: Vec<f64>,
    tally: Tally,
    first_failure: Option<String>,
    bytes_up: u64,
    bytes_down: u64,
    slots: Slots,
    start: Counters,
    end: Counters,
}

impl Window {
    fn ops(&self) -> u64 {
        self.e2e.len() as u64
    }
}

/// Runs requests closed-loop for `seconds`; with a store, drains the span
/// rings into it as it goes.
fn measure(
    deployment: &mut Deployment,
    inputs: &[Tensor],
    expected: &[Vec<Tensor>],
    seconds: f64,
    mut store: Option<&mut SpanStore>,
) -> Window {
    let codec = deployment.client.codec();
    let counters = Counters::now();
    let mut window = Window {
        e2e: Vec::new(),
        edge: Vec::new(),
        encode: Vec::new(),
        roundtrip: Vec::new(),
        decode: Vec::new(),
        tally: Tally::default(),
        first_failure: None,
        bytes_up: 0,
        bytes_down: 0,
        slots: Slots::start(crate::sys::process_cpu()),
        start: counters,
        end: counters,
    };
    let budget_ns = (seconds * 1e9) as u64;
    let start = Instant::now();
    let mut id = 0u64;
    loop {
        window
            .slots
            .tick(window.e2e.len() as u64, crate::sys::process_cpu);
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        if elapsed_ns >= budget_ns {
            break;
        }
        if let Some(store) = store.as_deref_mut() {
            if id.is_multiple_of(DRAIN_EVERY) && elapsed_ns + spans::FINAL_UNDRAINED_NS < budget_ns
            {
                store.drain();
            }
        }
        let index = (id % inputs.len() as u64) as usize;
        id += 1;
        let request_span = bench_span("bench.request", id);
        let t0 = Instant::now();
        let features = {
            let _span = bench_span("bench.edge_forward", id);
            deployment.client.backbone_features(&inputs[index])
        };
        let t1 = Instant::now();
        let payload = features.map(|f| {
            let _span = bench_span("bench.encode", id);
            codec.encode(&f)
        });
        let t2 = Instant::now();
        let answer = payload.as_ref().map_err(|e| e.to_string()).and_then(|p| {
            let _span = bench_span("bench.roundtrip", id);
            deployment
                .client
                .roundtrip_payload(p)
                .map_err(|e| e.to_string())
        });
        let t3 = Instant::now();
        let outputs: Result<Vec<Tensor>, String> =
            answer.as_ref().map_err(Clone::clone).and_then(|payloads| {
                let _span = bench_span("bench.decode", id);
                payloads
                    .iter()
                    .map(|p| codec.decode(p).map_err(|e| e.to_string()))
                    .collect()
            });
        let t4 = Instant::now();
        drop(request_span);
        let outcome = match outputs.and_then(|o| check_bitwise(&o, &expected[index])) {
            Ok(()) => Outcome::Ok,
            Err(reason) => Outcome::Failed(reason),
        };
        if let (Outcome::Failed(reason), None) = (&outcome, &window.first_failure) {
            window.first_failure = Some(format!("request {id}: {reason}"));
        }
        window.tally.record(&outcome);
        if outcome != Outcome::Ok {
            continue;
        }
        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
        window.e2e.push(ns(t0, t4));
        window.edge.push(ns(t0, t1));
        window.encode.push(ns(t1, t2));
        window.roundtrip.push(ns(t2, t3));
        window.decode.push(ns(t3, t4));
        if let (Ok(p), Ok(answer)) = (&payload, &answer) {
            window.bytes_up += p.wire_bytes() as u64;
            window.bytes_down += answer.iter().map(|a| a.wire_bytes() as u64).sum::<u64>();
        }
    }
    window.end = Counters::now();
    window
}

/// Medians, in ns, of the wire serialization `roundtrip_payload` performs
/// inside its call: `WirePayload::encode` of the request and
/// `wire::decode_response` of the answer. Timed alone, off the measured
/// window, on the same inputs.
fn wire_ledger(deployment: &mut Deployment, inputs: &[Tensor]) -> Result<(f64, f64), String> {
    let codec = deployment.client.codec();
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..LEDGER_PASSES {
        for input in inputs {
            let features = deployment
                .client
                .backbone_features(input)
                .map_err(|e| e.to_string())?;
            let payload = codec.encode(&features);
            let answer = deployment
                .client
                .roundtrip_payload(&payload)
                .map_err(|e| e.to_string())?;
            let body = encode_response(&answer);
            let t0 = Instant::now();
            let bytes = std::hint::black_box(payload.encode());
            let t1 = Instant::now();
            let parsed = std::hint::black_box(decode_response(&body).map_err(|e| e.to_string())?);
            let t2 = Instant::now();
            if bytes.len() != payload.wire_bytes() || parsed != answer {
                return Err("wire serialization does not round-trip".to_string());
            }
            encode.push((t1 - t0).as_nanos() as f64);
            decode.push((t2 - t1).as_nanos() as f64);
        }
    }
    Ok((median(&encode), median(&decode)))
}

/// Per-layer figures of an untraced window.
fn report_window_layers(
    report: &mut Report,
    window: &Window,
    server: &ServeMetrics,
    client: ClientStats,
    wire: (f64, f64),
) {
    let edge = sorted(window.edge.clone());
    let roundtrip = sorted(window.roundtrip.clone());
    let ops = window.ops();
    report.set("models.edge_forward_ms_p50", ms(quantile(&edge, 0.5)));
    report.set("models.edge_forward_ms_p99", ms(quantile(&edge, 0.99)));
    report.set(
        "split.encode_us_p50",
        (median(&window.encode) + wire.0) / 1e3,
    );
    report.set(
        "split.decode_us_p50",
        (median(&window.decode) + wire.1) / 1e3,
    );
    report.set(
        "split.bytes_up_per_req",
        window.bytes_up as f64 / ops.max(1) as f64,
    );
    report.set(
        "split.bytes_down_per_req",
        window.bytes_down as f64 / ops.max(1) as f64,
    );
    report.set("serve.roundtrip_ms_p50", ms(quantile(&roundtrip, 0.5)));
    report.set("serve.roundtrip_ms_p99", ms(quantile(&roundtrip, 0.99)));
    deploy::server_layer_metrics(report, server);
    report.set("serve.client_retries", client.retries as f64);
    // Residual: what is left of each request after the edge forward, the
    // client codec, the wire serialization and the server's phase medians.
    let unattributed = wire.0 + wire.1 + deploy::server_phase_ns(server);
    let residual: Vec<f64> = (0..window.e2e.len())
        .map(|i| {
            window.e2e[i] - window.edge[i] - window.encode[i] - window.decode[i] - unattributed
        })
        .collect();
    report.set("serve.residual_ms_p50", ms(median(&residual)));
    window.start.report_until(&window.end, report, ops);
    let attempted = window.tally.ok + window.tally.unsuccessful();
    report.set(
        "bench.error_rate",
        window.tally.unsuccessful() as f64 / attempted.max(1) as f64,
    );
}

/// Counts a window's requests against the report and records its first
/// failure.
fn account(report: &mut Report, window: &Window) {
    report.attempted += window.tally.ok + window.tally.unsuccessful();
    report.failed += window.tally.unsuccessful();
    if let Some(reason) = &window.first_failure {
        report.fail_check(reason.clone());
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<Report, String> {
    crate::sys::pin_to_one_cpu()?;
    let inputs = deploy::images(config.seed, deploy::SERVING_INPUTS)?;
    let expected = deploy::references(config.seed, &inputs)?;
    let (mut deployment, setups) =
        deploy::timed_setups(|| Deployment::start(config.seed, &inputs, &expected))?;
    let mut report = Report::new();
    report.note("setup_s_each", format!("{setups:?}"));
    let seconds = if config.trace {
        config.seconds / 2.0
    } else {
        config.seconds
    };
    let plain = measure(&mut deployment, &inputs, &expected, seconds, None);
    account(&mut report, &plain);
    let server = deployment.serving.metrics();
    let client = deployment.client.stats();
    let wire = wire_ledger(&mut deployment, &inputs)?;
    report_window_layers(&mut report, &plain, &server, client, wire);

    let p50 = median(&plain.e2e);
    let slots = &plain.slots;
    report.set("setup_s", median(&setups));
    report.set("latency_p50_ms", ms(p50));
    report.set(
        "latency_p99_ms",
        ms(p99_for(&plain.e2e, "request latency", config.trace)?),
    );
    report.set("throughput_per_s", slots.rate());
    report.set("cpu_ms_per_op", slots.cpu_ms_per_op());
    report.set("peak_rss_mb", crate::sys::peak_rss_mb());
    report.note("requests_measured", plain.ops().to_string());

    if config.trace {
        let mut store = SpanStore::default();
        obs::reset();
        obs::set_enabled(true);
        let traced = measure(
            &mut deployment,
            &inputs,
            &expected,
            seconds,
            Some(&mut store),
        );
        obs::set_enabled(false);
        account(&mut report, &traced);
        let trace_path = config
            .out_dir
            .as_ref()
            .map(|d| d.join(format!("edge_closed-seed{}.trace.json", config.seed)));
        report.note(
            "chrome_trace",
            spans::export_chrome_trace(trace_path.as_deref())?,
        );
        store.drain();
        spans::report_layers(&mut report, &store, traced.ops());
        let traced_p50 = median(&traced.e2e);
        report.set("trace.overhead_pct", (traced_p50 / p50 - 1.0) * 100.0);
    }
    Ok(report)
}
